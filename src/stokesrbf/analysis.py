"""Error norms, conditioning measurements, and the reproduction experiment.

The manufactured solution is the trigonometric velocity/pressure pair

    u1 = 2 cos(5 x1) cos(2 x2),  u2 = 5 sin(5 x1) sin(2 x2),
    p  = sin(3 x1) sin(3 x2) + C,

for which -lap u = 29 u, so the forcing is f = 29 nu u + grad p.  Note the
2 in sin(2 x2): the published write-up of this experiment prints u2 with
sin(x2), but only sin(2 x2) is divergence-free and consistent with the
forcing it states (f2 = 145 sin(5 x1) sin(2 x2)); the printed line is a
typo and the consistent field is used throughout.

Pressure is compared through its gradient only -- the pressure itself is
determined up to a constant per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .collocation import (
    evaluate,  # unused here; the traced benchmark run (perfbench/layers.py) hooks it
    evaluate_fields,
)
from .geometry import (check_dense, check_memory, integer_count, make_level_pointset,
                       point_batch, positive_finite)
from .multiscale import MultiscaleConfig, MultiscaleModel, evaluate_model, run

__all__ = [
    "ManufacturedSolution",
    "ErrorReport",
    "trig_stokes_problem",
    "grid_errors",
    "extreme_eigenvalues",
    "slope_check",
    "run_experiment",
]

# bytes per point of the quadrature grid that `run_experiment` holds at its
# peak: the coordinates and weights, the reference and accumulated fields,
# a level's evaluation and the error norms' temporaries.  tracemalloc put
# the growth of its peak from q = 300 to q = 600 at 126-129 bytes a point (1
# level; 131-132 from q = 150 to 300, with the evaluation's power-table row
# indices; 132-136 while velocity and pressure gradient took two calls).
_GRID_BYTES = 136


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form velocity, pressure gradient, forcing and boundary data.

    All callables map a `geometry.point_batch` (n, 2) to (n, 2) arrays.
    """

    u: object
    grad_p: object
    f: object
    g: object


def trig_stokes_problem(nu: float = 1.0) -> ManufacturedSolution:
    """The manufactured solution for a `geometry.positive_finite` viscosity ``nu``."""
    positive_finite(nu=nu)

    def u(pts):
        x1, x2 = point_batch(pts).T
        return np.column_stack(
            [2.0 * np.cos(5.0 * x1) * np.cos(2.0 * x2),
             5.0 * np.sin(5.0 * x1) * np.sin(2.0 * x2)]
        )

    def grad_p(pts):
        x1, x2 = point_batch(pts).T
        return np.column_stack(
            [3.0 * np.cos(3.0 * x1) * np.sin(3.0 * x2),
             3.0 * np.sin(3.0 * x1) * np.cos(3.0 * x2)]
        )

    def f(pts):
        # -lap u = 29 u for both components
        return 29.0 * nu * u(pts) + grad_p(pts)

    return ManufacturedSolution(u=u, grad_p=grad_p, f=f, g=u)


def _leggauss(q: int):
    """numpy's `leggauss(q)` step for step, with the same bits, except that
    scipy's `eigh` computes the companion matrix's eigenvalues: the same
    LAPACK dsyevd as numpy's `eigvalsh`, run by the OpenBLAS that scipy
    bundles and that every solve uses.  numpy bundles an OpenBLAS of its
    own, and after a threaded call each one's worker thread busy-waits for
    about 128 ms: numpy's, woken here, stalled the level-2 Cholesky factor
    of `run_experiment` on 2 cores (0.2 ms, 50-115 ms in 4 runs of 10)."""
    legendre = np.polynomial.legendre  # numpy imports it on first use
    c = np.array([0] * q + [1])
    x = eigh(legendre.legcompanion(c), eigvals_only=True, driver="evd",
             check_finite=False)
    # one Newton step on the roots
    dy = legendre.legval(x, c)
    df = legendre.legval(x, legendre.legder(c))
    x -= dy / df
    # weights from scaled factors, symmetrized, then normalized to sum to 2
    fm = legendre.legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def gauss_legendre_grid(points_per_dim: int):
    """Tensor Gauss-Legendre nodes and weights on the unit square.

    Raises ValueError unless ``points_per_dim`` is a
    `geometry.integer_count` >= 2 for which what `run_experiment` holds
    for a grid of q^2 points fits in physical memory: _GRID_BYTES a grid
    point, which also covers the q x q companion matrix whose eigenvalues
    are the nodes (8 q^2 bytes).
    """
    q = integer_count(points_per_dim, "quad_points", 2)
    check_memory(_GRID_BYTES * q * q, f"quad_points {q}")
    nodes, weights = _leggauss(q)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts, np.outer(weights, weights).ravel()


# field name (also the `evaluate_model` request) -> reference attribute
_REFERENCE_FIELDS = {"velocity": "u", "pressure-gradient": "grad_p"}


def _norms(err: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """(L2 with quadrature weights w, max) of the pointwise Euclidean norm."""
    sq = np.sum(err * err, axis=1)
    return float(np.sqrt(np.sum(w * sq))), float(np.max(np.sqrt(sq)))


def grid_errors(model, reference: ManufacturedSolution, fieldname: str,
                points_per_dim: int = 100) -> tuple[float, float]:
    """(L2(Omega), max) norms of the pointwise Euclidean error of ``fieldname``
    on the tensor Gauss-Legendre grid.  The pressure is compared through its
    gradient ("pressure-gradient"), which quotients out its constant."""
    if fieldname not in _REFERENCE_FIELDS:
        raise ValueError(f"unknown field {fieldname!r}")
    pts, w = gauss_legendre_grid(points_per_dim)
    err = evaluate_model(model, pts, request=fieldname)
    err = err - getattr(reference, _REFERENCE_FIELDS[fieldname])(pts)
    return _norms(err, w)


def extreme_eigenvalues(matrix: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix, from the full
    decomposition (`eigh`, which works on a copy of the matrix).

    Raises ValueError for an empty matrix or one with an entry that is not
    finite.
    """
    if np.size(matrix) == 0:
        raise ValueError("need a non-empty matrix")
    vals = eigh(matrix, eigvals_only=True, check_finite=True)
    return float(vals[0]), float(vals[-1])


def slope_check(levels) -> float:
    """Least-squares exponent of kappa ~ (1/h)^slope from (h_j, kappa_j) pairs.

    Raises ValueError unless every h and kappa is positive and finite and
    at least two of the h differ.
    """
    pairs = np.array(list(levels), dtype=float)
    if pairs.shape[1:] != (2,) or not np.all(np.isfinite(pairs) & (pairs > 0)):
        raise ValueError("need (h, kappa) pairs, each h and kappa positive and finite")
    h, kappa = pairs.T
    if len(np.unique(h)) < 2:
        raise ValueError("need (h, kappa) pairs at two or more distinct h")
    slope, _ = np.polyfit(np.log(1.0 / h), np.log(kappa), 1)
    return float(slope)


@dataclass
class ErrorReport:
    """Per-level error norms of the accumulated approximant.

    Lists are indexed by level (0-based); condition numbers are recorded
    only for the levels where the eigenvalues were computed.
    """

    deltas: list[float] = field(default_factory=list)
    velocity_l2: list[float] = field(default_factory=list)
    velocity_linf: list[float] = field(default_factory=list)
    pressure_grad_l2: list[float] = field(default_factory=list)
    pressure_grad_linf: list[float] = field(default_factory=list)
    condition_numbers: dict[int, float] = field(default_factory=dict)
    lambda_min: dict[int, float] = field(default_factory=dict)
    quad_points: int = 100

    @property
    def n_levels(self) -> int:
        return len(self.deltas)

    def to_csv(self, path) -> None:
        """Table-shaped CSV: one row per quantity, one column per level."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        lines = ["level," + ",".join(str(j + 1) for j in range(self.n_levels))]
        rows = [
            ("delta", self.deltas, "{:.4g}"),
            ("velocity_l2", self.velocity_l2, "{:.3e}"),
            ("velocity_linf", self.velocity_linf, "{:.3e}"),
            ("pressure_grad_l2", self.pressure_grad_l2, "{:.3e}"),
            ("pressure_grad_linf", self.pressure_grad_linf, "{:.3e}"),
        ]
        for name, values, fmt in rows:
            lines.append(name + "," + ",".join(fmt.format(v) for v in values))
        return "\n".join(lines) + "\n"


def run_experiment(
    config: MultiscaleConfig,
    problem: ManufacturedSolution | None = None,
    quad_points: int = 100,
    eigen_levels: int = 3,
) -> tuple[MultiscaleModel, ErrorReport]:
    """Run the level loop and measure errors of each partial sum.

    Every level's contribution is evaluated once on the shared tensor grid
    and accumulated, so the per-level norms come from the same evaluation
    grid (as in the original experiment, which estimated both norms on one
    tensor product grid), after the level loop: no matrix is then alive.
    Raises ValueError, before any work, unless ``quad_points`` is a
    `geometry.integer_count` >= 2 (see `gauss_legendre_grid`),
    ``eigen_levels`` one >= 0, and the top level's matrix fits in memory
    (`geometry.check_dense`), twice if its eigenvalues copy it.
    """
    integer_count(eigen_levels, "eigen_levels", 0)
    check_dense(make_level_pointset(config.n_levels), 2 if eigen_levels >= config.n_levels else 1,
                f"levels up to {config.n_levels}")
    if problem is None:
        problem = trig_stokes_problem(nu=config.nu)
    pts, w = gauss_legendre_grid(quad_points)
    report = ErrorReport(quad_points=quad_points)

    def on_level(index, system, solution):
        if index < eigen_levels:
            lam_min, lam_max = extreme_eigenvalues(system.matrix)
            report.lambda_min[index + 1] = lam_min
            if lam_min > 0:
                report.condition_numbers[index + 1] = lam_max / lam_min

    model = run(problem, config, on_level=on_level)
    u_ref = problem.u(pts)
    gp_ref = problem.grad_p(pts)
    vel_acc = np.zeros_like(u_ref)
    gp_acc = np.zeros_like(gp_ref)
    for solution in model.levels:
        # both fields in one call, which reads one displacement set per slab
        # and centre kind for both; dropped before the norms and the next call
        vel, gp = evaluate_fields(solution, pts, ("velocity", "pressure-gradient"))
        vel_acc += vel
        gp_acc += gp
        del vel, gp
        vel_l2, vel_linf = _norms(vel_acc - u_ref, w)
        gp_l2, gp_linf = _norms(gp_acc - gp_ref, w)
        report.deltas.append(solution.kernel.delta)
        report.velocity_l2.append(vel_l2)
        report.velocity_linf.append(vel_linf)
        report.pressure_grad_l2.append(gp_l2)
        report.pressure_grad_linf.append(gp_linf)
    return model, report
