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

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh

from .collocation import (
    NotPositiveDefinite,
    evaluate,  # unused here; the traced benchmark run (perfbench/layers.py) hooks it
    evaluate_fields,
)
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

_EIG_DENSE_LIMIT = 3000
# bytes per point of the quadrature grid that `run_experiment` holds at its
# peak: the coordinates and weights, the reference and accumulated fields,
# a level's evaluation and the error norms' temporaries.  tracemalloc put
# the growth of its peak from q = 300 to q = 600 at 132-136 bytes a point
# (1 and 3 levels).
_GRID_BYTES = 136


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form velocity, pressure gradient, forcing and boundary data.

    All callables map an (n, 2) array of points to (n, 2) arrays.
    """

    u: object
    grad_p: object
    f: object
    g: object


def trig_stokes_problem(nu: float = 1.0) -> ManufacturedSolution:
    """The manufactured solution of the reproduction experiment."""

    def u(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x1, x2 = pts[:, 0], pts[:, 1]
        return np.column_stack(
            [2.0 * np.cos(5.0 * x1) * np.cos(2.0 * x2),
             5.0 * np.sin(5.0 * x1) * np.sin(2.0 * x2)]
        )

    def grad_p(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x1, x2 = pts[:, 0], pts[:, 1]
        return np.column_stack(
            [3.0 * np.cos(3.0 * x1) * np.sin(3.0 * x2),
             3.0 * np.sin(3.0 * x1) * np.cos(3.0 * x2)]
        )

    def f(pts):
        # -lap u = 29 u for both components
        return 29.0 * nu * u(pts) + grad_p(pts)

    return ManufacturedSolution(u=u, grad_p=grad_p, f=f, g=u)


def gauss_legendre_grid(points_per_dim: int):
    """Tensor Gauss-Legendre nodes and weights on the unit square.

    Raises ValueError for fewer than 2 points per dimension, or when what
    `run_experiment` holds for a grid of q^2 points does not fit in physical
    memory: _GRID_BYTES a grid point, which also covers the q x q
    companion matrix whose eigenvalues are the nodes (8 q^2 bytes).
    """
    if points_per_dim < 2:
        raise ValueError("need at least 2 quadrature points per dimension")
    q = points_per_dim
    need = _GRID_BYTES * q * q
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"quad_points {q} needs {need / 1e9:.1f} GB for a grid of "
                         f"{q}^2 points, more than the {have / 1e9:.1f} GB of memory")
    nodes, weights = np.polynomial.legendre.leggauss(points_per_dim)
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
    """(lambda_min, lambda_max) of a symmetric matrix.

    Full decomposition up to 3000 unknowns; beyond that, power iteration for
    the largest and Cholesky-based inverse iteration for the smallest, each
    stopped once two successive Rayleigh quotients agree to 1e-6 relative
    (or after 500 steps).  That bounds the last step, not the error: on the
    level-5 matrix (8962 unknowns) lambda_min came out 1.1 % above the
    `eigh` value, lambda_max within 6e-7.
    """
    n = len(matrix)
    if n <= _EIG_DENSE_LIMIT:
        vals = eigh(matrix, eigvals_only=True, check_finite=False)
        return float(vals[0]), float(vals[-1])
    rng = np.random.default_rng(7)

    def dominant(mul):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(500):
            w = mul(v)
            lam_new = float(v @ w)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                return 0.0
            v = w / norm
            if abs(lam_new - lam) <= 1e-6 * abs(lam_new):
                return lam_new
            lam = lam_new
        return lam

    lam_max = dominant(lambda v: matrix @ v)
    try:
        factor = cho_factor(matrix, lower=True, check_finite=False)
    except LinAlgError as exc:  # loss of definiteness is the signal itself
        raise NotPositiveDefinite(str(exc)) from exc
    inv_dominant = dominant(lambda v: cho_solve(factor, v, check_finite=False))
    lam_min = 1.0 / inv_dominant if inv_dominant else 0.0
    return float(lam_min), float(lam_max)


def slope_check(levels) -> float:
    """Least-squares exponent of kappa ~ (1/h)^slope from (h_j, kappa_j) pairs."""
    levels = list(levels)
    if len(levels) < 2:
        raise ValueError("need at least two (h, kappa) pairs")
    xs = np.log([1.0 / h for h, _ in levels])
    ys = np.log([k for _, k in levels])
    slope, _ = np.polyfit(xs, ys, 1)
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
    tensor product grid).
    """
    if problem is None:
        problem = trig_stokes_problem(nu=config.nu)
    pts, w = gauss_legendre_grid(quad_points)
    u_ref = problem.u(pts)
    gp_ref = problem.grad_p(pts)
    report = ErrorReport(quad_points=quad_points)
    vel_acc = np.zeros_like(u_ref)
    gp_acc = np.zeros_like(gp_ref)

    def on_level(index, system, solution):
        nonlocal vel_acc, gp_acc
        vel_acc = vel_acc + evaluate_fields(solution, pts, "velocity")
        gp_acc = gp_acc + evaluate_fields(solution, pts, "pressure-gradient")
        vel_l2, vel_linf = _norms(vel_acc - u_ref, w)
        gp_l2, gp_linf = _norms(gp_acc - gp_ref, w)
        report.deltas.append(solution.kernel.delta)
        report.velocity_l2.append(vel_l2)
        report.velocity_linf.append(vel_linf)
        report.pressure_grad_l2.append(gp_l2)
        report.pressure_grad_linf.append(gp_linf)
        if index < eigen_levels:
            lam_min, lam_max = extreme_eigenvalues(system.matrix)
            report.lambda_min[index + 1] = lam_min
            if lam_min > 0:
                report.condition_numbers[index + 1] = lam_max / lam_min

    model = run(problem, config, on_level=on_level)
    return model, report
