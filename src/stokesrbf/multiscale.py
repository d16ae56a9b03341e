"""Multilevel residual-correction loop with a geometric scale schedule.

Level j solves the symmetric collocation system for the residual of the
accumulated approximant: f_j = f_{j-1} - L S_j v and g_j = g_{j-1} - S_j u.
Residual data are lazy closures over the previously solved levels, evaluated
exactly where the next level collocates -- never resampled onto a grid.  The
kernel support shrinks with the nominal spacing as

    delta_j = beta * h_j^(1 - 3/(tau + 1)),

a geometric schedule since h halves per level.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .collocation import (
    LevelSolution,
    NotPositiveDefinite,
    assemble,
    evaluate,  # unused here; the traced benchmark run (perfbench/layers.py) hooks it
    evaluate_fields,
    evaluate_levels,
    solve,
)
from .geometry import (LevelPointSet, check_dense, grid_spacing, integer_count,
                       make_level_pointset, point_batch, positive_finite)
from .stokes_kernel import StokesKernelConfig
from .wendland import wendland_c8

__all__ = [
    "PROFILE",
    "MultiscaleConfig",
    "MultiscaleModel",
    "scale_schedule",
    "run",
    "evaluate_model",
    "save_model",
    "load_model",
]


# both kernel blocks' profile at every level that `run` fits and a model file
# holds: one object, so a model's levels share displacement sets (`_ColumnPlan`)
PROFILE = wendland_c8()


@dataclass(frozen=True)
class MultiscaleConfig:
    """Parameters of the level loop; both kernel blocks use `PROFILE`.  The
    defaults are the published experiment's.

    ``tau`` is the Sobolev exponent of the kernel's native space (4.5 for
    the C^8 kernel); it is supplied rather than inferred because it is a
    property of the norm equivalence, not recoverable from coefficients.
    Raises ValueError unless ``n_levels`` is a `geometry.integer_count` >=
    1, ``tau`` > 2, and ``beta``, ``nu`` and ``tau`` are positive and finite.
    """

    n_levels: int
    beta: float = 18.779
    tau: float = 4.5
    nu: float = 1.0

    def __post_init__(self):
        integer_count(self.n_levels, "n_levels", 1)
        positive_finite(beta=self.beta, nu=self.nu, tau=self.tau)  # beta = inf: infinite supports
        if not self.tau > 2:
            raise ValueError("tau must exceed 2 for a meaningful schedule")


def scale_schedule(config: MultiscaleConfig) -> list[float]:
    """Support radii delta_j = beta * h_j^((tau-2)/(tau+1)), h_j the grid spacing."""
    exponent = 1.0 - 3.0 / (config.tau + 1.0)
    return [config.beta * grid_spacing(j + 1) ** exponent for j in range(config.n_levels)]


@dataclass
class MultiscaleModel:
    """Accumulated approximant: per-level solutions plus the config that
    `run` fitted them with (None for a loaded model: the file stores none)."""

    levels: list[LevelSolution]
    config: MultiscaleConfig | None = None

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def _residual(data, request: str, solved: list[LevelSolution]):
    """The closed-form ``data`` minus the ``request`` field of each solved
    level, at points checked as query points before anything is evaluated."""
    def resid(pts):
        pts = point_batch(pts, "query points")
        vals = np.asarray(data(pts), dtype=float)
        for sol in solved:
            vals = vals - evaluate_fields(sol, pts, request)
        return vals

    return resid


def _residual_f(problem, solved: list[LevelSolution]):
    return _residual(problem.f, "l-image", solved)


def _residual_g(problem, solved: list[LevelSolution]):
    return _residual(problem.g, "velocity", solved)


def run(problem, config: MultiscaleConfig, on_level=None) -> MultiscaleModel:
    """Run the residual-correction loop on the tensor-grid hierarchy.

    ``problem`` provides closed forms ``f(points) -> (n, 2)`` and
    ``g(points) -> (n, 2)``.  ``on_level(index, system, solution)`` is
    called after each solve (used for conditioning measurements); levels
    are strictly sequential since each depends on all previous; ValueError
    first unless the top level's matrix fits (`geometry.check_dense`).
    """
    check_dense(make_level_pointset(config.n_levels), 1, f"levels up to {config.n_levels}")
    base = StokesKernelConfig(PROFILE, PROFILE, nu=config.nu)
    solved: list[LevelSolution] = []
    for j, delta in enumerate(scale_schedule(config)):
        kernel = base.rescaled(delta)
        try:
            system = assemble(
                make_level_pointset(j + 1),
                kernel,
                _residual_f(problem, solved),
                _residual_g(problem, solved),
            )
            solution = solve(system)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                f"level {j + 1}: {exc}", pivot=exc.pivot
            ) from exc
        solved.append(solution)
        if on_level is not None:
            on_level(j, system, solution)
        system = None  # not alive while the next level assembles
    return MultiscaleModel(levels=solved, config=config)


def evaluate_model(model: MultiscaleModel, x, request="velocity"):
    """Sum of per-level fields at x, added in level order.

    request "velocity" returns (n, 2); "pressure-gradient" (n, 2);
    "divergence" (n,); "l-image" (n, 2); "value" (n, 3); a sequence of
    requests returns a tuple of one such sum per request, each with the
    bits of its own call.  Each level's velocity is exactly divergence-free,
    so the sum is as well.  The levels are evaluated in one pass
    (`collocation.evaluate_levels`, which rejects an unknown request before
    any evaluation); a model without levels checks its input like any other
    and returns zeros.
    """
    fields = evaluate_levels(model.levels, x, request)
    if isinstance(request, str):
        return _level_sum(fields)
    return tuple(_level_sum(levels) for levels in fields)


def _level_sum(fields) -> np.ndarray:
    """The sum of the levels' fields, in level order."""
    # a level's field is summed into +0.0 and holds no -0.0, so 0.0 plus
    # the first level is that level bit for bit
    out = np.zeros(fields.shape[1:])
    for field in fields:
        out += field
    return out


_MAGIC = b"SRBFMS01"


def save_model(model: MultiscaleModel, path) -> None:
    """Serialize a model.

    Layout (little-endian): 8-byte magic, uint64 level count; per level a
    header <f8 delta, f8 nu, u8 n_interior, u8 n_boundary> followed by the
    interior points, boundary points and coefficient vector as float64.
    Kernel profiles are not stored; loading reattaches `PROFILE`, so a
    level of any other profile raises ValueError before the file is opened.
    """
    if any(psi.coeffs != PROFILE.coeffs for sol in model.levels
           for psi in (sol.kernel.psi_vel, sol.kernel.psi_pre)):
        raise ValueError("a model file stores only levels of the C^8 profile (wendland_c8)")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", model.n_levels))
        for sol in model.levels:
            ps = sol.pointset
            fh.write(
                struct.pack(
                    "<ddQQ",
                    sol.kernel.delta,
                    sol.kernel.nu,
                    ps.n_interior,
                    ps.n_boundary,
                )
            )
            fh.write(ps.interior.astype("<f8").tobytes())
            fh.write(ps.boundary.astype("<f8").tobytes())
            fh.write(np.asarray(sol.coefficients).astype("<f8").tobytes())


def load_model(path) -> MultiscaleModel:
    """Read a model written by save_model; its levels report an unknown
    (nan) solve residual and the model has no config.

    Raises ValueError unless the file holds exactly one such model: a wrong
    magic, a section cut short, bytes after the last level, or a centre or
    coefficient that is not finite (which `LevelPointSet` and
    `LevelSolution` reject) all fail.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise ValueError("not a stokesrbf model file")
    pos = 8

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(data) - pos:
            raise ValueError("truncated stokesrbf model file")
        pos += n
        return data[pos - n: pos]

    (n_levels,) = struct.unpack("<Q", take(8))
    levels = []
    for _ in range(n_levels):
        delta, nu, n_int, n_bd = struct.unpack("<ddQQ", take(32))
        interior = np.frombuffer(take(16 * n_int), dtype="<f8").reshape(-1, 2)
        boundary = np.frombuffer(take(16 * n_bd), dtype="<f8").reshape(-1, 2)
        coeffs = np.frombuffer(take(8 * 2 * (n_int + n_bd)), dtype="<f8").copy()
        pointset = LevelPointSet(interior=interior, boundary=boundary)  # copies them
        kernel = StokesKernelConfig(PROFILE, PROFILE, nu=nu, delta=delta)
        levels.append(
            LevelSolution(coefficients=coeffs, pointset=pointset, kernel=kernel)
        )
    if pos != len(data):
        raise ValueError("trailing bytes after the stokesrbf model")
    return MultiscaleModel(levels=levels)
