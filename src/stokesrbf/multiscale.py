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
    _FIELD_ROWS,
    LevelSolution,
    NotPositiveDefinite,
    _query_points,
    assemble,
    evaluate,  # unused here; the traced benchmark run (perfbench/layers.py) hooks it
    evaluate_fields,
    solve,
)
from .geometry import LevelPointSet, grid_spacing, make_level_pointset, separation_distance
from .stokes_kernel import StokesKernelConfig
from .wendland import WendlandPolynomial, wendland_c8

__all__ = [
    "MultiscaleConfig",
    "MultiscaleModel",
    "scale_schedule",
    "run",
    "evaluate_model",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class MultiscaleConfig:
    """Parameters of the level loop.

    ``tau`` is the Sobolev exponent of the kernel's native space (4.5 for
    the C^8 kernel); it is supplied rather than inferred because it is a
    property of the norm equivalence, not recoverable from coefficients.
    ``delta_override`` replaces the derived schedule.
    """

    n_levels: int
    beta: float = 18.779
    tau: float = 4.5
    nu: float = 1.0
    delta_override: tuple[float, ...] | None = None
    psi_vel: WendlandPolynomial | None = None
    psi_pre: WendlandPolynomial | None = None

    def __post_init__(self):
        if self.n_levels < 1:
            raise ValueError("need at least one level")
        if self.tau <= 2:
            raise ValueError("tau must exceed 2 for a meaningful schedule")

    def velocity_profile(self) -> WendlandPolynomial:
        return self.psi_vel if self.psi_vel is not None else wendland_c8()

    def pressure_profile(self) -> WendlandPolynomial:
        return self.psi_pre if self.psi_pre is not None else wendland_c8()


def scale_schedule(config: MultiscaleConfig, levels: int | None = None) -> list[float]:
    """Support radii delta_j = beta * h_j^((tau-2)/(tau+1)), h_j the grid spacing."""
    n = config.n_levels if levels is None else levels
    if config.delta_override is not None:
        if len(config.delta_override) < n:
            raise ValueError("delta_override shorter than the level count")
        return [float(d) for d in config.delta_override[:n]]
    exponent = 1.0 - 3.0 / (config.tau + 1.0)
    return [config.beta * grid_spacing(j + 1) ** exponent for j in range(n)]


@dataclass
class MultiscaleModel:
    """Accumulated approximant: per-level solutions plus their config."""

    levels: list[LevelSolution]
    config: MultiscaleConfig

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def _residual_f(problem, solved: list[LevelSolution]):
    def f_resid(pts):
        vals = np.asarray(problem.f(pts), dtype=float)
        for sol in solved:
            vals = vals - evaluate_fields(sol, pts, "l-image")
        return vals

    return f_resid


def _residual_g(problem, solved: list[LevelSolution]):
    def g_resid(pts):
        vals = np.asarray(problem.g(pts), dtype=float)
        for sol in solved:
            vals = vals - evaluate_fields(sol, pts, "velocity")
        return vals

    return g_resid


def run(
    problem,
    config: MultiscaleConfig,
    pointsets: list[LevelPointSet] | None = None,
    on_level=None,
) -> MultiscaleModel:
    """Run the residual-correction loop.

    ``problem`` provides closed forms ``f(points) -> (n, 2)`` and
    ``g(points) -> (n, 2)``.  ``pointsets`` defaults to the tensor-grid
    hierarchy starting at level 1.  ``on_level(index, system, solution)``
    is called after each solve (used for conditioning measurements);
    levels are strictly sequential since each depends on all previous.
    """
    if pointsets is None:
        pointsets = [make_level_pointset(j + 1) for j in range(config.n_levels)]
    if len(pointsets) < config.n_levels:
        raise ValueError("not enough point sets for the requested levels")
    deltas = scale_schedule(config)
    base = StokesKernelConfig(
        config.velocity_profile(), config.pressure_profile(), nu=config.nu
    )
    solved: list[LevelSolution] = []
    for j in range(config.n_levels):
        kernel = base.rescaled(deltas[j])
        try:
            system = assemble(
                pointsets[j],
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
            system = None
    return MultiscaleModel(levels=solved, config=config)


def evaluate_model(model: MultiscaleModel, x, request: str = "velocity"):
    """Sum of per-level fields at x.

    request "velocity" returns (n, 2); "pressure-gradient" (n, 2);
    "divergence" (n,); "l-image" (n, 2); "value" (n, 3).  Each level's
    velocity is exactly divergence-free, so the sum is as well.  A model
    without levels checks its input like any other and returns zeros.
    """
    x = _query_points(x)
    if request not in _FIELD_ROWS:
        raise ValueError(f"unknown request {request!r}")
    out = None
    for sol in model.levels:
        vals = evaluate_fields(sol, x, request)
        out = vals if out is None else out + vals
    if out is None:
        out = np.zeros((len(x), len(_FIELD_ROWS[request])))
        if request == "divergence":
            out = out[:, 0]
    return out


_MAGIC = b"SRBFMS01"


def save_model(model: MultiscaleModel, path) -> None:
    """Serialize a model.

    Layout (little-endian): 8-byte magic, uint64 level count; per level a
    header <f8 delta, f8 nu, u8 n_interior, u8 n_boundary> followed by the
    interior points, boundary points and coefficient vector as float64.
    Kernel profiles are not stored; loading reattaches the profiles of the
    supplied config (default C^8).
    """
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


def load_model(path, config: MultiscaleConfig | None = None) -> MultiscaleModel:
    """Read a model written by save_model.

    Raises ValueError unless the file holds exactly one such model: a wrong
    magic, a section cut short, or bytes after the last level all fail.
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
    if config is None:
        config = MultiscaleConfig(n_levels=max(n_levels, 1))
    base = StokesKernelConfig(
        config.velocity_profile(), config.pressure_profile(), nu=config.nu
    )
    levels = []
    for _ in range(n_levels):
        delta, nu, n_int, n_bd = struct.unpack("<ddQQ", take(32))
        interior = np.frombuffer(take(16 * n_int), dtype="<f8").reshape(-1, 2)
        boundary = np.frombuffer(take(16 * n_bd), dtype="<f8").reshape(-1, 2)
        coeffs = np.frombuffer(take(8 * 2 * (n_int + n_bd)), dtype="<f8").copy()
        pointset = LevelPointSet(
            interior=interior.copy(),
            boundary=boundary.copy(),
            nominal_h=float(
                1.0 / (np.sqrt(n_int) - 1) if n_int > 1 else 1.0
            ),
            measured_h=float("nan"),
            separation_q=separation_distance(interior),
        )
        kernel = StokesKernelConfig(
            base.psi_vel, base.psi_pre, nu=nu, delta=delta
        )
        levels.append(
            LevelSolution(coefficients=coeffs, pointset=pointset, kernel=kernel)
        )
    if pos != len(data):
        raise ValueError("trailing bytes after the stokesrbf model")
    return MultiscaleModel(levels=levels, config=config)
