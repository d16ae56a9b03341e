"""Assembly and solution of the single-level symmetric collocation system.

Row and column functionals are ordered component-major: momentum rows for
component 1 over all interior centres, then component 2, then velocity
(Dirichlet) rows for components 1 and 2 over the boundary centres.  The
matrix is symmetric positive definite by construction; the solver is a
Cholesky factorization without pivoting, and loss of definiteness is
surfaced as an error rather than regularized away -- it is a diagnostic,
not a nuisance.
"""

from __future__ import annotations

import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .geometry import LevelPointSet
from .stokes_kernel import DIRICHLET, PDE, StokesKernelConfig, kernel_block

__all__ = [
    "NotPositiveDefinite",
    "CollocationSystem",
    "LevelSolution",
    "assemble",
    "solve",
    "evaluate",
    "evaluate_fields",
    "write_matrix",
]

# Rows per slab.  A 128-row slab against a level-4 column group is about
# 1 MB per temporary, so the many passes of one kernel block stay in cache;
# with 1024-row slabs (8.7 MB temporaries) evaluating a level-4 model on
# the 100^2 grid took ~1.5 times as long (2-core x86_64).
_SLAB = 128


# One worker per usable CPU runs the pieces of a call (numpy releases the
# GIL in its loops): the caller's thread and CPUs - 1 helper threads take
# pieces -- one row label of one slab -- in turn until none is left.  A
# piece, not a whole slab, is the unit so that the last one taken is short:
# a level-4 system is 9 slabs of 130 to 512 rows but 20 pieces of at most
# 128.  With whole slabs one of two workers sat idle for ~0.1 s (up to
# 0.19 s) at the end of a ~1.9 s level-4 assembly, more or less as the
# threads happened to drift; with pieces, for ~0.015 s.  A call with one
# slab -- a small query batch, the first level's system -- runs on the
# caller's thread alone.  The helpers never submit work themselves, so none
# waits on another.
def _new_pool() -> None:
    global _HELPERS, _POOL
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    _HELPERS = (cpus or 1) - 1
    _POOL = ThreadPoolExecutor(max(_HELPERS, 1))


_new_pool()
# a forked child has none of the parent's threads
os.register_at_fork(after_in_child=_new_pool)


class NotPositiveDefinite(ArithmeticError):
    """Cholesky factorization hit a nonpositive pivot.

    ``pivot`` is the 1-based index of the failing leading minor when the
    backend reports one.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


def _groups(pointset: LevelPointSet):
    """Functional groups in system order: (row label, column label, centres);
    a boundary centre's row evaluates the velocity that its column imposes."""
    return (
        ((PDE, 1), (PDE, 1), pointset.interior),
        ((PDE, 2), (PDE, 2), pointset.interior),
        (("velocity", 1), (DIRICHLET, 1), pointset.boundary),
        (("velocity", 2), (DIRICHLET, 2), pointset.boundary),
    )


@dataclass
class CollocationSystem:
    """Symmetric collocation system A alpha = rhs for one level."""

    matrix: np.ndarray
    rhs: np.ndarray
    pointset: LevelPointSet
    kernel: StokesKernelConfig

    @property
    def size(self) -> int:
        return len(self.rhs)


@dataclass
class LevelSolution:
    """Solved coefficients for one level, evaluable through this module."""

    coefficients: np.ndarray
    pointset: LevelPointSet
    kernel: StokesKernelConfig
    solve_residual: float = 0.0


def assemble(
    pointset: LevelPointSet,
    kernel: StokesKernelConfig,
    f_data,
    g_data,
) -> CollocationSystem:
    """Build the 2M x 2M system collocating f at interior and g at boundary
    centres.

    ``f_data`` and ``g_data`` map an (n, 2) array of points to an (n, 2)
    array of component values; at levels beyond the first they are residual
    evaluators closing over the previously solved levels.
    """
    total = pointset.n_functionals
    matrix = np.empty((total, total))
    row_groups = [(row, pts) for row, _, pts in _groups(pointset)]

    def fill(piece):
        for rows, cols, block in _piece_blocks(kernel, piece, pointset):
            matrix[rows, cols] = block
            del block

    _run_slabs(fill, _slabs(row_groups))
    fvals = np.asarray(f_data(pointset.interior), dtype=float)
    gvals = np.asarray(g_data(pointset.boundary), dtype=float)
    rhs = np.concatenate([fvals[:, 0], fvals[:, 1], gvals[:, 0], gvals[:, 1]])
    return CollocationSystem(
        matrix=matrix, rhs=rhs, pointset=pointset, kernel=kernel
    )


def solve(system: CollocationSystem, refine_target: float = 1e-10) -> LevelSolution:
    """Cholesky solve with a few iterative-refinement sweeps.

    Residuals are accumulated in extended precision: at the finer levels the
    right-hand side is itself a small residual while the coefficient vector
    is large, so double-precision residuals would stall above the target.
    Raises NotPositiveDefinite if the factorization fails; that typically
    means the scale is far too large for the point density.
    """
    try:
        factor = cho_factor(system.matrix, lower=True, check_finite=False)
    except LinAlgError as exc:
        match = re.search(r"(\d+)", str(exc))
        pivot = int(match.group(1)) if match else None
        raise NotPositiveDefinite(str(exc), pivot=pivot) from exc
    matrix_ld = system.matrix.astype(np.longdouble)
    rhs_ld = system.rhs.astype(np.longdouble)

    def true_residual(vec):
        return np.asarray(rhs_ld - matrix_ld @ vec.astype(np.longdouble), dtype=float)

    rhs_norm = float(np.linalg.norm(system.rhs))
    coeffs = cho_solve(factor, system.rhs, check_finite=False)
    residual = true_residual(coeffs)
    res_norm = float(np.linalg.norm(residual))
    for _ in range(4):
        if rhs_norm == 0.0 or res_norm <= refine_target * rhs_norm:
            break
        candidate = coeffs + cho_solve(factor, residual, check_finite=False)
        cand_residual = true_residual(candidate)
        cand_norm = float(np.linalg.norm(cand_residual))
        if cand_norm >= res_norm:
            break
        coeffs, residual, res_norm = candidate, cand_residual, cand_norm
    return LevelSolution(
        coefficients=coeffs,
        pointset=system.pointset,
        kernel=system.kernel,
        solve_residual=res_norm / rhs_norm if rhs_norm else res_norm,
    )


def _slabs(row_groups) -> list:
    """Point slabs of ``row_groups`` -- (row label, points) in output order.

    Slab k holds points k*_SLAB up to (k+1)*_SLAB of every group that has
    them, as (row label, first output row, points) pieces.  `_apply_rows`
    thus hands BLAS one block per label and point slab.  BLAS sums a row in
    an order that depends on the row's place in its block, so a point's
    values do not depend on which labels are requested with it.
    """
    slabs, r0 = [], 0
    for row, pts in row_groups:
        for k, start in enumerate(range(0, len(pts), _SLAB)):
            if k == len(slabs):
                slabs.append([])
            slabs[k].append((row, r0 + start, pts[start:start + _SLAB]))
        r0 += len(pts)
    return slabs


def _piece_blocks(kernel: StokesKernelConfig, piece, pointset: LevelPointSet):
    """Kernel blocks of one piece's row functional against this level's
    columns: yields (row slice, column slice, block) by column group in
    system order.  Callers drop each block before asking for the next, so
    that one block per worker is alive at a time."""
    row, r0, pts = piece
    c0 = 0
    for _, col, cpts in _groups(pointset):
        yield (slice(r0, r0 + len(pts)), slice(c0, c0 + len(cpts)),
               kernel_block(kernel, row, col, pts, cpts))
        c0 += len(cpts)


def _run_slabs(task, slabs) -> None:
    """task(piece) for every piece of every slab, slab by slab; the pieces
    write disjoint output rows."""
    pieces = [piece for slab in slabs for piece in slab]
    todo, lock = iter(pieces), threading.Lock()

    def drain():
        while True:
            with lock:
                piece = next(todo, None)
            if piece is None:
                return
            task(piece)

    n_helpers = min(_HELPERS, len(pieces) - 1) if len(slabs) > 1 else 0
    helpers = [_POOL.submit(drain) for _ in range(n_helpers)]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.result()


def _query_points(x) -> np.ndarray:
    """x as an (n, 2) batch.  Raises ValueError unless x is one finite point
    (2,) or a finite (n, 2) batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 2 or not np.isfinite(x).all():
        raise ValueError("query points must be finite, of shape (2,) or (n, 2)")
    return np.atleast_2d(x)


def _apply_rows(solution: LevelSolution, labels, x) -> np.ndarray:
    """Stack of (row functional applied to the approximant) over x.

    Returns shape (len(x), len(labels)); the approximant is the coefficient-
    weighted sum of the basis columns of this level, added one column group
    at a time in system order.  Raises ValueError unless x is one finite
    point (2,) or a finite (n, 2) batch.
    """
    x = _query_points(x)
    out = np.zeros(len(labels) * len(x))
    coefficients = solution.coefficients

    def add(piece):
        for rows, cols, block in _piece_blocks(solution.kernel, piece, solution.pointset):
            out[rows] += block @ coefficients[cols]
            del block

    _run_slabs(add, _slabs([(label, x) for label in labels]))
    return np.ascontiguousarray(out.reshape(len(labels), len(x)).T)


# the row functionals behind each evaluation request: "value" is the
# (u1, u2, p) triple of `evaluate`, the rest are the fields of
# `evaluate_fields`
_FIELD_ROWS = {
    "value": [("velocity", 1), ("velocity", 2), ("pressure", 0)],
    "velocity": [("velocity", 1), ("velocity", 2)],
    "l-image": [("pde", 1), ("pde", 2)],
    "divergence": [("divergence", 0)],
    "pressure-gradient": [("pressure_grad", 1), ("pressure_grad", 2)],
}


def evaluate(solution: LevelSolution, x):
    """Velocity (n, 2) and pressure (n,) of the approximant at x.

    The pressure is reported as-is; it is only determined up to a constant.
    """
    vals = _apply_rows(solution, _FIELD_ROWS["value"], x)
    if np.ndim(x) == 1:
        return vals[0, :2], float(vals[0, 2])
    return vals[:, :2], vals[:, 2]


def evaluate_fields(solution: LevelSolution, x, request: str):
    """Analytic fields of the approximant: velocity, momentum-operator image
    ("l-image"), velocity divergence, pressure gradient, or the (u1, u2, p)
    columns of `evaluate` ("value")."""
    if request not in _FIELD_ROWS:
        raise ValueError(f"unknown request {request!r}")
    vals = _apply_rows(solution, _FIELD_ROWS[request], x)
    if request == "divergence":
        vals = vals[:, 0]
    return vals[0] if np.ndim(x) == 1 else vals


def write_matrix(matrix: np.ndarray, path) -> None:
    """Dump a matrix as row-major float64 with a 16-byte header of two
    little-endian uint64 dimensions."""
    matrix = np.ascontiguousarray(matrix, dtype=float)
    with open(path, "wb") as fh:
        fh.write(np.array(matrix.shape, dtype="<u8").tobytes())
        fh.write(matrix.astype("<f8").tobytes())
