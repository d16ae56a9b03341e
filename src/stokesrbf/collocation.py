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

import itertools
import math
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .geometry import LevelPointSet
from .radial import FRESH, BufferPool
from .stokes_kernel import DIRICHLET, PDE, StokesKernelConfig, displacements, kernel_block

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

# Rows per block of `block @ coefficients`, and the unit of a slab.  A slab
# is the multiple of _SLAB rows that holds about _SLAB_ENTRIES entries
# against the call's widest centre set (`_slabs`): 128 rows against the
# 1089 level-4 interior centres, 384 at level 3, 1536 at level 2 and 5120
# at level 1.  Its temporaries are then about 1 MB each, so the many passes
# of one kernel block stay in cache; with 1024-row slabs (8.7 MB
# temporaries) evaluating a level-4 model on the 100^2 grid took ~1.5 times
# as long, and with 128-row slabs against the 25 to 289 centres of levels
# 1-3 the per-slab Python work took ~40 % of the grid time for 29 % of its
# entries (2-core x86_64).
_SLAB = 128
_SLAB_ENTRIES = 128 * 1024


# The slabs of a call with more than one slab run on a fresh executor of
# one worker per usable CPU (numpy releases the GIL in its loops) while the
# caller waits, so no thread outlives its call.  Each worker takes its
# block-sized arrays from its own `BufferPool`, which goes with the call.
# A whole slab is the unit, so that every row label of the slab reads one
# displacement set per column point set, which computes each shared value
# once (see `_slab_blocks`).  A call with one slab -- a small query batch,
# the first level's system -- runs on the caller's thread alone and
# allocates its arrays afresh (`FRESH`).
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


class NotPositiveDefinite(ArithmeticError):
    """Cholesky factorization hit a nonpositive pivot.

    ``pivot`` is the 1-based index of the failing leading minor when the
    backend reports one.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


def _groups(pointset: LevelPointSet):
    """Functional groups in system order, by centre set: (centres, row
    labels, column labels); a boundary centre's row evaluates the velocity
    that its column imposes."""
    return (
        (pointset.interior, ((PDE, 1), (PDE, 2)), ((PDE, 1), (PDE, 2))),
        (pointset.boundary, (("velocity", 1), ("velocity", 2)),
         ((DIRICHLET, 1), (DIRICHLET, 2))),
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
    solve_residual: float = float("nan")  # nan: not solved here (a loaded level)


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
    row_sets = [(pts, rows) for pts, rows, _ in _groups(pointset)]
    tables = _tables(kernel, row_sets, pointset)

    def fill(slab, pool):
        for rows, cols, block in _slab_blocks(kernel, slab, pointset, tables, pool):
            matrix[rows, cols] = block
            del block

    _run_slabs(fill, _slabs(row_sets, pointset))
    fvals = np.asarray(f_data(pointset.interior), dtype=float)
    gvals = np.asarray(g_data(pointset.boundary), dtype=float)
    rhs = np.concatenate([fvals[:, 0], fvals[:, 1], gvals[:, 0], gvals[:, 1]])
    return CollocationSystem(
        matrix=matrix, rhs=rhs, pointset=pointset, kernel=kernel
    )


# iterative refinement stops once ||rhs - A alpha|| <= _REFINE_TARGET * ||rhs||
_REFINE_TARGET = 1e-10


def solve(system: CollocationSystem) -> LevelSolution:
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
    rhs_ld = system.rhs.astype(np.longdouble)
    slab_ld = np.empty((min(_SLAB, system.size), system.size), np.longdouble)

    def true_residual(vec):
        # one slab of rows at a time, copied into one extended buffer, so
        # that no extended copy of the whole matrix is held; numpy's
        # longdouble dot adds each row in index order, as @ does
        vec_ld = vec.astype(np.longdouble)
        out = np.empty(len(vec))
        for start in range(0, len(vec), _SLAB):
            rows = slice(start, start + _SLAB)
            block = slab_ld[:len(rhs_ld[rows])]
            block[...] = system.matrix[rows]
            out[rows] = rhs_ld[rows] - np.dot(block, vec_ld)
        return out

    rhs_norm = float(np.linalg.norm(system.rhs))
    coeffs = cho_solve(factor, system.rhs, check_finite=False)
    residual = true_residual(coeffs)
    res_norm = float(np.linalg.norm(residual))
    for _ in range(4):
        if rhs_norm == 0.0 or res_norm <= _REFINE_TARGET * rhs_norm:
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


def _slabs(row_sets, pointset: LevelPointSet) -> list:
    """Point slabs of ``row_sets`` -- (points, row labels) in output order,
    each label's rows after the previous label's -- against the centres of
    ``pointset``.

    A slab has the rows of the largest multiple of _SLAB, at least _SLAB,
    whose block against the widest centre set holds at most _SLAB_ENTRIES
    entries.  Slab k holds points k*rows up to (k+1)*rows of every set that
    has them, as (points, [(row label, first output row)]).  Every slab
    starts at a multiple of _SLAB, and `_apply_rows` hands BLAS one block of
    _SLAB rows at a time.  BLAS sums a row in an order that depends on the
    row's place in its block, so a point's values do not depend on which
    labels are requested with it, nor on the slab size.
    """
    width = max(pointset.n_interior, pointset.n_boundary, 1)
    size = _SLAB * max(1, _SLAB_ENTRIES // (_SLAB * width))
    slabs, r0 = [], 0
    for pts, labels in row_sets:
        for k, start in enumerate(range(0, len(pts), size)):
            if k == len(slabs):
                slabs.append([])
            slabs[k].append((pts[start:start + size],
                             [(row, r0 + i * len(pts) + start) for i, row in enumerate(labels)]))
        r0 += len(labels) * len(pts)
    return slabs


# Lattice tables.  On a dyadic lattice of step h = 2^-k the difference of
# two lattice coordinates is exact, so an entry of a block whose rows and
# columns all lie on one lattice depends only on the integer offset between
# its two points, and it equals, bit for bit, the entry of that offset
# against the origin.  Such a block is gathered from one `kernel_block` call
# over every offset between the points, if that table is no larger than the
# block.  The points span a square box of n lattice lines per axis, so the
# table holds (2n - 1)^2 offsets: 65^2 for a level-4 system, 33^2 for a
# coarser level evaluated at the level-3 centres.

# the finest step tried, 2^-52, the spacing of the doubles in [1, 2); only
# a box of zero span leaves the step unbounded by the table size
_FINEST = 52


def _on_lattice(points, step: float) -> bool:
    """Whether every coordinate x is a multiple of ``step`` (a power of 2):
    round(x / step) * step == x, exactly (`np.rint` is `np.round` to 0
    decimals, and with `count_nonzero` half the cost on a query batch)."""
    return not np.count_nonzero(np.rint(points / step) * step != points)


def _finest_step(span: float, size: int):
    """The exponent k (0 <= k <= _FINEST) of the finest step 2^-k whose table
    for points spanning ``span`` per axis, (2 span 2^k + 1)^2 offsets, holds
    at most ``size`` entries; None if not even step 1 fits."""
    room = (math.sqrt(size) - 1) / 2  # the largest span in steps that fits
    if span == 0:
        return _FINEST
    if not span <= room:  # also a nan span
        return None
    return min(math.frexp(room / span)[1] - 1, _FINEST)


def _lattice(rows, cols):
    """(step, lo, n) of the coarsest lattice holding every coordinate of rows
    and cols, lo being the least coordinate and n the lattice lines across
    the box; None unless its table is no larger than the rows x cols block."""
    size = len(rows) * len(cols)
    if not size:
        return None
    lo = float(min(rows.min(), cols.min()))
    hi = float(max(rows.max(), cols.max()))
    k = _finest_step(hi - lo, size)
    if k is None or not (_on_lattice(rows, 2.0 ** -k) and _on_lattice(cols, 2.0 ** -k)):
        return None
    while k and _on_lattice(rows, 2.0 ** (1 - k)) and _on_lattice(cols, 2.0 ** (1 - k)):
        k -= 1
    step = 2.0 ** -k
    return step, lo, round((hi - lo) / step) + 1


def _lattice_index(points, lattice) -> np.ndarray:
    """Flat index i (2n - 1) + j of each point at lattice position (i, j) of
    the box; index differences are flat offsets into the table."""
    step, lo, n = lattice
    ij = ((points - lo) / step).astype(np.intp)  # exact: integral values
    return ij[:, 0] * (2 * n - 1) + ij[:, 1]


def _group_lattices(rows, centre_sets) -> list:
    """`_lattice` of rows against each set of centres, in order.

    The rows are tested first, at the finest step that their own box allows
    in the widest block: an off-lattice query batch fails there, and so at
    every coarser step, by one test before the centres are read.
    """
    size = len(rows) * max(len(cpts) for cpts in centre_sets)
    k = _finest_step(float(rows.max() - rows.min()), size) if size else None
    if k is None or not _on_lattice(rows, 2.0 ** -k):
        return [None] * len(centre_sets)
    return [_lattice(rows, cpts) for cpts in centre_sets]


def _tables(kernel: StokesKernelConfig, row_sets, pointset: LevelPointSet) -> dict:
    """{(row label, column label): (table, lattice, cidx)} for each pair of
    this call whose rows and columns share a lattice with a table no larger
    than their block.  The labels of one row set and one centre set read one
    displacement set of every offset against the origin, one `kernel_block`
    call per pair, and share the lattice and cidx: a row point of lattice
    index a meets column point j at table entry a - cidx[j].  The set goes
    when the next one is built, or with the call."""
    origin = np.zeros((1, 2))
    groups = _groups(pointset)
    tables = {}
    for pts, rows in row_sets:
        lattices = _group_lattices(pts, [cpts for cpts, _, _ in groups])
        for (cpts, _, cols), lattice in zip(groups, lattices):
            if lattice is None:
                continue
            step, _, n = lattice
            ticks = np.arange(1 - n, n) * step
            offsets = np.column_stack([np.repeat(ticks, len(ticks)),
                                       np.tile(ticks, len(ticks))])
            shared = displacements(kernel, offsets, origin)
            # the offset (0, 0) sits at the table's centre, entry 2n (n - 1)
            cidx = _lattice_index(cpts, lattice) - 2 * n * (n - 1)
            for pair in itertools.product(rows, cols):
                table = kernel_block(kernel, *pair, shared, origin)
                tables[pair] = (table.ravel(), lattice, cidx)
    return tables


def _slab_blocks(kernel: StokesKernelConfig, slab, pointset: LevelPointSet, tables, pool):
    """Kernel blocks of one slab's row functionals against this level's
    columns: yields (row slice, column slice, block), each label's column
    groups in system order.  The blocks of one row point set against one
    centre set are either all gathered from the call's tables, through one
    index, or all read one displacement set, which is dropped before the
    next centre set's blocks.  Block-sized arrays come from ``pool`` (a
    `BufferPool`, or `FRESH`).  Callers drop each block before asking for
    the next."""
    for pts, rows in slab:
        c0 = 0
        for cpts, _, cols in _groups(pointset):
            # a row set has tables for every column of a centre set or none
            gathered = tables.get((rows[0][0], cols[0]))
            shared = None if gathered else displacements(kernel, pts, cpts, pool)
            if gathered:
                index = np.subtract(_lattice_index(pts, gathered[1])[:, None], gathered[2],
                                    out=pool.empty((len(pts), len(cpts)), np.intp))
            for (row, r0), (j, col) in itertools.product(rows, enumerate(cols)):
                # the index is in range: mode "clip" skips the check (and
                # the buffer) of mode "raise"
                block = (np.take(tables[row, col][0], index, mode="clip",
                                 out=pool.empty(index.shape))
                         if gathered else kernel_block(kernel, row, col, shared, cpts))
                start = c0 + j * len(cpts)
                yield slice(r0, r0 + len(pts)), slice(start, start + len(cpts)), block
                del block
            c0 += len(cols) * len(cpts)


def _run_slabs(task, slabs) -> None:
    """task(slab, pool) for every slab, pool being the `BufferPool` of the
    worker that runs it, or `FRESH` on a call with one slab; the slabs write
    disjoint output rows."""
    if len(slabs) == 1:
        task(slabs[0], FRESH)
        return
    local = threading.local()

    def run(slab):
        if not hasattr(local, "pool"):
            local.pool = BufferPool()
        task(slab, local.pool)

    with ThreadPoolExecutor(_WORKERS) as executor:
        list(executor.map(run, slabs))  # raises the first failed slab's error


def _query_points(x) -> np.ndarray:
    """x as an (n, 2) batch.  Raises ValueError unless x is one real, finite
    point (2,) or a real, finite (n, 2) batch: a cast to float would drop
    the imaginary part of a complex point."""
    if np.iscomplexobj(x):
        raise ValueError("query points must be real")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 2 or not np.isfinite(x).all():
        raise ValueError("query points must be finite, of shape (2,) or (n, 2)")
    return np.atleast_2d(x)


def _apply_rows(solution: LevelSolution, labels, x) -> np.ndarray:
    """Stack of (row functional applied to the approximant) over x.

    Returns shape (len(x), len(labels)); the approximant is the coefficient-
    weighted sum of the basis columns of this level, added one column group
    at a time in system order.  Raises ValueError unless x is one real, finite
    point (2,) or a real, finite (n, 2) batch.
    """
    x = _query_points(x)
    out = np.zeros(len(labels) * len(x))
    coefficients = solution.coefficients

    row_sets = [(x, labels)]
    tables = _tables(solution.kernel, row_sets, solution.pointset)

    def add(slab, pool):
        for rows, cols, block in _slab_blocks(solution.kernel, slab,
                                              solution.pointset, tables, pool):
            # BLAS sees the slab's block _SLAB rows at a time
            dest = out[rows]
            for start in range(0, len(block), _SLAB):
                dest[start:start + _SLAB] += block[start:start + _SLAB] @ coefficients[cols]
            del block

    _run_slabs(add, _slabs(row_sets, solution.pointset))
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
