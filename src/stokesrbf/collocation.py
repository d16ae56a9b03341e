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
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .geometry import LevelPointSet, point_batch, real_finite
from .radial import FRESH, BufferPool, Columns, Displacements, swap_index
from .stokes_kernel import DIRICHLET, PDE, StokesKernelConfig
from .stokes_kernel import columns as centre_columns
from .stokes_kernel import evaluator_keys, kernel_block, vanishes

__all__ = [
    "NotPositiveDefinite",
    "CollocationSystem",
    "LevelSolution",
    "assemble",
    "solve",
    "evaluate",
    "evaluate_fields",
    "evaluate_levels",
    "write_matrix",
]

# Rows per block of `block @ coefficients`, the unit of a slab, and the
# side of a refinement tile in `solve` (a level-4 residual took ~10 % longer
# with 64 x 64 tiles).  A slab is the multiple of _SLAB rows that holds
# about _SLAB_ENTRIES entries against the call's widest centre set
# (`_CallPlan`): 128 rows against the 1089 level-4 interior centres, 384 at
# level 3, 1536 at level 2 and 5120 at level 1.  Its temporaries are then
# about 1 MB each, so the many passes of one kernel block stay in cache;
# with 1024-row slabs (8.7 MB temporaries) evaluating a level-4 model on
# the 100^2 grid took ~1.5 times as long, and with 128-row slabs against
# the 25 to 289 centres of levels 1-3 the per-slab Python work took ~40 %
# of the grid time for 29 % of its entries (2-core x86_64).
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
    """Symmetric collocation system A alpha = rhs for one level.

    `assemble` stores ``matrix`` column-major and read-only, with its lattice
    tables, for `solve` to factorize in place; it is A when `solve` is done.
    Raises ValueError unless ``matrix`` is (n, n) and ``rhs`` (n,), n being
    the point set's `n_functionals`."""

    matrix: np.ndarray
    rhs: np.ndarray
    pointset: LevelPointSet
    kernel: StokesKernelConfig
    # (weak reference to the matrix that `assemble` made, its tables)
    _lattice_tables: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.pointset.n_functionals
        if np.shape(self.matrix) != (n, n) or np.shape(self.rhs) != (n,):
            raise ValueError(f"need a {n} x {n} matrix and {n} right-hand sides, not "
                             f"{np.shape(self.matrix)} and {np.shape(self.rhs)}")

    @property
    def size(self) -> int:
        return len(self.rhs)


@dataclass
class LevelSolution:
    """Solved coefficients for one level, evaluable through this module.

    Raises ValueError unless the coefficients are a vector (n,) of
    `geometry.real_finite` values, n being the point set's
    `n_functionals`; they are kept as float64.  `LevelPointSet` checks the
    centres."""

    coefficients: np.ndarray
    pointset: LevelPointSet
    kernel: StokesKernelConfig
    solve_residual: float = float("nan")  # nan: not solved here (a loaded level)

    def __post_init__(self):
        # an evaluation skips the blocks that vanish by construction, which
        # keeps every bit only while these are finite: 0 * inf would be nan
        self.coefficients = real_finite(self.coefficients, "coefficients")
        n = self.pointset.n_functionals
        if self.coefficients.shape != (n,):
            raise ValueError(f"need a vector of {n} coefficients, not of shape "
                             f"{self.coefficients.shape}")


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
    evaluators closing over the previously solved levels.  Values that are
    not `geometry.real_finite` or not of that shape raise ValueError.  The
    matrix is column-major, the layout that LAPACK factorizes in place
    (`solve`), and read-only, so that no edit leaves it apart from its
    tables.
    """
    total = pointset.n_functionals
    # zeros: a pair whose kernel vanishes gets no block (`_slab_blocks`)
    matrix = np.zeros((total, total), order="F")
    row_sets = [(pts, rows) for pts, rows, _ in _groups(pointset)]
    plan = _CallPlan([(kernel, pointset)], row_sets)
    # the first row of each row label in the system
    starts = dict(zip([row for _, rows in row_sets for row in rows], itertools.accumulate(
        [len(pts) for pts, rows in row_sets for _ in rows], initial=0)))

    def fill(slab, pool):
        for _, row, at, cols, block in _slab_blocks(plan, slab, pool):
            # matrix[rows, cols] = block, in numpy's faster loop order here
            matrix.T[cols, starts[row] + at.start:starts[row] + at.stop] = block.T
            del block

    _run_slabs(fill, plan.slabs)
    matrix.flags.writeable = False
    values = []
    for data, points, name in ((f_data, pointset.interior, "f_data"),
                               (g_data, pointset.boundary, "g_data")):
        vals = real_finite(data(points), f"{name} values")
        if vals.shape != (len(points), 2):
            raise ValueError(f"{name} must give ({len(points)}, 2) values, not {vals.shape}")
        values.append(vals)
    rhs = np.concatenate([vals.T.ravel() for vals in values])
    system = CollocationSystem(matrix=matrix, rhs=rhs, pointset=pointset, kernel=kernel)
    (own,) = plan.tables
    if len(own) == 16 and len({entry[1] for entry in own.values()}) == 1:
        system._lattice_tables = (weakref.ref(matrix), own)  # 4 x 4 labels, one lattice
    return system


# iterative refinement stops once ||rhs - A alpha|| <= _REFINE_TARGET * ||rhs||
_REFINE_TARGET = 1e-10


def solve(system: CollocationSystem) -> LevelSolution:
    """Cholesky solve with a few iterative-refinement sweeps.

    Residuals are accumulated in extended precision: at the finer levels the
    right-hand side is itself a small residual while the coefficient vector
    is large, so double-precision residuals would stall above the target.
    Raises NotPositiveDefinite if the factorization fails; that typically
    means the scale is far too large for the point density.

    The matrix that `assemble` made is factorized in place, so the solve
    holds one dense copy of A: the residuals gather A from extended copies
    of its lattice tables, and the lower triangle and the diagonal, all that
    the factor overwrites, are gathered again when the solve returns or
    raises.  Any other matrix (built by hand, replaced, permuted, off the
    lattice; `dataclasses.replace` drops the tables) is factorized in a
    copy, which the residuals read.
    """
    matrix, (owner, tables) = system.matrix, system._lattice_tables or (None, None)
    if owner is None or owner() is not matrix:
        return _factor_and_refine(
            system, lambda out, rows, cols: np.copyto(out, matrix[rows, cols]), overwrite=False)
    matrix.flags.writeable = True
    try:
        return _factor_and_refine(system, _table_tile(system.pointset, tables), overwrite=True)
    finally:
        _refill_lower(matrix, system.pointset, tables)
        matrix.flags.writeable = False


def _table_tile(pointset: LevelPointSet, tables, dtype=np.longdouble):
    """tile(out, rows, cols) writing A[rows, cols] into ``out``: with copies
    of the tables as ``dtype``, on one lattice, end to end in system order,
    A[i, j] is entry rix[i] - cix[j], gathered through a transposed index."""
    groups = _groups(pointset)
    row_labels = [(row, pts) for pts, labels, _ in groups for row in labels]
    col_labels = [col for _, _, labels in groups for col in labels]
    (table, lattice, _), *_ = tables.values()
    flat = np.concatenate([tables[row, col][0] for (row, _), col
                           in itertools.product(row_labels, col_labels)], dtype=dtype)
    rix = np.concatenate([a * len(col_labels) * len(table) + _lattice_index(pts, lattice)
                          for a, (_, pts) in enumerate(row_labels)])
    cix = np.concatenate([tables[row_labels[0][0], col][2] - b * len(table)
                          for b, col in enumerate(col_labels)])
    index = np.empty((_SLAB, _SLAB), np.intp)

    def tile(out, rows, cols):
        transposed = np.subtract(rix[rows], cix[cols, None],
                                 out=index[:cols.stop - cols.start, :rows.stop - rows.start])
        np.take(flat, transposed, mode="clip", out=out.T)

    return tile


def _refill_lower(matrix, pointset: LevelPointSet, tables) -> None:
    """Gathers A from its tables into the lower triangle and the diagonal of
    ``matrix``, all that cho_factor(lower=True) writes, one _SLAB x _SLAB
    tile at a time: the tiles that reach the diagonal or lie below it, so
    that the few entries above the diagonal in a diagonal tile get their
    own values again, and the strict upper triangle beyond is left as it
    is."""
    tile, n = _table_tile(pointset, tables, float), len(matrix)
    for start in range(0, n, _SLAB):
        cols = slice(start, min(start + _SLAB, n))
        for first in range(start, n, _SLAB):
            rows = slice(first, min(first + _SLAB, n))
            tile(matrix[rows, cols], rows, cols)


def _factor_and_refine(system: CollocationSystem, tile, overwrite: bool) -> LevelSolution:
    """`solve` after cho_factor(overwrite_a=``overwrite``), reading A by ``tile``."""
    try:
        factor = cho_factor(system.matrix, lower=True, overwrite_a=overwrite, check_finite=False)
    except LinAlgError as exc:
        match = re.search(r"(\d+)", str(exc))
        pivot = int(match.group(1)) if match else None
        raise NotPositiveDefinite(str(exc), pivot=pivot) from exc
    tiles = [slice(start, min(start + _SLAB, system.size)) for start in range(0, system.size, _SLAB)]
    rhs_ld = system.rhs.astype(np.longdouble)
    # a tile of A behind a column that carries each row's partial sum
    tile_ld = np.empty((_SLAB, _SLAB + 1), np.longdouble, order="F")

    def true_residual(vec):
        # one _SLAB x _SLAB tile at a time, written into one extended buffer,
        # so that no extended copy of the whole matrix is held.  numpy's
        # longdouble dot adds a row's terms in index order, and the carried
        # sum enters first, times an exact 1: each row is summed in index
        # order as one dot over all its columns, as @ does
        vec_ld = vec.astype(np.longdouble)
        x_tiles = [np.concatenate([[1], vec_ld[cols]]) for cols in tiles]
        out = np.empty(len(vec))
        for rows in tiles:
            total = np.zeros(rows.stop - rows.start, np.longdouble)
            for cols, x in zip(tiles, x_tiles):
                block = tile_ld[:len(total), :len(x)]
                block[:, 0] = total
                tile(block[:, 1:], rows, cols)
                total = np.dot(block, x)
            out[rows] = rhs_ld[rows] - total
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
    every coarser step, by one test before the centres are read, however
    many levels the centre sets come from.
    """
    size = len(rows) * max((len(cpts) for cpts in centre_sets), default=0)
    k = _finest_step(float(rows.max() - rows.min()), size) if size else None
    if k is None or not _on_lattice(rows, 2.0 ** -k):
        return [None] * len(centre_sets)
    return [_lattice(rows, cpts) for cpts in centre_sets]


def _tables(levels, row_sets) -> list:
    """For each of ``levels``, (kernel, pointset) pairs: {(row label, column
    label): (table, lattice, cidx)} for each pair of this call whose rows
    and the level's columns share a lattice with a table no larger than
    their block.  The labels of one row set and one centre set read one
    displacement set of every offset against the origin, one `kernel_block`
    call per pair, and share the lattice and cidx: a row point of lattice
    index a meets column point j at table entry a - cidx[j].  Every pair of
    a level on lattices of one step and size reads one set of those
    offsets, which goes before the next level's, with the power tables of
    every pair of the call."""
    origin = np.zeros((1, 2))
    groups = [_groups(pointset) for _, pointset in levels]
    # per row set, the lattices of its rows and each centre set, level by level
    lattices = [iter(_group_lattices(pts, [cpts for level in groups for cpts, _, _ in level]))
                for pts, _ in row_sets]
    tables = []
    for (kernel, _), level in zip(levels, groups):
        level_tables, offset_sets = {}, {}  # (step, n): the set of those offsets
        for (_, rows), row_lattices in zip(row_sets, lattices):
            for (cpts, _, cols), lattice in zip(level, row_lattices):
                if lattice is None:
                    continue
                step, _, n = lattice
                shared = offset_sets.get((step, n))
                if shared is None:
                    ticks = np.arange(1 - n, n) * step
                    offsets = np.column_stack([np.repeat(ticks, len(ticks)),
                                               np.tile(ticks, len(ticks))])
                    columns = centre_columns(kernel, origin)
                    keys = evaluator_keys(kernel, [(row, col) for _, labels in row_sets
                                                   for row in labels for _, _, cols in level
                                                   for col in cols])
                    shared = offset_sets[step, n] = Displacements(
                        offsets, columns, tables=columns.power_tables(offsets, keys, len(offsets)))
                # the offset (0, 0) sits at the table's centre, entry 2n (n - 1)
                cidx = _lattice_index(cpts, lattice) - 2 * n * (n - 1)
                for pair in itertools.product(rows, cols):
                    table = kernel_block(kernel, *pair, shared, origin)
                    level_tables[pair] = (table.ravel(), lattice, cidx)
        tables.append(level_tables)
    return tables


class _SharedSet(NamedTuple):
    """The displacement set that a row set reads against the centres of one
    kind of the levels of the same profile objects without lattice tables."""

    levels: tuple  # the level indices
    spans: tuple  # per level, its columns of each column label
    parts: tuple  # per level, its columns in the set's blocks
    kernels: object  # per level, its kernel; of one level, its kernel alone
    centres: object  # per level, its centres; of one level, its centres alone
    columns: Columns  # the set's columns (`stokes_kernel.columns`)
    pairs: list  # the first level's `_pairs`, which every level shares
    keys: frozenset  # their evaluators' keys (`stokes_kernel.evaluator_keys`)


class _ColumnPlan:
    """All that the columns of a call depend on alone: its ``levels``,
    (kernel, pointset) pairs.  It keeps the `column_sets` of each row
    labels and the `Columns` of each displacement set -- concatenated
    centres, scale vectors, swap index and distinct coordinates, which every
    set against them reads -- each made on its first use; two threads may
    both make one, and make equal ones.  The centres of a
    point set are read-only, so the same objects mean the same columns."""

    def __init__(self, levels):
        self.levels = tuple(levels)
        self._made: dict = {}

    def _kept(self, key, make):
        if key not in self._made:
            self._made[key] = make()
        return self._made[key]

    def column_sets(self, labels: tuple, tables) -> list:
        """How the row ``labels`` of one row set meet the centres of each
        kind (0 interior, 1 boundary) of each level, with ``tables`` the
        call's lattice tables of each level, when some pair does not
        vanish: (gathered, shared) per kind.  gathered holds (level index,
        column span per column label, centres, column labels, pairs) of
        each level with tables for the rows; shared the `_SharedSet` of each
        group of levels of the same profile objects without.  Pairs are
        `_pairs`."""
        out = []
        for kind, first in enumerate(((PDE, 1), (DIRICHLET, 1))):
            # a row set has tables for every column of a centre set or none
            tabled = tuple(j for j, level in enumerate(tables) if (labels[0], first) in level)
            out.append(self._kept(("sets", labels, kind, tabled),
                                  lambda: self._sets(labels, kind, tabled)))
        return out

    def _sets(self, labels, kind, tabled) -> tuple:
        gathered, shared = [], {}
        for j, (kernel, pointset) in enumerate(self.levels):
            cpts, _, cols = _groups(pointset)[kind]
            c0 = kind * 2 * pointset.n_interior
            # the level's columns of each column label
            spans = [slice(c0 + k * len(cpts), c0 + (k + 1) * len(cpts)) for k in range(len(cols))]
            pairs = _pairs(kernel, labels, cols)
            if not pairs:
                continue
            if j in tabled:
                gathered.append((j, spans, cpts, cols, pairs))
            else:  # levels whose kernels hold the same profile objects
                profiles = (id(kernel.psi_vel), id(kernel.psi_pre))
                shared.setdefault(profiles, []).append((j, spans, kernel, cpts, pairs))
        return gathered, [self._shared(kind, *zip(*of_set)) for of_set in shared.values()]

    def _shared(self, kind, levels, spans, kernels, centres, pairs) -> _SharedSet:
        ends = itertools.accumulate(len(cpts) for cpts in centres)
        parts = tuple(slice(end - len(cpts), end) for end, cpts in zip(ends, centres))
        set_columns = self._kept(("columns", kind, levels),
                                 lambda: centre_columns(kernels, centres))
        keys = evaluator_keys(kernels[0], [(row, col) for row, _, col in pairs[0]])
        if len(levels) == 1:
            (kernels,), (centres,) = kernels, centres
        return _SharedSet(levels, spans, parts, kernels, centres, set_columns, pairs[0], keys)


# the plan of the last call, which a call of other levels replaces with
# its own: a thread keeps the plan that it took, whatever others take
_last_plan = None


def _column_plan(levels) -> _ColumnPlan:
    """The `_ColumnPlan` of ``levels``: the last call's if it was made for
    the same kernel and point set objects, else a new one."""
    global _last_plan
    plan = _last_plan
    if plan is None or len(plan.levels) != len(levels) or any(
            a is not b or p is not q for (a, p), (b, q) in zip(plan.levels, levels)):
        plan = _last_plan = _ColumnPlan(levels)
    return plan


class _CallPlan:
    """All that the slabs of one `assemble` or `_apply_rows` call read, made
    before they run, for ``levels``, (kernel, pointset) pairs, and
    ``row_sets``, (points, row labels) in output order:

    - ``tables``: the lattice tables of each level (`_tables`);
    - ``sets``: per row set, the column sets of its labels
      (`_ColumnPlan.column_sets`);
    - ``order`` and ``pairs``: a call of one row set closed under
      (x, y) -> (y, x), such as a tensor grid, lays its points out in
      ``order`` (their positions), which pairs each point (u, v) with
      (v, u), ``pairs`` times; else ``order`` is None (see `points`);
    - ``slabs``: slab k holds rows k*size up to (k+1)*size of the layout of
      every row set that has them, as (row set index, rows, mirror), rows
      being a slice and mirror d, from which on the slab's rows are the
      mirrors of its first ones (`radial.Displacements`), or None;
    - ``powers``: the power tables (`Columns.power_tables`) of each row
      set's points against each displacement set's `Columns`, by (row set
      index, columns), for blocks of a slab's rows, from which every slab's
      set takes its tables: on more than one slab, one that lacks a table
      for an axis builds its own (`_slab_blocks`).

    A slab has the largest multiple of _SLAB rows, at least _SLAB, whose
    block against the widest centre kind of the levels has at most
    _SLAB_ENTRIES entries.  Every slab starts at a multiple of _SLAB, and
    `_apply_rows` hands BLAS one block of _SLAB rows at a time.  BLAS sums
    a row in an order that depends on the row's place in its block, though
    not in a block of a multiple of 4 rows, so a point's values do not
    depend on which labels are requested with it, on the slab size, nor on
    the layout.

    Pairs are made when the points have a pair and a multiple of 4 points
    and are closed under the swap, and so are the columns of each
    displacement set (`Columns.swap`), of which there is one.  The slabs
    then hold direct rows, then their mirrors, until the pairs run out; one
    holds the last pairs, with the points that are their own mirror that
    fit before their mirrors; then the rest of those points.  Every slab
    but the last is full, so each block that BLAS sees has a multiple of 4
    rows."""

    def __init__(self, levels, row_sets):
        self.row_sets = row_sets
        self.tables = _tables(levels, row_sets)
        columns = _column_plan(levels)
        self.sets = [columns.column_sets(tuple(labels), self.tables) for _, labels in row_sets]
        # (row set index, `_SharedSet`) of each displacement set of the slabs
        shared = [(s, of_set) for s, sets in enumerate(self.sets)
                  for _, of_sets in sets for of_set in of_sets]
        width = max(sum(pointset.n_interior for _, pointset in levels),
                    sum(pointset.n_boundary for _, pointset in levels), 1)
        size = _SLAB * max(1, _SLAB_ENTRIES // (_SLAB * width))
        self.order, self.pairs = (None, 0) if len(row_sets) > 1 else self._layout(
            size // 2, [of_set.columns for _, of_set in shared])
        self.slabs = [[] for _ in range(0, max(len(pts) for pts, _ in row_sets), size)]
        for s, (pts, _) in enumerate(row_sets):
            for slab, start in zip(self.slabs, range(0, len(pts), size)):
                n = min(size, len(pts) - start)
                # the slabs before hold start // 2 pairs or fewer
                mirrors = min(max(self.pairs - start // 2, 0), n // 2)
                slab.append((s, slice(start, start + n), n - mirrors if mirrors else None))
        self.powers = {(s, of_set.columns): of_set.columns.power_tables(
            row_sets[s][0], of_set.keys, min(size, len(row_sets[s][0]))) for s, of_set in shared}

    def _layout(self, half: int, shared) -> tuple:
        """(order, pairs) of the one row set, for slabs of ``half`` pairs,
        against the `Columns` of each of its displacement sets, ``shared``."""
        ((x, _),) = self.row_sets
        swap = None if len(x) % 4 else swap_index(x)
        if swap is None:
            return None, 0
        direct = np.flatnonzero(swap > np.arange(len(x)))
        if not (shared and len(direct)) or any(columns.swap() is None for columns in shared):
            return None, 0
        own, mirror = np.flatnonzero(swap == np.arange(len(x))), swap[direct]
        full = len(direct) - len(direct) % half  # the pairs in slabs of their own
        room = 2 * (half - len(direct) + full)  # the rows that the last pairs leave
        # int32: alive with the outputs, at the peak of a grid evaluation
        order = np.concatenate([np.hstack([a[:full].reshape(-1, half) for a in (direct, mirror)]),
                                direct[full:], own[:room], mirror[full:], own[room:]],
                               axis=None, dtype=np.int32)
        return order, len(direct)

    def points(self, rows: slice):
        """The positions of the layout's ``rows`` in their row set."""
        return rows if self.order is None else self.order[rows]


def _slab_blocks(plan: _CallPlan, slab, pool):
    """Kernel blocks of one slab of ``plan`` against the columns of each
    level of the call: yields (level index, row label, rows, column slice,
    block), rows being the slab's rows of the layout (`_CallPlan.points`),
    each level's column groups, per row label, in system order.  The blocks
    of one row point set against one centre kind of a level are either all
    gathered from that level's tables, through one index, or all read one
    displacement set: the set of every level of the same profiles without
    tables for that kind, each run of columns at its own level's scale,
    which is dropped before the next kind's blocks.  Each level's block is
    then its column view of that set's block.  A pair whose kernel vanishes
    (`stokes_kernel.vanishes`: a pressure row against a Dirichlet column)
    yields no block: its entries are zero.  Block-sized arrays come from
    ``pool`` (a `BufferPool`, or `FRESH`).  Callers drop each block before
    asking for the next."""
    for s, at, mirror in slab:
        points, labels = plan.row_sets[s]
        positions = plan.points(at)
        pts = points[positions]
        for gathered, shared in plan.sets[s]:
            for j, spans, cpts, cols, pairs in gathered:
                _, lattice, cidx = plan.tables[j][labels[0], cols[0]]
                index = np.subtract(_lattice_index(pts, lattice)[:, None], cidx,
                                    out=pool.empty((len(pts), len(cpts)), np.intp))
                for row, k, col in pairs:
                    # the index is in range: mode "clip" skips the check (and
                    # the buffer) of mode "raise"
                    block = np.take(plan.tables[j][row, col][0], index, mode="clip",
                                    out=pool.empty(index.shape))
                    yield j, row, at, spans[k], block
                    del block
            for of_set in shared:
                tables = [table and (table[0], table[1][positions], table[2])
                          for table in plan.powers[s, of_set.columns]]
                if None in tables and len(plan.slabs) > 1:  # a call table too large for a slab
                    tables = of_set.columns.power_tables(pts, of_set.keys, len(pts))
                shared_set = Displacements(pts, of_set.columns, pool, mirror, tables)
                for row, k, col in of_set.pairs:
                    block = kernel_block(of_set.kernels, row, col, shared_set, of_set.centres)
                    for j, level_spans, part in zip(of_set.levels, of_set.spans, of_set.parts):
                        yield j, row, at, level_spans[k], block[:, part]
                    del block
                del shared_set


def _pairs(kernel, labels, cols) -> list:
    """(row label, index, column label) of each pair of row ``labels`` and
    ``cols`` whose kernel does not vanish, rows first."""
    return [(row, k, col) for row in labels for k, col in enumerate(cols)
            if not vanishes(kernel, row, col)]


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


def _apply_rows(levels, requests, x) -> list:
    """For each of ``requests``, lists of row labels, the stack over
    ``levels`` (LevelSolutions) of the stack of (row functional applied to
    the level's approximant) over x: shape (len(levels), len(x), len(labels)).

    The labels of all requests form one row set, each label once, so that
    a slab reads one displacement set per centre kind for all of them.  A
    level's approximant is the coefficient-weighted sum of its basis
    columns, added to its own accumulator one column group at a time in
    system order, so that each level and label holds the bits of a call
    for it alone.  Raises ValueError unless x is a `geometry.point_batch`,
    which is checked here once for all slabs.
    """
    x = point_batch(x, "query points")
    labels = list(dict.fromkeys(itertools.chain.from_iterable(requests)))
    # before the outputs: the lattice tests and the layout take batch-sized temporaries
    plan = _CallPlan([(sol.kernel, sol.pointset) for sol in levels], [(x, labels)])
    outs = [np.zeros((len(levels), len(x), len(request))) for request in requests]
    # (output, column) of each label in every request that has it
    dests = {label: [(out, k) for out, request in zip(outs, requests)
                     for k, other in enumerate(request) if other == label] for label in labels}

    def add(slab, pool):
        for j, row, at, cols, block in _slab_blocks(plan, slab, pool):
            coefficients = levels[j].coefficients[cols]
            # BLAS sees the slab's block _SLAB rows at a time
            for start in range(0, len(block), _SLAB):
                values = block[start:start + _SLAB] @ coefficients
                points = plan.points(slice(at.start + start, at.start + start + len(values)))
                for out, k in dests[row]:
                    out[j, points, k] += values
            del block

    _run_slabs(add, plan.slabs)
    return outs


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
    (vals,) = _apply_rows([solution], [_FIELD_ROWS["value"]], x)
    vals = vals[0]
    if np.ndim(x) == 1:
        return vals[0, :2], float(vals[0, 2])
    return vals[:, :2], vals[:, 2]


def _requests(request) -> tuple:
    """``request`` as a tuple of request names; raises ValueError unless it
    is a name of `_FIELD_ROWS` or a non-empty sequence of such names."""
    try:
        requests = (request,) if isinstance(request, str) else tuple(request)
    except TypeError:
        raise ValueError(f"unknown request {request!r}") from None
    if not requests:
        raise ValueError("no request")
    for name in requests:
        if not isinstance(name, str) or name not in _FIELD_ROWS:
            raise ValueError(f"unknown request {name!r}")
    return requests


def evaluate_levels(levels, x, request):
    """The ``request`` field (see `evaluate_fields`) of each of ``levels``
    at the points x, in one pass: shape (len(levels), n, k), or
    (len(levels), n) for "divergence", where a (2,) point counts as a batch
    of one.  ``request`` may also be a sequence of requests: a tuple of one
    such array per request is then returned.  Every level's field holds the
    bits of `evaluate_fields` of that level and request alone.

    The levels and requests share one displacement set per centre kind
    (interior, boundary), over the centres of every level that has no
    lattice table for x, each column at its own level's scale: for a small
    batch, the fixed cost of a set is then paid once and not once per
    level, and the values that several requests read are computed once.
    What depends on the levels alone -- which columns each label reads,
    the concatenated centres, scale vectors and distinct coordinates of
    each set -- is planned once for a run of calls on the same level
    objects (`_ColumnPlan`)."""
    requests = _requests(request)
    fields = tuple(vals[..., 0] if name == "divergence" else vals for name, vals in zip(
        requests, _apply_rows(levels, [_FIELD_ROWS[name] for name in requests], x)))
    return fields[0] if isinstance(request, str) else fields


def evaluate_fields(solution: LevelSolution, x, request):
    """Analytic fields of the approximant: velocity, momentum-operator image
    ("l-image"), velocity divergence, pressure gradient, or the (u1, u2, p)
    columns of `evaluate` ("value"); `evaluate_levels` of this one level,
    also for a sequence of requests, which returns one field per request."""
    fields = evaluate_levels([solution], x, request)
    one = (lambda vals: vals[0, 0]) if np.ndim(x) == 1 else (lambda vals: vals[0])
    return one(fields) if isinstance(request, str) else tuple(map(one, fields))


def write_matrix(matrix: np.ndarray, path) -> None:
    """Dump a matrix as row-major float64 with a 16-byte header of two
    little-endian uint64 dimensions.  Rows are copied and written _SLAB at a
    time, so that no second copy of the matrix is held."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "wb") as fh:
        fh.write(np.array(matrix.shape, dtype="<u8").tobytes())
        for start in range(0, len(matrix), _SLAB):
            fh.write(np.ascontiguousarray(matrix[start:start + _SLAB], dtype="<f8"))
