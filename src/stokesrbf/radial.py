"""Mixed partial derivatives of radial polynomial profiles in two dimensions.

Repeated application of the chain rule turns any partial derivative of
psi(||x||) into a finite sum of terms

    c * x1^a * x2^b * r^m,   m integer (possibly negative),

because d/dx_i acts on a term as  a*x1^(a-1)... + m*x1^(a+1)...*r^(m-2).
When enough leading odd coefficients of psi vanish (k of them for a
smoothness-k Wendland function), every term of a derivative of legal order
satisfies a + b + m >= 0.  Each term is then bounded by |c| r^(a+b+m) inside
the support, evaluation is stable down to r = 0, and the value at the origin
is exactly the lone constant term -- which is how the derivative identities
at coincident points are checked in exact rational arithmetic.

The coefficient algebra is exact; floats appear only in the compiled
evaluators.
"""

from __future__ import annotations

import itertools
import math
import mmap
import sys
import threading
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .wendland import NonPolynomialDivision, WendlandPolynomial

__all__ = [
    "BufferPool",
    "Columns",
    "Displacements",
    "FRESH",
    "PageArena",
    "RadialTermEvaluator",
    "mixed_partial",
    "mixed_partial_terms",
    "swap_index",
]

# term algebra: {(a, b, m): coefficient} for c * x1^a * x2^b * r^m
Terms = dict[tuple[int, int, int], Fraction]


def terms_from_profile(coeffs) -> Terms:
    return {(0, 0, i): Fraction(c) for i, c in enumerate(coeffs) if c != 0}


def _diff(terms: Terms, axis: int) -> Terms:
    # the lowered terms e x_i^(e-1) ... r^m and the raised m x_i^(e+1) ... r^(m-2),
    # e = a or b: each map is one to one, so only the two sums can meet
    da, db = (1, 0) if axis == 0 else (0, 1)
    lowered = {(a - da, b - db, m): e * c for (a, b, m), c in terms.items() if (e := (a, b)[axis])}
    raised = {(a + da, b + db, m - 2): m * c for (a, b, m), c in terms.items() if m}
    return combine((1, lowered), (1, raised))


def diff_x(terms: Terms) -> Terms:
    return _diff(terms, 0)


def diff_y(terms: Terms) -> Terms:
    return _diff(terms, 1)


def combine(*weighted: tuple) -> Terms:
    """Linear combination of term dicts; exact cancellation drops keys."""
    out: Terms = {}
    for w, terms in weighted:
        w = Fraction(w)
        if not w:
            continue
        for key, c in terms.items():
            acc = out.get(key, 0) + w * c
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
    return out


def laplacian(terms: Terms) -> Terms:
    return combine((1, diff_x(diff_x(terms))), (1, diff_y(diff_y(terms))))


@lru_cache(maxsize=None)
def _mixed_partial_cached(coeffs: tuple, nx: int, ny: int) -> tuple:
    terms = terms_from_profile(coeffs)
    for _ in range(nx):
        terms = diff_x(terms)
    for _ in range(ny):
        terms = diff_y(terms)
    return tuple(sorted((k, v) for k, v in terms.items()))


def mixed_partial_terms(profile: WendlandPolynomial, nx: int, ny: int) -> Terms:
    """Term dict of d^nx/dx1 d^ny/dx2 applied to profile(||x||)."""
    return dict(_mixed_partial_cached(profile.coeffs, nx, ny))


def _differences(a, b, scale, out=None):
    """(a[p] - b[q]) * scale for every p, q, into ``out`` if given: the one
    formula for a displacement component, shared by a set and its power
    tables."""
    out = np.subtract(a[:, None], b[None, :], out=out)
    out *= scale
    return out


def _distinct(*keys):
    """(an entry of each distinct tuple of keys, the index of each entry among
    them), float keys told apart by their bits, so that -0.0 and 0.0 stay
    two values.  The sort by the first key is stable: equal tuples are
    adjacent when the later keys come in runs, as a set's column scales do,
    and equal tuples that are not get entries of their own."""
    keys = [key.view(np.int64) for key in keys]
    order = np.argsort(keys[0], kind="stable")
    new = np.ones(len(order), bool)
    for key in keys:
        ordered = key[order]
        new[1:] &= ordered[1:] == ordered[:-1]
    np.logical_not(new[1:], out=new[1:])
    # each entry's place among them, counted in the buffer of the last key
    # (a batch-sized temporary less at the call's tables: `Columns.power_tables`)
    np.cumsum(new, out=ordered)
    ordered -= 1
    index = np.empty(len(order), np.intp)
    index[order] = ordered
    return order[new], index


def _idle_refs() -> int:
    """`sys.getrefcount` of an object that only a list and the loop variable
    reading it reference, read as `BufferPool.empty` reads its buffers: 3
    on CPython 3.11 (the list, the variable and the call's argument), but
    the count of a reference depends on the interpreter."""
    for obj in [object()]:
        return sys.getrefcount(obj)


_IDLE_REFS = _idle_refs()


_HUGE_PAGE = 2 << 20  # x86_64 and arm64 with 4 KB base pages
# The length of a map of `PageArena`, which holds every buffer of a call up
# to level 4: the pools of a level-4 assembly carve 4.3 MB, those of a 100^2
# grid evaluation 39-49 MB at levels 1-4 and 190 MB at level 5 (2 workers).
# Untouched pages cost no memory.
_MAP_BYTES = 64 << 20
_MADV_HUGEPAGE = getattr(mmap, "MADV_HUGEPAGE", None)  # Linux only


class PageArena:
    """The private anonymous maps that the `BufferPool`s of one call carve
    their buffers from, shared by its worker threads under a lock.

    Each map is aligned to 2 MB and advised MADV_HUGEPAGE, so that the
    kernel may back it by huge pages; it is a plain private map where
    madvise fails or is missing.  (A shared map, `mmap.mmap(-1, n)`, is
    shmem, which a kernel with shmem_enabled = never backs by 4 KB pages
    only.)  ``carve`` hands out the next whole pages of a map and opens a
    further map when one is used up.  A buffer keeps its map alive, so the
    maps go back to the system with the call's buffers.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._map = None
        self._free = self._end = 0  # the free part of the map

    def carve(self, size: int) -> np.ndarray:
        """A new uint8 buffer of at least ``size`` bytes, whose base is the map (`BufferPool`)."""
        size = -(-max(size, 1) // mmap.PAGESIZE) * mmap.PAGESIZE
        with self._lock:
            if self._end - self._free < size:
                self._open(max(size, _MAP_BYTES) + _HUGE_PAGE)
            start, self._free = self._free, self._free + size
            return np.frombuffer(self._map, np.uint8, size, start)

    def _open(self, length: int) -> None:
        self._map = mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        self._free = -np.frombuffer(self._map, np.uint8, 1).ctypes.data % _HUGE_PAGE
        self._end = length
        if _MADV_HUGEPAGE is not None:
            try:
                self._map.madvise(_MADV_HUGEPAGE)
            except OSError:  # EINVAL without transparent huge pages
                pass


class BufferPool:
    """Arrays that live for one call: those of the slabs that one worker
    thread computes.

    ``empty`` hands out a view of the first buffer that nothing else
    references -- no array or view of it is alive -- and that is large
    enough, and carves a buffer of the requested size from ``arena`` (a
    `PageArena`) when there is none.  A buffer's base must not be an
    ndarray: numpy points a view's base at the array that owns the memory,
    so buffers sliced from one array would look idle while in use.  The slabs of a call ask for arrays
    of the same few shapes, so their pages are faulted in once per call
    and worker, not once per array.

    The buffers are pages of the call's `PageArena`, on huge pages where
    the kernel allows, and go back to the system with the call.  Buffers
    from malloc stayed in the worker threads' arenas after the call: the
    peak of a 4-level run, at the level-4 solve, was 196 MB with them
    against 179 MB with maps (2-core x86_64, glibc).
    """

    def __init__(self, arena: PageArena):
        self._arena = arena
        self._buffers: list = []

    def empty(self, shape, dtype=float) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        for buf in self._buffers:
            # no array or view of it is alive: only the list and the loop
            # reference it
            if len(buf) >= size and sys.getrefcount(buf) == _IDLE_REFS:
                break
        else:
            buf = self._arena.carve(size)
            self._buffers.append(buf)
        return buf[:size].view(dtype).reshape(shape)


class _Fresh:
    """A pool that keeps no buffers: every array is newly allocated."""

    @staticmethod
    def empty(shape, dtype=float) -> np.ndarray:
        return np.empty(shape, dtype)


# the pool of a set made without one, and of a call with a single slab
FRESH = _Fresh()


def swap_index(points):
    """The index of (y, x) for each point (x, y), or None unless the points
    are closed under that swap, exactly.  The sorts are stable: the k-th
    copies of a point and of its mirror index each other."""
    lo, hi = points.min(axis=0, initial=np.inf), points.max(axis=0, initial=-np.inf)
    if lo[0] != lo[1] or hi[0] != hi[1]:
        return None  # fast: ~4 us for a query batch, half the time of sorting x and y
    by_xy, by_yx = np.lexsort(points.T[::-1]), np.lexsort(points.T)
    if not all(np.array_equal(points[by_xy, axis], points[by_yx, 1 - axis]) for axis in (0, 1)):
        return None
    swap = np.empty_like(by_xy)
    swap[by_yx] = by_xy
    return swap


class Columns:
    """The column points of displacement sets: runs of points (Q_k, 2), each
    at its own scale, with the values of the columns alone that every set
    against them reads -- their concatenation, each `per_column` vector,
    their `swap` index and, per axis, the distinct (coordinate, scale) pairs
    of the `power_tables` and their exponents per evaluator keys -- each
    computed on its first read and kept as long as the columns (made by two
    threads at once, it has the same bits either way), and not to be
    written.  The points are not copied: runs that are edited in place
    leave their columns stale.  Raises ValueError unless there is a point
    set and one scale per point set."""

    def __init__(self, points, scale):
        if np.ndim(scale) == 0:
            points, scale = [points], [scale]
        if not 0 < len(points) == len(scale):
            raise ValueError(f"need a point set and one scale per point set, "
                             f"not {len(points)} sets and {len(scale)} scales")
        self.runs = tuple(zip(points, scale))
        self.points = points[0] if len(points) == 1 else np.concatenate(points)
        self._values: dict = {}
        self.scale = self.per_column(tuple(scale))

    def per_column(self, values: tuple):
        """values[k] at every column of run k: values[0] itself when there is
        one run, else a vector."""
        if len(self.runs) == 1:
            return values[0]
        key = ("c", values)
        if key not in self._values:
            self._values[key] = np.repeat(values, [len(points) for points, _ in self.runs])
        return self._values[key]

    def swap(self):
        """The index of each column swapped, (x, y) -> (y, x), within its run
        (`swap_index`); None unless every run is closed under the swap."""
        if "s" not in self._values:
            swaps = [swap_index(points) for points, _ in self.runs]
            starts = itertools.accumulate((len(points) for points, _ in self.runs), initial=0)
            self._values["s"] = None if any(swap is None for swap in swaps) else np.concatenate(
                [swap + start for swap, start in zip(swaps, starts)])
        return self._values["s"]

    def power_tables(self, rows, keys, block_rows: int) -> tuple:
        """Per axis, ({n: displacements between the distinct coordinates of
        ``rows`` and the distinct (column coordinate, scale) pairs, to the
        n-th power}, row index, column index) (`_distinct`; the scale is a
        scalar for one run), at n = 1 and every n >= 3 at which the
        evaluators of ``keys``, a hashable collection of
        `RadialTermEvaluator.key`, read that axis; or None when they read
        none or the table is more than half a block of ``block_rows`` rows.
        These are the ``tables`` of the `Displacements` of runs of these
        rows of that size against these columns, which only their maker
        builds.  Nothing of a block is computed, and the row index takes
        the smallest integer type that holds it."""
        if ("n", keys) not in self._values:
            # the monomials are ("x", a), ("y", b) and ("m", a, b)
            self._values["n", keys] = [sorted(
                {m[1 + axis] if m[0] == "m" else m[1] for key in keys for _, m, _ in key[1]
                 if m and m[0] in ("m", "xy"[axis])} - {1, 2}) for axis in (0, 1)]
        out = []
        for axis, exponents in enumerate(self._values["n", keys]):
            if not exponents:
                out.append(None)
                continue
            key, scale = ("d", axis), self.scale
            if key not in self._values:
                cols, index = _distinct(self.points[:, axis], *((scale,) if np.ndim(scale) else ()))
                self._values[key] = (self.points[cols, axis],
                                     scale[cols] if np.ndim(scale) else scale, index)
            cols, scale, col_index = self._values[key]
            distinct, row_index = _distinct(rows[:, axis])
            if 2 * len(distinct) * len(cols) > block_rows * len(self.points):
                out.append(None)
                continue
            with np.errstate(over="ignore"):  # far rows, outside every support
                powers = {1: _differences(rows[distinct, axis], cols, scale)}
                powers.update((n, np.power(powers[1], n)) for n in exponents)
            out.append((powers, row_index.astype(np.min_scalar_type(len(distinct))), col_index))
        return tuple(out)


class Displacements:
    """Displacements (rows[p] - columns[q]) * scale of rows (P, 2) against
    ``columns``, a `Columns` of runs of points (Q_k, 2) each at its own
    scale, in units of the support radius, r = hypot(x, y), and the values
    that the evaluators reading them share.  The set is of the rows against
    the runs' concatenation, and every entry holds the bits it has in the
    set of its run alone.  The levels of a multiscale model are such runs,
    each at its own support radius (`stokes_kernel.displacements`).  Every
    set against one `Columns` reads its concatenation, `per_column`
    vectors and swap, which are made once for all of them.

    Each shared value -- an evaluator's sum, a Horner radial keyed by its
    lowest power of r and its coefficients (with a positive top one, so
    that radials of opposite sign are one value), x, y, r and their powers,
    squares included -- is computed
    on its first read and kept as long as the set; x and y are kept from
    the pass that computes r.  The monomials x^a y^b (one pass each) are
    computed at every read: not kept, with the same bits either way, so
    that fewer blocks are alive at once.

    Every value is computed at every entry, and a sum is the term sum where
    0 < r < 1.  When some entry lies at r = 0 or r >= 1 -- a coincident
    pair, or a support smaller than the points' spread -- each sum is then
    overwritten there: 0.0 outside the support, the exact constant term at
    r = 0, where the terms of negative powers of r are inf or nan.

    Every block-sized value is taken from ``pool``: a `BufferPool`, or
    `FRESH`, which allocates each anew; the values are the same.

    ``tables``, given by the set's maker, holds per axis None or a
    `Columns.power_tables` table of rows that include this set's rows, its
    row index taken at them (a 128-point slab of a tensor grid has 2
    distinct x against the 33 of the level-4 centres): a power x^n or y^n
    that the table of its axis holds is gathered from there, taken once for
    all such sets, and any other power is taken on the set's block, as on
    a set made without tables -- the same float operation on the same floats.

    With ``mirror``, d, row d + k is row k with its coordinates swapped,
    and the columns are closed under the swap (`Columns.swap`): hypot is
    symmetric, so r, its powers and the Horner radials of row d + k are
    those of row k at the swapped columns, bit for bit, and are gathered.
    """

    def __init__(self, rows, columns: Columns, pool=FRESH, mirror=None, tables=(None, None)):
        # (points, scale) of each run of columns
        self.runs = columns.runs
        self.rows = rows
        self.columns = columns.points
        self.scale = columns.scale
        self.per_column = columns.per_column  # values per column of each run
        self.shape = (len(rows), len(self.columns))
        self.pool = pool
        self._values: dict = {}
        self._cut = None  # not located yet: see `_locate`
        # see `_mirrored`
        self._direct, self._swap = (len(rows), None) if mirror is None else (
            mirror, columns.swap())
        self.last_block = None  # (parts, block): see `stokes_kernel.kernel_block`
        for kind, table in zip("xy", tables):
            if table is not None:
                self._values["t", kind] = table

    def __len__(self) -> int:
        return self.shape[0]

    def _new(self) -> np.ndarray:
        """An array of the set's shape."""
        return self.pool.empty(self.shape)

    def _mirrored(self, value) -> np.ndarray:
        """``value``, a value of r alone set on the rows before the first
        mirror, with the mirror rows gathered from those (see ``mirror``)."""
        if self._swap is not None:
            d = self._direct
            np.take(value[:len(value) - d], self._swap, axis=1, mode="clip", out=value[d:])
        return value

    def _locate(self) -> None:
        """Keeps x, y and r and, when an entry lies outside 0 < r < 1, the
        masks of r >= 1 and r = 0, where every sum is overwritten."""
        x, y = (_differences(self.rows[:, axis], self.columns[:, axis], self.scale,
                             self._new()) for axis in (0, 1))
        d, r = self._direct, self._new()
        np.hypot(x[:d], y[:d], out=r[:d])
        self._mirrored(r)
        self._cut = () if r.size and r.min() > 0.0 and r.max() < 1.0 else (
            np.greater_equal(r, 1.0, out=self.pool.empty(self.shape, bool)),
            np.equal(r, 0.0, out=self.pool.empty(self.shape, bool)))
        self._values.update({("x", 1): x, ("y", 1): y, ("r", 1): r})

    # shared values: ("x" | "y" | "r", n) the n-th power, ("m", a, b) the
    # monomial x^a y^b, ("h", m_lo, coeffs) a Horner radial times r^m_lo,
    # ("t", "x" | "y") a given power table and ("e", groups, origin) the value of
    # an evaluator (`RadialTermEvaluator.key`)

    @staticmethod
    def _kept(key) -> bool:
        return key[0] != "m"

    def read(self, key):
        """The shared value ``key``, computed on its first read."""
        if self._cut is None:
            self._locate()
        if key in self._values:
            return self._values[key]
        value = self._make(key)
        if self._kept(key):
            self._values[key] = value
        return value

    def _make(self, key):
        kind, n = key[0], key[1]
        if kind == "e":
            return self._sum(*key[1:])
        if kind == "m":
            return np.multiply(self.read(("x", n)), self.read(("y", key[2])),
                               out=self._new())
        if kind in "hr":
            d, value = self._direct, self._new()
            r, radial = self.read(("r", 1))[:d], value[:d]
            if kind == "r":  # np.power(v, n) is v ** n, bit for bit
                np.power(r, n, out=radial)
                return self._mirrored(value)
            # Horner in place: (...(c_top * r + c) * r + ...) + c_0, where
            # the first product is taken from c_top itself, with no fill
            coeffs = key[2]
            if len(coeffs) == 1:
                radial.fill(coeffs[0])
            for k, c in enumerate(coeffs[-2::-1]):
                np.multiply(radial if k else coeffs[-1], r, out=radial)
                np.add(radial, c, out=radial)
            if n:
                np.multiply(radial, self.read(("r", n))[:d], out=radial)
            return self._mirrored(value)
        table = self._values.get(("t", kind))
        if table is None or n not in table[0]:
            return np.power(self.read((kind, 1)), n, out=self._new())
        powers, rows, cols = table
        # rows and cols index the table, so no index needs the check of
        # mode "raise", which would take a buffer of its own
        return np.take(powers[n][rows], cols, axis=1, mode="clip", out=self._new())

    def _sum(self, groups, origin: float) -> np.ndarray:
        """Sum over the groups of +-(x^a y^b) * radial, in a new array of the
        set's shape: zero outside the support, ``origin`` at r = 0."""
        acc = self._new()
        # the first group's product is made in acc, a later group's in term
        term = self._new() if any(monomial for _, monomial, _ in groups[1:]) else None
        # the terms are inf or nan where they are overwritten below
        with np.errstate(all="ignore"):
            for k, (radial_key, monomial_key, negate) in enumerate(groups):
                value = self.read(radial_key)
                if monomial_key is not None:
                    value = np.multiply(self.read(monomial_key), value, out=term if k else acc)
                # 0.0 + the first term, as summed into zeros: -0.0 becomes 0.0
                (np.subtract if negate else np.add)(acc if k else 0.0, value, out=acc)
        if self._cut:
            outside, at_origin = self._cut
            np.copyto(acc, 0.0, where=outside)
            np.copyto(acc, origin, where=at_origin)
        return acc


class RadialTermEvaluator:
    """Compiled monomial-times-radial sum, valid inside the unit support.

    Groups the terms by monomial (a, b); each group's radial part becomes a
    Laurent polynomial evaluated by Horner's rule after factoring out the
    lowest power of r, with a positive top coefficient; a group whose top
    coefficient is negative subtracts its term.  Outside the support
    (r >= 1) the value is 0; at r = 0 it is the exact constant term.
    """

    def __init__(self, terms: Terms):
        bad = [k for k in terms if sum(k) < 0 or (sum(k) == 0 and k != (0, 0, 0))]
        if bad:
            raise NonPolynomialDivision(
                "derivative order exceeds the profile's smoothness; "
                "offending terms x1^a x2^b r^m with (a,b,m) in %s" % sorted(bad)
            )
        self.origin: Fraction = terms.get((0, 0, 0), Fraction(0))
        groups: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (a, b, m), c in terms.items():
            groups.setdefault((a, b), {})[m] = c
        # per group (a, b) the shared values it reads -- the Horner radial of
        # (m_lo, coefficients of r^m_lo, r^(m_lo+1), ...) and the monomial --
        # and whether its term is subtracted.  The radial is kept with a
        # positive top coefficient, so radials that differ only in sign are
        # one value: rounding is symmetric, so Horner's rule on negated
        # coefficients gives the negated value, and acc - t is acc + (-t)
        keys = []
        for (a, b), prof in sorted(groups.items()):
            m_lo, m_hi = min(prof), max(prof)
            sign = -1 if prof[m_hi] < 0 else 1
            coeffs = tuple(float(sign * prof.get(m, Fraction(0))) for m in range(m_lo, m_hi + 1))
            monomial = ("m", a, b) if a and b else ("x", a) if a else ("y", b) if b else None
            keys.append((("h", m_lo, coeffs), monomial, sign < 0))
        # the key of its value in a `Displacements`: evaluators of equal
        # terms share it
        self.key = ("e", tuple(keys), float(self.origin))

    def __call__(self, dx, dy):
        """Evaluate at displacements dx, dy (unit support radius), broadcast
        against each other: the points (dx, dy) against the origin at unit
        scale, where (d - 0.0) * 1.0 is d bit for bit."""
        dx, dy = np.broadcast_arrays(np.asarray(dx, dtype=float), np.asarray(dy, dtype=float))
        points = np.column_stack([dx.ravel(), dy.ravel()])
        out = Displacements(points, Columns(np.zeros((1, 2)), 1.0)).read(self.key).reshape(dx.shape)
        return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def _compiled(coeffs: tuple, nx: int, ny: int) -> RadialTermEvaluator:
    return RadialTermEvaluator(dict(_mixed_partial_cached(coeffs, nx, ny)))


def mixed_partial(profile: WendlandPolynomial, nx: int, ny: int) -> RadialTermEvaluator:
    """Compiled evaluator for d^nx/dx1 d^ny/dx2 of profile(||x||); cached."""
    return _compiled(profile.coeffs, nx, ny)
