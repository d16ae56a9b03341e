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

import math
import mmap
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .wendland import NonPolynomialDivision, WendlandPolynomial

__all__ = [
    "BufferPool",
    "Displacements",
    "FRESH",
    "RadialTermEvaluator",
    "mixed_partial",
    "mixed_partial_terms",
]

# term algebra: {(a, b, m): coefficient} for c * x1^a * x2^b * r^m
Terms = dict[tuple[int, int, int], Fraction]


def terms_from_profile(coeffs) -> Terms:
    return {(0, 0, i): Fraction(c) for i, c in enumerate(coeffs) if c != 0}


def _diff(terms: Terms, axis: int) -> Terms:
    out: Terms = {}

    def add(key, val):
        if val:
            acc = out.get(key, Fraction(0)) + val
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]

    for (a, b, m), c in terms.items():
        if axis == 0:
            if a:
                add((a - 1, b, m), a * c)
            if m:
                add((a + 1, b, m - 2), m * c)
        else:
            if b:
                add((a, b - 1, m), b * c)
            if m:
                add((a, b + 1, m - 2), m * c)
    return out


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
            acc = out.get(key, Fraction(0)) + w * c
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


def _distinct(values):
    """(distinct values, index of each value among them), told apart by their
    bits, so that -0.0 and 0.0 stay two values."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return bits.view(float), index


def _idle_refs() -> int:
    """`sys.getrefcount` of an object that only a list and the loop variable
    reading it reference, read as `BufferPool.empty` reads its buffers: 3
    on CPython 3.11 (the list, the variable and the call's argument), but
    the count of a reference depends on the interpreter."""
    for obj in [object()]:
        return sys.getrefcount(obj)


_IDLE_REFS = _idle_refs()


class BufferPool:
    """Arrays for the slabs that one worker thread computes in one call.

    ``empty`` hands out a view of the first buffer that nothing else
    references -- no array or view of it is alive -- and that is large
    enough, and adds a buffer of the requested size when there is none.
    The slabs of a call ask for arrays of the same few shapes, so their
    pages are faulted in once per call and worker, not once per array.

    The buffers are anonymous memory maps, which go back to the system
    with the pool.  Buffers from malloc stayed in the worker threads'
    arenas after the call: the peak of a 4-level run, at the level-4 solve,
    was 196 MB with them against 179 MB with maps (2-core x86_64, glibc).
    """

    def __init__(self):
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
            buf = np.frombuffer(mmap.mmap(-1, max(size, 1)), np.uint8)
            self._buffers.append(buf)
        return buf[:size].view(dtype).reshape(shape)


class _Fresh:
    """A pool that keeps no buffers: every array is newly allocated."""

    @staticmethod
    def empty(shape, dtype=float) -> np.ndarray:
        return np.empty(shape, dtype)


# the pool of a set made without one, and of a call with a single slab
FRESH = _Fresh()


class Displacements:
    """Displacements (rows[p] - columns[q]) * scale of rows (P, 2) against
    columns (Q, 2), in units of the support radius, r = hypot(x, y), and
    the values that the evaluators reading them share.

    Each shared value -- an evaluator's sum, a Horner radial keyed by its
    lowest power of r and its coefficients, x, y, r and the other powers, a
    power table -- is computed on its first read and kept as long as the
    set; x and y are kept from the pass that computes r.  The squares and
    the monomials x^a y^b (a pass or two each) are computed at every read:
    not kept, with the same bits either way, so that fewer blocks are alive
    at once.

    Every value is computed at every entry, and a sum is the term sum where
    0 < r < 1.  When some entry lies at r = 0 or r >= 1 -- a coincident
    pair, or a support smaller than the points' spread -- each sum is then
    overwritten there: 0.0 outside the support, the exact constant term at
    r = 0, where the terms of negative powers of r are inf or nan.

    Every block-sized value is taken from ``pool``: a `BufferPool`, or
    `FRESH`, which allocates each anew; the values are the same.

    A power x^n or y^n with n >= 3 is taken on the table of displacements
    between the distinct row and column coordinates and gathered -- the same
    float operation on the same floats -- when that table is at most half
    the block: a 128-point slab of a tensor grid has 2 distinct x against
    the 33 of the level-4 centres.
    """

    def __init__(self, rows, columns, scale: float, pool=FRESH):
        self.rows, self.columns, self.scale = rows, columns, scale
        self.shape = (len(rows), len(columns))
        self.pool = pool
        self._values: dict = {}

    def __len__(self) -> int:
        return self.shape[0]

    def _new(self) -> np.ndarray:
        """An array of the set's shape."""
        return self.pool.empty(self.shape)

    def _locate(self) -> None:
        """Keeps x, y and r, and notes whether an entry lies outside
        0 < r < 1."""
        x, y = (_differences(self.rows[:, axis], self.columns[:, axis], self.scale,
                             self._new()) for axis in (0, 1))
        r = np.hypot(x, y, out=self._new())
        self._cut = not (r.size and r.min() > 0.0 and r.max() < 1.0)
        self._values.update({("x", 1): x, ("y", 1): y, ("r", 1): r})

    # shared values: ("x" | "y" | "r", n) the n-th power, ("m", a, b) the
    # monomial x^a y^b, ("h", m_lo, coeffs) a Horner radial times r^m_lo,
    # ("t", "x" | "y") a power table, and ("e", groups, origin) the value of
    # an evaluator (`RadialTermEvaluator.key`)

    @staticmethod
    def _kept(key) -> bool:
        return key[0] in "eht" or (key[0] != "m" and key[1] != 2)

    def read(self, key):
        """The shared value ``key``, computed on its first read."""
        if not self._values:
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
        if kind == "t":
            return self._table("xy".index(n))
        if kind == "m":
            return np.multiply(self.read(("x", n)), self.read(("y", key[2])),
                               out=self._new())
        r = self.read(("r", 1))
        if kind == "h":
            coeffs = key[2]
            # Horner in place: (...(c_top * r + c) * r + ...) + c_0
            radial = self._new()
            radial.fill(coeffs[-1])
            for c in coeffs[-2::-1]:
                np.multiply(radial, r, out=radial)
                np.add(radial, c, out=radial)
            if n:
                np.multiply(radial, self.read(("r", n)), out=radial)
            return radial
        # np.power(v, n) is v ** n, bit for bit
        if kind == "r":
            return np.power(r, n, out=self._new())
        table = self.read(("t", kind)) if n >= 3 else None
        if table is None:
            return np.power(self.read((kind, 1)), n, out=self._new())
        values, rows, cols = table
        # rows and cols index the table, so no index needs the check of
        # mode "raise", which would take a buffer of its own
        return np.take(np.power(values, n)[rows], cols, axis=1, mode="clip",
                       out=self._new())

    def _sum(self, groups, origin: float) -> np.ndarray:
        """Sum over the groups of (x^a y^b) * radial, in a new array of the
        set's shape: zero outside the support, ``origin`` at r = 0."""
        acc = self._new()
        acc.fill(0.0)
        term = self._new()
        # the terms are inf or nan where they are overwritten below
        with np.errstate(all="ignore"):
            for radial_key, monomial_key in groups:
                radial = self.read(radial_key)
                if monomial_key is None:
                    np.add(acc, radial, out=acc)
                else:
                    np.multiply(self.read(monomial_key), radial, out=term)
                    np.add(acc, term, out=acc)
        if self._cut:
            r = self.read(("r", 1))
            acc[r >= 1.0] = 0.0
            acc[r == 0.0] = origin
        return acc

    def _table(self, axis: int):
        """(displacements between the distinct row and column coordinates,
        row index, column index) of one axis, or None when the table is
        more than half the block."""
        rows, row_index = _distinct(self.rows[:, axis])
        cols, col_index = _distinct(self.columns[:, axis])
        if 2 * len(rows) * len(cols) > len(self.rows) * len(self.columns):
            return None
        return _differences(rows, cols, self.scale), row_index, col_index


class RadialTermEvaluator:
    """Compiled monomial-times-radial sum, valid inside the unit support.

    Groups the terms by monomial (a, b); each group's radial part becomes a
    Laurent polynomial evaluated by Horner's rule after factoring out the
    lowest power of r.  Outside the support (r >= 1) the value is 0; at
    r = 0 it is the exact constant term.
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
        # per group (a, b) the shared values it reads: the Horner radial of
        # (m_lo, coefficients of r^m_lo, r^(m_lo+1), ...) and the monomial
        keys = []
        for (a, b), prof in sorted(groups.items()):
            m_lo, m_hi = min(prof), max(prof)
            coeffs = tuple(float(prof.get(m, Fraction(0))) for m in range(m_lo, m_hi + 1))
            monomial = ("m", a, b) if a and b else ("x", a) if a else ("y", b) if b else None
            keys.append((("h", m_lo, coeffs), monomial))
        # the key of its value in a `Displacements`: evaluators of equal
        # terms share it
        self.key = ("e", tuple(keys), float(self.origin))

    def __call__(self, dx, dy):
        """Evaluate at displacements dx, dy (unit support radius), broadcast
        against each other: the points (dx, dy) against the origin at unit
        scale, where (d - 0.0) * 1.0 is d bit for bit."""
        dx, dy = np.broadcast_arrays(np.asarray(dx, dtype=float), np.asarray(dy, dtype=float))
        points = np.column_stack([dx.ravel(), dy.ravel()])
        out = self.on(Displacements(points, np.zeros((1, 2)), 1.0)).reshape(dx.shape)
        return float(out) if out.ndim == 0 else out

    def on(self, d: Displacements) -> np.ndarray:
        """The term sum at every displacement of ``d``, in an array of its
        shape that other reads of the set may share: not to be written."""
        return d.read(self.key)


@lru_cache(maxsize=None)
def _compiled(coeffs: tuple, nx: int, ny: int) -> RadialTermEvaluator:
    return RadialTermEvaluator(dict(_mixed_partial_cached(coeffs, nx, ny)))


def mixed_partial(profile: WendlandPolynomial, nx: int, ny: int) -> RadialTermEvaluator:
    """Compiled evaluator for d^nx/dx1 d^ny/dx2 of profile(||x||); cached."""
    return _compiled(profile.coeffs, nx, ny)
