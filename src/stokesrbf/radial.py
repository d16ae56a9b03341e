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

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .wendland import NonPolynomialDivision, WendlandPolynomial

__all__ = [
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
        self._groups = []
        for (a, b), prof in sorted(groups.items()):
            m_lo, m_hi = min(prof), max(prof)
            coeffs = np.array(
                [float(prof.get(m, Fraction(0))) for m in range(m_lo, m_hi + 1)]
            )
            self._groups.append((a, b, m_lo, coeffs))

    def __call__(self, dx, dy):
        """Evaluate at displacement arrays (unit support radius)."""
        dx = np.asarray(dx, dtype=float)
        dy = np.asarray(dy, dtype=float)
        scalar = dx.ndim == 0 and dy.ndim == 0
        dx, dy = np.atleast_1d(dx), np.atleast_1d(dy)
        r = np.hypot(dx, dy)
        out = np.zeros_like(r)
        inside = (r > 0.0) & (r < 1.0)
        if np.any(inside):
            xi, yi, ri = dx[inside], dy[inside], r[inside]
            acc = np.zeros_like(ri)
            pow_cache: dict[tuple[str, int], np.ndarray] = {}

            def power(base, tag, n):
                if n == 0:
                    return 1.0
                key = (tag, n)
                if key not in pow_cache:
                    pow_cache[key] = base**n
                return pow_cache[key]

            for a, b, m_lo, coeffs in self._groups:
                radial = np.full_like(ri, coeffs[-1])
                for c in coeffs[-2::-1]:
                    radial = radial * ri + c
                if m_lo:
                    radial = radial * power(ri, "r", m_lo)
                acc += power(xi, "x", a) * power(yi, "y", b) * radial
            out[inside] = acc
        if self.origin:
            out[r == 0.0] = float(self.origin)
        return float(out[0]) if scalar else out


@lru_cache(maxsize=None)
def _compiled(coeffs: tuple, nx: int, ny: int) -> RadialTermEvaluator:
    return RadialTermEvaluator(dict(_mixed_partial_cached(coeffs, nx, ny)))


def mixed_partial(profile: WendlandPolynomial, nx: int, ny: int) -> RadialTermEvaluator:
    """Compiled evaluator for d^nx/dx1 d^ny/dx2 of profile(||x||); cached."""
    return _compiled(profile.coeffs, nx, ny)
