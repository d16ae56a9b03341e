"""Compactly supported Wendland polynomials with exact rational calculus.

A Wendland function of smoothness parameter ``k`` in dimension ``d`` is a
piecewise polynomial radial profile, positive definite on R^d, supported on
[0, 1].  This module constructs the profiles exactly (coefficients are
`fractions.Fraction`), differentiates them, and divides derivatives by r --
the operation behind the chain rule for radial functions.  Coefficients of
high derivatives reach magnitude ~1e6 and beyond, so everything stays exact
here; floats appear only in the evaluators that `radial.mixed_partial`
compiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .geometry import integer_count

__all__ = [
    "NonPolynomialDivision",
    "WendlandPolynomial",
    "wendland_c8",
    "wendland_from_integral",
]


class NonPolynomialDivision(ArithmeticError):
    """f'(r)/r is not a polynomial: f' has a nonzero constant term.

    Hitting this means the requested derivative order exceeds what the
    profile's smoothness supports (too few leading odd coefficients vanish).
    """


def _as_fraction_tuple(coeffs) -> tuple[Fraction, ...]:
    out = tuple(Fraction(c) for c in coeffs)
    # canonical form: no trailing zeros, zero polynomial is ()
    n = len(out)
    while n > 0 and out[n - 1] == 0:
        n -= 1
    return out[:n]


@dataclass(frozen=True)
class WendlandPolynomial:
    """Univariate polynomial on [0, 1], identically zero for r >= 1.

    ``coeffs`` are ascending exact rationals b_0..b_n.  ``smoothness_k`` and
    ``ell`` tag genuine Wendland functions; polynomials derived through
    calculus carry ``None`` there but keep the support semantics.

    Evaluation at r = 1 returns 0 by convention (the profiles of interest
    vanish there to high order, so the choice is unobservable but makes the
    support cutoff deterministic).
    """

    coeffs: tuple[Fraction, ...]
    smoothness_k: int | None = None
    ell: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_fraction_tuple(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def evaluate_exact(self, r) -> Fraction:
        """Exact rational evaluation (the in-house reference for accuracy tests)."""
        r = Fraction(r)
        if abs(r) >= 1:
            return Fraction(0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * r + c
        return acc

    def derivative(self) -> "WendlandPolynomial":
        """d/dr of the polynomial part; support semantics preserved."""
        coeffs = [i * c for i, c in enumerate(self.coeffs)][1:]
        return WendlandPolynomial(coeffs)

    def divided_derivative(self) -> "WendlandPolynomial":
        """Exact f'(r)/r; raises NonPolynomialDivision if f' has a constant term."""
        if self.coefficient(1) != 0:
            raise NonPolynomialDivision(
                "derivative has constant term %s; f'(r)/r would carry a 1/r "
                "singularity" % self.coefficient(1)
            )
        coeffs = [i * c for i, c in enumerate(self.coeffs)][2:]
        return WendlandPolynomial(coeffs)

    def __repr__(self):
        tag = ""
        if self.smoothness_k is not None:
            tag = f", k={self.smoothness_k}, ell={self.ell}"
        return f"WendlandPolynomial(degree={self.degree}{tag})"


def wendland_from_integral(d: int, k: int) -> WendlandPolynomial:
    """Wendland function from its integral definition, expanded exactly.

    psi(r) = 1/(Gamma(k) 2^(k-1)) * int_r^1 s (1-s)^ell (s^2 - r^2)^(k-1) ds
    on [0, 1] with ell = floor(d/2) + k + 1.  The integrand is expanded
    symbolically and integrated term by term, so the coefficients are exact
    rationals; no quadrature is involved.  The result differs from the
    commonly tabulated closed forms by a positive constant factor.
    """
    d, k = integer_count(d, "d", 1), integer_count(k, "k", 1)
    ell = d // 2 + k + 1
    acc: dict[int, Fraction] = {}
    for j in range(ell + 1):
        cj = Fraction(comb(ell, j) * (-1) ** j)
        for m in range(k):
            cm = cj * comb(k - 1, m) * (-1) ** (k - 1 - m)
            p = 1 + j + 2 * m  # power of s in the integrand term
            term = Fraction(cm, p + 1)  # int_r^1 s^p ds = (1 - r^(p+1))/(p+1)
            lo = 2 * (k - 1 - m)
            acc[lo] = acc.get(lo, Fraction(0)) + term
            hi = lo + p + 1
            acc[hi] = acc.get(hi, Fraction(0)) - term
    norm = Fraction(1, factorial(k - 1) * 2 ** (k - 1))
    n = max(acc) + 1
    coeffs = [norm * acc.get(i, Fraction(0)) for i in range(n)]
    return WendlandPolynomial(coeffs, smoothness_k=k, ell=ell)


def wendland_c8() -> WendlandPolynomial:
    """The C^8 function (d = 2, k = 4) in its tabulated normalization.

    psi(r) = (1 - r)^10 * (429 r^4 + 450 r^3 + 210 r^2 + 50 r + 5),
    positive definite on R^2 with native space H^5.5(R^2).  This is the
    canonical kernel for the reproduction experiment; the integral-form
    constructor yields the same polynomial up to a positive constant.
    """
    tail = (5, 50, 210, 450, 429)
    coeffs = [Fraction(0)] * 15
    for a, ta in enumerate(tail):
        for m in range(11):
            coeffs[a + m] += ta * comb(10, m) * (-1) ** m
    return WendlandPolynomial(coeffs, smoothness_k=4, ell=6)
