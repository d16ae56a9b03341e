from fractions import Fraction

import numpy as np
import pytest

from stokesrbf.radial import mixed_partial
from stokesrbf.wendland import (
    NonPolynomialDivision,
    WendlandPolynomial,
    wendland_c8,
    wendland_from_integral,
)


def profile_on_axis(psi, n_derivs=0):
    """r -> d^n/dx1^n psi(||x||) at x = (r, 0): the solver's float evaluator
    of the n-th profile derivative."""
    ev = mixed_partial(psi, n_derivs, 0)
    return lambda r: ev(r, np.zeros_like(r))


def test_c8_point_values():
    c8 = wendland_c8()
    psi = profile_on_axis(c8)
    assert psi(0.0) == 5.0
    assert psi(1.0) == 0.0
    assert psi(1.7) == 0.0
    # direct evaluation of the closed form at 1/2: (1/1024) * 165.5625
    assert psi(0.5) == pytest.approx(0.1616821289, abs=1e-10)
    assert c8.evaluate_exact(Fraction(1, 2)) == Fraction(1655625, 10240000)


def test_c8_expanded_coefficients():
    psi = wendland_c8()
    assert psi.degree == 14
    expected = {0: 5, 1: 0, 2: -65, 3: 0, 4: 429, 6: -2145}
    for i, value in expected.items():
        assert psi.coefficient(i) == value
    # exactly the first k = 4 odd coefficients vanish
    assert [psi.coefficient(i) for i in (1, 3, 5, 7)] == [0, 0, 0, 0]
    assert psi.coefficient(9) != 0
    assert psi.coefficient(0) > 0


def test_sign_anchors():
    psi = wendland_c8()
    assert 2 * psi.coefficient(2) == -130
    assert 1152 * psi.coefficient(6) == -2471040
    assert 2 * psi.coefficient(2) < 0
    assert 1152 * psi.coefficient(6) < 0


def test_from_integral_structure():
    psi = wendland_from_integral(2, 4)
    assert psi.degree == 14
    assert psi.ell == 6
    assert [psi.coefficient(i) for i in (1, 3, 5, 7)] == [0, 0, 0, 0]
    assert psi.coefficient(0) > 0
    assert profile_on_axis(psi)(1.0) == 0.0


def test_from_integral_proportional_to_closed_form():
    integral = wendland_from_integral(2, 4)
    closed = wendland_c8()
    ratios = {
        integral.coefficient(i) / closed.coefficient(i)
        for i in range(15)
        if closed.coefficient(i) != 0
    }
    assert len(ratios) == 1
    assert ratios.pop() > 0
    # and the zero pattern agrees
    for i in range(15):
        assert (integral.coefficient(i) == 0) == (closed.coefficient(i) == 0)


def test_from_integral_rejects_degenerate_input():
    with pytest.raises(ValueError):
        wendland_from_integral(2, 0)
    with pytest.raises(ValueError):
        wendland_from_integral(0, 2)


@pytest.mark.parametrize("d,k", [(True, 4), (2, True), (2.0, 4), (2, 4.0)])
def test_from_integral_takes_integer_counts_only(d, k):
    # (True, 4) gave the d = 1 profile, (2, True) one tagged k=True, and the
    # floats raised TypeError
    with pytest.raises(ValueError):
        wendland_from_integral(d, k)


def test_from_integral_takes_numpy_integers():
    psi = wendland_from_integral(np.int64(2), 3)
    assert psi == wendland_from_integral(2, 3) and type(psi.smoothness_k) is int


def test_from_integral_small_case():
    psi = wendland_from_integral(2, 1)
    assert psi.degree == 2 * 1 + 3
    assert profile_on_axis(psi)(1.0) == 0.0
    assert psi.coefficient(0) > 0


def test_differentiate():
    const = WendlandPolynomial([5])
    assert const.derivative().coeffs == ()
    psi = wendland_c8()
    assert psi.derivative().evaluate_exact(0) == 0  # b_1 = 0
    second = psi.derivative().derivative()
    assert second.evaluate_exact(0) == -130  # 2 b_2


def test_divided_derivative_simple():
    p = WendlandPolynomial([0, 0, Fraction(7, 2)])  # c r^2
    assert p.divided_derivative().coeffs == (Fraction(7),)


def test_divided_derivative_depth():
    psi = wendland_c8()
    assert psi.divided_derivative().evaluate_exact(0) == -130
    q = psi
    for _ in range(4):
        q = q.divided_derivative()
    with pytest.raises(NonPolynomialDivision):
        q.divided_derivative()


@pytest.mark.parametrize("n_derivs", [0, 1, 2, 6])
def test_float_evaluation_matches_exact(n_derivs):
    # d^n/dx1^n psi(||x||) on the positive x1 axis is psi^(n)(r); compare the
    # solver's evaluator there with exact rational evaluation on a grid that
    # covers the support, the cancellation-heavy region near r = 1 included
    exact_p = wendland_c8()
    for _ in range(n_derivs):
        exact_p = exact_p.derivative()
    radii = [Fraction(num, 128) for num in range(128)]
    exact = np.array([float(exact_p.evaluate_exact(r)) for r in radii])
    got = profile_on_axis(wendland_c8(), n_derivs)(np.array([float(r) for r in radii]))
    # absolute, not relative: the expanded form loses all relative accuracy
    # where psi^(n) nearly vanishes close to r = 1, which the solver never
    # reaches (r <= sqrt(2)/delta < 0.5 through level 5)
    assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()


def test_compact_support_of_derived_polynomials():
    for n_derivs in range(1, 4):
        derived = profile_on_axis(wendland_c8(), n_derivs)
        for r in (1.0, 1.01, 5.0):
            assert derived(r) == 0.0


def test_vectorized_evaluation():
    psi = profile_on_axis(wendland_c8())
    r = np.array([0.0, 0.25, 0.5, 0.999, 1.0, 2.0])
    vals = psi(r)
    assert vals.shape == r.shape
    assert vals[-1] == 0.0 and vals[-2] == 0.0
    assert vals[0] == 5.0
