from fractions import Fraction

import numpy as np
import pytest

from stokesrbf.radial import (
    BufferPool,
    Displacements,
    RadialTermEvaluator,
    diff_x,
    diff_y,
    laplacian,
    mixed_partial,
    mixed_partial_terms,
    terms_from_profile,
)
from stokesrbf.wendland import (
    NonPolynomialDivision,
    WendlandPolynomial,
    wendland_c8,
    wendland_from_integral,
)


def bilaplacian_terms(psi):
    return laplacian(laplacian(terms_from_profile(psi.coeffs)))


class TestOriginValues:
    def test_second_derivatives(self, c8):
        assert mixed_partial(c8, 2, 0).origin == -130
        assert mixed_partial(c8, 0, 2).origin == -130  # component independent
        assert mixed_partial(c8, 1, 1).origin == 0

    def test_bilaplacian_derivatives(self, c8):
        t4 = bilaplacian_terms(c8)
        assert RadialTermEvaluator(diff_x(diff_x(t4))).origin == -2471040
        assert RadialTermEvaluator(diff_y(diff_y(t4))).origin == -2471040
        assert RadialTermEvaluator(diff_y(diff_x(t4))).origin == 0

    def test_cross_term_vanishes_for_k3(self):
        psi = wendland_from_integral(2, 3)
        t4 = bilaplacian_terms(psi)
        assert RadialTermEvaluator(diff_y(diff_x(t4))).origin == 0
        assert RadialTermEvaluator(diff_x(diff_x(t4))).origin < 0

    def test_values_are_exact_fractions(self, c8):
        assert isinstance(mixed_partial(c8, 2, 0).origin, Fraction)


def test_smoothness_gate():
    # k = 2 supports orders up to 4; order-6 requests must fail loudly
    psi = wendland_from_integral(2, 2)
    mixed_partial(psi, 2, 2)  # order 4 fine
    with pytest.raises(NonPolynomialDivision):
        mixed_partial(psi, 3, 3)


def test_support_cutoff(c8):
    ev = mixed_partial(c8, 2, 1)
    assert ev(1.2, 0.0) == 0.0
    assert ev(0.8, 0.6) == 0.0  # r = 1 exactly
    vals = ev(np.array([0.1, 0.9, 1.5]), np.array([0.07, 0.9, 0.2]))
    assert vals[1] == 0.0 and vals[2] == 0.0 and vals[0] != 0.0
    # dx and dy broadcast against each other, also where the mask is needed:
    # one entry outside the support, or one at the origin
    second = mixed_partial(c8, 2, 0)
    vals = second(0.5, np.array([0.1, 0.9]))
    assert vals.shape == (2,) and vals[0] != 0.0 and vals[1] == 0.0
    assert vals[0] == second(0.5, 0.1)
    vals = second(np.array([[0.0], [0.3]]), np.array([0.0, 0.4]))
    assert vals.shape == (2, 2) and vals[0, 0] == float(second.origin)
    assert vals[1, 1] == second(0.3, 0.4) and vals[0, 1] == second(0.0, 0.4)


def plain_term_sum(ev, x, y):
    """The evaluator's term groups, read from its key, summed with one new
    array per operation: Horner's rule, the lowest power of r, then
    (x^a * y^b) * radial."""
    r = np.hypot(x, y)
    acc = np.zeros_like(r)
    for (_, m_lo, coeffs), monomial in ev.key[1]:
        kind, *n = monomial or ("m", 0, 0)  # ("x", a), ("y", b), ("m", a, b)
        a, b = {"x": (n[0], 0), "y": (0, n[0]), "m": n}[kind]
        radial = np.full_like(r, coeffs[-1])
        for c in coeffs[-2::-1]:
            radial = radial * r + c
        if m_lo:
            radial = radial * r**m_lo
        acc += (x**a if a else 1.0) * (y**b if b else 1.0) * radial
    return acc


def test_inside_block_matches_masked_evaluation(c8, rng):
    # a block with every entry in 0 < r < 1 keeps its term sums; the same
    # entries next to one coincident and one outside entry, which are
    # overwritten afterwards, keep theirs too.  Both keep every bit (signed
    # zeros included) of the plain term sum.  So does the block of each
    # evaluator from one set that they all read, between points on a few
    # coordinate lines: its powers come
    # from tables of the distinct coordinate differences, and it has +0 and
    # -0 displacements and one coincident pair (the exact constant term).
    dx, dy = rng.uniform(-0.6, 0.6, size=(2, 40, 30))
    dy[:, 0] = 0.0
    dx[:, 1] = -0.0
    cols = np.array([[(0.1, 0.0, -0.25)[i % 3],
                      (0.3, 0.0, -0.0, 0.7, 0.55, -0.1, 0.2, 0.45)[i % 8]]
                     for i in range(24)])
    rows = np.array([[(0.1, -0.0)[i // 2 % 2], (0.31, 0.71)[i // 4 % 2]] if i % 2 == 0
                     else [0.2, (0.0, -0.0)[i // 2 % 2]] for i in range(40)])
    rows[0] = cols[5]
    scale = 1 / 1.3
    orders = [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (4, 2), (3, 3), (0, 6)]
    evaluators = [mixed_partial(c8, nx, ny) for nx, ny in orders]
    shared = Displacements(rows, cols, scale)
    assert all(shared._table(axis) is not None for axis in (0, 1))
    tx, ty = ((rows[:, k, None] - cols[:, k]) * scale for k in (0, 1))
    at_origin = np.hypot(tx, ty) == 0.0
    assert at_origin.sum() == 1
    for t in (tx, ty):
        assert (np.signbit(t) & (t == 0.0)).any() and (~np.signbit(t) & (t == 0.0)).any()
    for ev in evaluators:
        block = ev(dx, dy)
        masked = ev(np.append(dx, [0.0, 0.9]), np.append(dy, [0.0, 0.9]))
        assert block.shape == dx.shape
        assert block.tobytes() == plain_term_sum(ev, dx, dy).tobytes()
        assert block.tobytes() == masked[:-2].tobytes()
        assert masked[-2] == float(ev.origin) and masked[-1] == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = plain_term_sum(ev, tx, ty)
        expected[at_origin] = float(ev.origin)
        assert ev.on(shared).tobytes() == expected.tobytes()


def test_finite_difference_chain(c8, rng):
    # every derivative agrees with a central difference of one order lower,
    # chained over all orders used by the kernel algebra
    h = 1e-5
    pts = rng.uniform(0.08, 0.65, size=(12, 2))
    for nx, ny in [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (3, 3)]:
        ev = mixed_partial(c8, nx, ny)
        if nx:
            lower = mixed_partial(c8, nx - 1, ny)
            fd = (lower(pts[:, 0] + h, pts[:, 1]) - lower(pts[:, 0] - h, pts[:, 1])) / (2 * h)
        else:
            lower = mixed_partial(c8, nx, ny - 1)
            fd = (lower(pts[:, 0], pts[:, 1] + h) - lower(pts[:, 0], pts[:, 1] - h)) / (2 * h)
        got = ev(pts[:, 0], pts[:, 1])
        scale = np.maximum(np.abs(fd), 1e-8 * np.max(np.abs(fd)))
        assert np.all(np.abs(got - fd) <= 1e-5 * scale)


def test_laplacian_matches_radial_formula(c8, rng):
    # lap psi(r) = psi''(r) + psi'(r)/r ties the term engine to the profile
    # derivatives of `wendland`
    lap = RadialTermEvaluator(laplacian(terms_from_profile(c8.coeffs)))
    r = rng.uniform(0.05, 0.95, size=8)
    second, divided = c8.derivative().derivative(), c8.divided_derivative()
    expected = [
        float(second.evaluate_exact(Fraction(ri)) + divided.evaluate_exact(Fraction(ri)))
        for ri in r
    ]
    got = lap(r, np.zeros_like(r))
    assert np.allclose(got, expected, rtol=1e-12)


class TestDerivativeOrder:
    def test_insufficient_smoothness(self):
        # k = 2 leaves two leading odd coefficients zero: order 4 is the limit
        psi = wendland_from_integral(2, 2)
        for nx, ny in ((6, 0), (4, 2), (3, 3), (5, 0)):
            with pytest.raises(NonPolynomialDivision):
                mixed_partial(psi, nx, ny)
        for nx, ny in ((4, 0), (2, 2), (3, 1)):
            mixed_partial(psi, nx, ny)

    def test_operators_do_not_commute(self):
        # T(f') != (Tf)' already on r^4, so divided and plain derivatives of
        # a profile must be applied in a fixed order
        p = WendlandPolynomial([0, 0, 0, 0, 1])
        t_then_d = p.divided_derivative().derivative()
        d_then_t = p.derivative().divided_derivative()
        assert t_then_d != d_then_t

    def test_derivative_lookup_respects_order(self):
        # a profile with one leading odd zero supports order 2 only: the
        # order-3 request fails, the order-2 cross term vanishes at 0
        psi = wendland_from_integral(2, 1)
        with pytest.raises(NonPolynomialDivision):
            mixed_partial(psi, 2, 1)
        assert mixed_partial(psi, 1, 1).origin == 0


def test_terms_expansion_shape(c8):
    # order-6 pure derivative: monomials of matching parity only
    terms = mixed_partial_terms(c8, 4, 2)
    assert terms
    for (a, b, m) in terms:
        assert a % 2 == 0 and b % 2 == 0
        assert a + b + m >= 0


def test_buffer_pool_reuses_only_unreferenced_buffers():
    # a buffer is handed out again only once no array or view of it is
    # alive, and only to an array that fits in it
    pool = BufferPool()
    first = pool.empty((4, 5))
    view = first[1:].view(np.int64)
    del first
    second = pool.empty((4, 5))  # the first buffer is still viewed
    assert not np.shares_memory(second, view)
    del view
    third = pool.empty((5, 5))  # larger than the free first buffer
    fourth = pool.empty((2, 5), bool)  # fits in the first buffer
    del second
    fifth = pool.empty((4, 4))
    arrays = [third, fourth, fifth]
    for k, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[k + 1:])
    assert len(pool._buffers) == 3
    assert (fourth.shape, fourth.dtype, fifth.shape, fifth.dtype) == ((2, 5), bool, (4, 4), float)
