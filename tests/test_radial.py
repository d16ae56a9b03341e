import math
import mmap
from fractions import Fraction

import numpy as np
import pytest
import sympy

from stokesrbf import radial
from stokesrbf.radial import (
    BufferPool,
    Columns,
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
    (x^a * y^b) * radial, every term added.  A group whose radial is kept
    with the opposite sign gets its own coefficients back, negated."""
    r = np.hypot(x, y)
    acc = np.zeros_like(r)
    for (_, m_lo, coeffs), monomial, negate in ev.key[1]:
        if negate:
            coeffs = [-c for c in coeffs]
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
    # coordinate lines: its powers come from the tables of the distinct
    # coordinate differences that its maker gives it, and it has +0 and -0
    # displacements and one coincident pair (the exact constant term).
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
    columns = Columns(cols, scale)
    tables = columns.power_tables(rows, frozenset(ev.key for ev in evaluators), len(rows))
    assert all(table is not None and 3 in table[0] for table in tables)
    shared = Displacements(rows, columns, tables=tables)
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
        assert shared.read(ev.key).tobytes() == expected.tobytes()


@pytest.mark.parametrize("nx, ny", [(1, 0), (0, 1), (1, 2), (3, 0)])
def test_a_signed_zero_first_term_sums_to_plus_zero(c8, nx, ny):
    # at displacements with an exact +0 or -0 coordinate and 0 < r < 1 the
    # first term of these sums is a signed zero (or, negated, its
    # opposite).  The sum starts from 0.0 + term, as if summed into zeros:
    # every bit of the zero-filled term sum, and +0.0, never -0.0
    ev = mixed_partial(c8, nx, ny)
    zero = np.array([0.0, -0.0, 0.0, -0.0])
    other = np.array([0.25, 0.5, -0.75, -0.3])
    dx, dy = (zero, other) if nx % 2 else (other, zero)
    got = ev(dx, dy)
    assert got.tobytes() == plain_term_sum(ev, dx, dy).tobytes()
    assert (got == 0.0).all() and not np.signbit(got).any()


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


@pytest.mark.parametrize("psi", [wendland_c8(), wendland_from_integral(2, 3)], ids=["c8", "k3"])
def test_terms_match_symbolic_derivatives(psi):
    # every term dict of order at most 4 is the exact derivative of
    # psi(sqrt(x1^2 + x2^2)): summed as rationals at points of rational r,
    # inside and outside the support (the terms carry no cutoff), it equals
    # sympy's derivative there
    x1, x2 = sympy.symbols("x1 x2", real=True)
    r = sympy.sqrt(x1**2 + x2**2)
    profile = sum(sympy.Rational(c.numerator, c.denominator) * r**i
                  for i, c in enumerate(psi.coeffs))
    points = [(Fraction(3, 13), Fraction(4, 13)), (Fraction(-8, 51), Fraction(15, 51)),
              (Fraction(-3, 5), Fraction(-4, 5)), (Fraction(12, 10), Fraction(-5, 10))]
    for nx in range(5):
        for ny in range(5 - nx):
            derivative = sympy.diff(profile, x1, nx, x2, ny) if nx + ny else profile
            terms = mixed_partial_terms(psi, nx, ny)
            for x, y in points:
                rho = Fraction(math.isqrt((x * x + y * y).numerator),
                               math.isqrt((x * x + y * y).denominator))
                got = sum(c * x**a * y**b * rho**m for (a, b, m), c in terms.items())
                exact = derivative.subs({x1: sympy.Rational(str(x)), x2: sympy.Rational(str(y))})
                assert exact.is_Rational and got == Fraction(int(exact.p), int(exact.q))


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
    # alive, and only to an array that fits in it; buffers are carved in
    # whole pages, so the shapes count floats per page
    page = mmap.PAGESIZE // 8
    pool = BufferPool()
    first = pool.empty((4, page))
    view = first[1:].view(np.int64)
    del first
    second = pool.empty((4, page))  # the first buffer is still viewed
    assert not np.shares_memory(second, view)
    del view
    third = pool.empty((5, page))  # larger than the free first buffer
    fourth = pool.empty((2, page), bool)  # fits in the first buffer
    del second
    fifth = pool.empty((4, 4))
    arrays = [third, fourth, fifth]
    for k, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[k + 1:])
    assert len(pool._buffers) == 3
    assert [len(buf) for buf in pool._buffers] == [4 * mmap.PAGESIZE] * 2 + [5 * mmap.PAGESIZE]
    assert (fourth.shape, fourth.dtype, fifth.shape, fifth.dtype) == (
        (2, page), bool, (4, 4), float)


def test_pool_buffers_are_not_views_of_an_array():
    # the pool tells an idle buffer by its refcount, which holds only while
    # a buffer's base is not an ndarray: numpy points a view's base at the
    # array that owns the memory, so a buffer sliced from one array would
    # not be referenced by the arrays handed out of it, and would look idle
    # while in use.  Every buffer, after several carves and a reuse, is the
    # base of the arrays handed out of it and has a base that is no ndarray
    page = mmap.PAGESIZE // 8
    pool = BufferPool()
    handed = [pool.empty((k, page)) for k in (1, 3, 2)]
    del handed[1]
    handed += [pool.empty((2, page), np.int64), pool.empty((4, 4))]
    assert len(pool._buffers) == 4 and handed[2].base is pool._buffers[1]  # a reuse
    for a in handed:
        assert any(a.base is buf for buf in pool._buffers)
    for buf in pool._buffers:
        assert not isinstance(buf.base, np.ndarray)


def test_pool_starts_each_map_on_a_huge_page(monkeypatch):
    # a map whose length is no multiple of 2 MB, as a buffer larger than
    # `_MAP_BYTES` opens, need not start on a huge page (recent Linux aligns
    # only maps of whole huge pages, older Linux none); the pool starts the
    # map's first buffer on its first huge page all the same.  Here each
    # buffer of 2 MB and a page opens a map of its own
    monkeypatch.setattr(radial, "_MAP_BYTES", 0)
    pool = BufferPool()
    buffers = [pool.empty(((2 << 20) + mmap.PAGESIZE,), np.uint8) for _ in range(6)]
    assert len({id(buf.base.obj) for buf in pool._buffers}) == 6
    assert all(buf.ctypes.data % (2 << 20) == 0 for buf in buffers)


def test_call_tables_keep_signed_zeros(c8):
    # sets of runs of the rows read y^3 from the power tables of the set of
    # all rows, whose rows and columns hold +0.0 and -0.0 as two values:
    # -0.0 - 0.0 is -0.0 and its cube -0.0, while 0.0 - 0.0 and
    # -0.0 - (-0.0) are 0.0.  Every entry keeps the bits of np.power on the
    # block's own displacements, sign of zero included
    rows = np.array([[0.1, 0.0], [0.2, -0.0], [0.3, 0.25], [-0.0, -0.25]] * 8)
    cols = np.array([[0.0, 0.0], [0.5, -0.0], [0.1, 0.25]])
    columns = Columns(cols, 1.0)
    tables = columns.power_tables(rows, frozenset([mixed_partial(c8, 0, 3).key]), 8)
    assert 3 in tables[1][0]
    for at in (slice(0, 8), slice(8, 16), np.arange(31, -1, -3)):
        part = Displacements(rows[at], columns, tables=[
            table and (table[0], table[1][at], table[2]) for table in tables])
        y = rows[at, 1, None] - cols[:, 1]
        assert (np.signbit(y) & (y == 0.0)).any() and (~np.signbit(y) & (y == 0.0)).any()
        assert part.read(("y", 3)).tobytes() == np.power(y, 3).tobytes()
