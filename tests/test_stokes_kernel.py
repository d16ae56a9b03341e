import math
import warnings
from collections import Counter

import numpy as np
import pytest

from stokesrbf import stokes_kernel
from stokesrbf.collocation import evaluate_fields
from stokesrbf.radial import Displacements
from stokesrbf.stokes_kernel import (StokesKernelConfig, _parts, displacements,
                                     kernel_block, vanishes)
from stokesrbf.wendland import wendland_from_integral

POINT = (0.3, 0.4)
ORIGIN = (0.0, 0.0)
VALUE_ROWS = (("velocity", 1), ("velocity", 2), ("pressure", 0))
# the row that applies a collocation column's functional in the first argument
ROW_OF = {"pde": "pde", "dirichlet": "velocity"}


def entry(cfg, row, col, x, y):
    """One kernel value: ``row`` applied at x, ``col`` applied at y."""
    return float(kernel_block(cfg, row, col, [x], [y])[0, 0])


def gram(cfg, a, x, b, y):
    """System entry for collocation labels a at x and b at y."""
    return entry(cfg, (ROW_OF[a[0]], a[1]), b, x, y)


def column(cfg, col, y, x, rows=VALUE_ROWS):
    """Fields ``rows`` at x of the basis function of column ``col`` at y."""
    return tuple(entry(cfg, row, col, x, y) for row in rows)


def velocity_block(cfg, i, j, diff):
    """Psi_ij of the scaled velocity block at displacement diff."""
    return entry(cfg, ("velocity", i), ("dirichlet", j), diff, ORIGIN)


def random_label(rng):
    return (("pde", "dirichlet")[rng.integers(2)], int(rng.integers(1, 3)))


class TestVelocityKernelEntry:
    def test_cross_entry_vanishes_at_origin(self, unit_config):
        assert velocity_block(unit_config, 1, 2, ORIGIN) == 0.0
        assert velocity_block(unit_config, 2, 1, ORIGIN) == 0.0

    def test_diagonal_at_origin(self, unit_config):
        assert velocity_block(unit_config, 1, 1, ORIGIN) == 130.0
        assert velocity_block(unit_config, 2, 2, ORIGIN) == 130.0

    def test_scaled_diagonal(self, unit_config):
        cfg = unit_config.rescaled(2.0)
        assert velocity_block(cfg, 1, 1, ORIGIN) == pytest.approx(130 / 16)

    def test_compact_support(self, unit_config):
        cfg = unit_config.rescaled(1.5)
        for i in (1, 2):
            for j in (1, 2):
                assert velocity_block(cfg, i, j, (1.2, 1.0)) == 0.0

    def test_rejects_bad_index(self, unit_config):
        for i, j in ((0, 1), (1, 0), (3, 1), (1, 3)):
            with pytest.raises(ValueError):
                velocity_block(unit_config, i, j, ORIGIN)


class TestGramEntry:
    def test_momentum_diagonal(self, unit_config):
        assert gram(unit_config, ("pde", 1), POINT, ("pde", 1), POINT) == 2471170.0
        assert gram(unit_config, ("pde", 2), POINT, ("pde", 2), POINT) == 2471170.0

    def test_momentum_off_component_vanishes(self, unit_config):
        assert gram(unit_config, ("pde", 1), POINT, ("pde", 2), POINT) == 0.0

    def test_boundary_diagonal(self, unit_config):
        d = ("dirichlet", 1)
        assert gram(unit_config, d, POINT, d, POINT) == 130.0

    def test_compact_support(self, unit_config):
        # distance > delta = 1
        assert gram(unit_config, ("pde", 1), ORIGIN, ("dirichlet", 2), (0.9, 0.7)) == 0.0

    def test_symmetry(self, unit_config, rng):
        for delta in (1.0, 0.7):
            cfg = unit_config.rescaled(delta)
            for _ in range(100):
                a, x = random_label(rng), rng.uniform(0, 1, 2)
                b, y = random_label(rng), rng.uniform(0, 1, 2)
                ga, gb = gram(cfg, a, x, b, y), gram(cfg, b, y, a, x)
                scale = max(abs(ga), abs(gb), 1e-300)
                assert abs(ga - gb) <= 1e-12 * scale

    @pytest.mark.parametrize("delta", [0.5, 2.0])
    def test_scaling_law_at_coincident_points(self, unit_config, delta):
        # derivative order m scales each block by delta^-(d+m)
        cfg = unit_config.rescaled(delta)
        expected = delta**-8 * 2471040 + delta**-4 * 130  # m = 6 and m = 2 blocks
        a, d = ("pde", 1), ("dirichlet", 2)
        assert gram(cfg, a, POINT, a, POINT) == pytest.approx(expected, rel=1e-14)
        assert gram(cfg, d, POINT, d, POINT) == pytest.approx(delta**-4 * 130, rel=1e-14)

    def test_distinct_profiles_per_block(self, c8):
        # pressure block may use a different (here k = 3) profile
        pre = wendland_from_integral(2, 3)
        cfg = StokesKernelConfig(c8, pre, nu=1.0, delta=1.0)
        expected = 2471040 + float(-2 * pre.coefficient(2))
        a = ("pde", 1)
        assert gram(cfg, a, POINT, a, POINT) == pytest.approx(expected, rel=1e-14)

    def test_nu_enters_quadratically(self, c8):
        cfg = StokesKernelConfig(c8, c8, nu=3.0, delta=1.0)
        a = ("pde", 1)
        assert gram(cfg, a, POINT, a, POINT) == pytest.approx(9 * 2471040 + 130, rel=1e-14)


class TestBasisColumn:
    def test_boundary_column_at_own_point(self, unit_config):
        assert column(unit_config, ("dirichlet", 1), POINT, POINT) == (130.0, 0.0, 0.0)

    def test_compact_support(self, unit_config):
        assert column(unit_config, ("pde", 1), ORIGIN, (0.9, 0.9)) == (0.0, 0.0, 0.0)

    def test_momentum_column_at_own_point(self, unit_config):
        u1, u2, p = column(unit_config, ("pde", 1), POINT, POINT)
        assert u2 == 0.0 and p == 0.0  # cross and odd derivatives vanish at 0
        assert u1 != 0.0

    def test_divergence_is_exactly_zero(self, unit_config, rng):
        # the divergence row's terms cancel exactly in the term algebra, so
        # that its blocks vanish by construction against every column
        assert all(vanishes(unit_config, ("divergence", 0), col) for col in stokes_kernel._COLUMNS)
        for col in (("pde", 1), ("dirichlet", 1)):
            for _ in range(20):
                x = rng.uniform(0, 1, 2)
                assert column(unit_config, col, POINT, x, [("divergence", 0)]) == (0.0,)

    def test_momentum_image_matches_gram_diagonal(self, unit_config):
        li = column(unit_config, ("pde", 1), POINT, POINT, [("pde", 1), ("pde", 2)])
        assert li == (2471170.0, 0.0)

    def test_boundary_column_has_no_pressure(self, unit_config, rng):
        col = ("dirichlet", 2)
        grad_rows = [("pressure_grad", 1), ("pressure_grad", 2)]
        for _ in range(10):
            x = rng.uniform(0, 1, 2)
            assert column(unit_config, col, POINT, x, grad_rows) == (0.0, 0.0)
            assert column(unit_config, col, POINT, x)[2] == 0.0

    def test_unknown_request(self, level1_solution):
        with pytest.raises(ValueError):
            evaluate_fields(level1_solution, POINT, "curl")


class TestFiniteDifferenceAgreement:
    """Gram entries cross-checked against finite differences of the columns."""

    def test_momentum_row_vs_fd_of_column(self, unit_config, rng):
        h = 1e-4
        cfg = unit_config
        for _ in range(12):
            src, y = random_label(rng), rng.uniform(0.2, 0.8, 2)
            x = rng.uniform(0.2, 0.8, 2)
            for i in (1, 2):
                exact = gram(cfg, ("pde", i), x, src, y)

                def col(pt, comp=i):
                    return column(cfg, src, y, pt)[comp - 1]

                lap = (
                    col((x[0] + h, x[1])) + col((x[0] - h, x[1]))
                    + col((x[0], x[1] + h)) + col((x[0], x[1] - h))
                    - 4 * col((x[0], x[1]))
                ) / h**2
                if i == 1:
                    dp = (column(cfg, src, y, (x[0] + h, x[1]))[2]
                          - column(cfg, src, y, (x[0] - h, x[1]))[2]) / (2 * h)
                else:
                    dp = (column(cfg, src, y, (x[0], x[1] + h))[2]
                          - column(cfg, src, y, (x[0], x[1] - h))[2]) / (2 * h)
                approx = -cfg.nu * lap + dp
                scale = max(abs(exact), 1e-3)
                assert abs(exact - approx) <= 1e-5 * max(scale, abs(approx))

    def test_pressure_gradient_vs_fd(self, unit_config, rng):
        h = 1e-5
        grad_rows = [("pressure_grad", 1), ("pressure_grad", 2)]
        for _ in range(10):
            src = random_label(rng)
            y = rng.uniform(0.2, 0.8, 2)
            x = rng.uniform(0.2, 0.8, 2)
            g1, g2 = column(unit_config, src, y, x, grad_rows)
            p = lambda pt: column(unit_config, src, y, pt)[2]
            fd1 = (p((x[0] + h, x[1])) - p((x[0] - h, x[1]))) / (2 * h)
            fd2 = (p((x[0], x[1] + h)) - p((x[0], x[1] - h))) / (2 * h)
            scale = max(abs(g1), abs(g2), 1e-6)
            assert abs(g1 - fd1) <= 1e-5 * scale
            assert abs(g2 - fd2) <= 1e-5 * scale

    def test_velocity_columns_divergence_free_by_fd(self, unit_config, rng):
        # central differences of the velocity rows, independent of the
        # "divergence" row of the functional table
        h = 1e-4
        rows = [("velocity", 1), ("velocity", 2)]
        for col in [(k, c) for k in ("pde", "dirichlet") for c in (1, 2)]:
            for _ in range(5):
                y, x = rng.uniform(0.2, 0.8, 2), rng.uniform(0.2, 0.8, 2)
                u = lambda pt: np.array(column(unit_config, col, y, pt, rows))
                jac = np.column_stack([
                    (u(x + step) - u(x - step)) / (2 * h)
                    for step in ((h, 0.0), (0.0, h))
                ])
                scale = np.abs(jac).max()
                assert scale > 0.0
                assert abs(jac[0, 0] + jac[1, 1]) <= 1e-6 * scale


class TestValidation:
    def test_config_rejects_nonpositive_parameters(self, c8):
        with pytest.raises(ValueError):
            StokesKernelConfig(c8, c8, nu=1.0, delta=0.0)
        with pytest.raises(ValueError):
            StokesKernelConfig(c8, c8, nu=-1.0, delta=1.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_config_rejects_nonfinite_parameters(self, c8, bad):
        # an infinite nu or delta gives nan entries that the Cholesky solve
        # would not notice
        with pytest.raises(ValueError, match="nu"):
            StokesKernelConfig(c8, c8, nu=bad, delta=1.0)
        with pytest.raises(ValueError, match="delta"):
            StokesKernelConfig(c8, c8, nu=1.0, delta=bad)
        with pytest.raises(ValueError, match="delta"):
            StokesKernelConfig(c8, c8).rescaled(bad)

    @pytest.mark.parametrize("bad", [True, "1", None, [1.0]])
    @pytest.mark.parametrize("name", ["delta", "nu"])
    def test_config_rejects_what_is_not_a_real_number(self, c8, name, bad):
        # nu = True was kept as 1; a str, None or list raised TypeError
        with pytest.raises(ValueError, match=name):
            StokesKernelConfig(c8, c8, **{name: bad})

    def test_config_keeps_a_numpy_float(self, c8):
        # the rule only checks: an np.float32 nu stays one, with the same
        # compiled parts and the scales of its own arithmetic
        nu = np.float32(0.1)
        cfg = StokesKernelConfig(c8, c8, nu=nu, delta=0.5)
        plain = StokesKernelConfig(c8, c8, nu=0.1, delta=0.5)
        assert type(cfg.nu) is np.float32
        parts, plain_parts = _parts(cfg, ("pde", 1), ("pde", 1)), _parts(plain, ("pde", 1), ("pde", 1))
        assert [ev for _, ev in parts] == [ev for _, ev in plain_parts]
        assert [scale for scale, _ in parts] == [
            math.prod((nu,) * p) * 2.0 ** (2 + m)
            for p, m, _ in stokes_kernel._compiled_parts(c8, c8, ("pde", 1), ("pde", 1))]

    def test_functional_validation(self, unit_config):
        bad_pairs = [
            (("pde", 3), ("pde", 1)),
            (("pde", 0), ("pde", 1)),
            (("velocity", 3), ("dirichlet", 1)),
            (("pressure", 5), ("pde", 1)),
            (("pressure", 1), ("pde", 1)),
            (("divergence", 2), ("dirichlet", 1)),
            (("pressure_grad", 0), ("pde", 2)),
            (("curl", 1), ("pde", 1)),
            (("pde", 1), ("pde", 3)),
            (("pde", 1), ("dirichlet", 0)),
            (("pde", 1), ("neumann", 1)),
            (("pde", 1), ("velocity", 1)),
        ]
        for row, col in bad_pairs:
            with pytest.raises(ValueError):
                kernel_block(unit_config, row, col, [POINT], [POINT])

    @pytest.mark.parametrize("bad", ["complex", "three coordinates", "nan"])
    @pytest.mark.parametrize("where", ["rows", "columns"])
    def test_rejects_points_that_are_not_real_finite_pairs(self, unit_config, bad, where):
        # a complex point, and an (n, 3) row or column set, gave 18482.66,
        # the block of the 2-D point; a nan point gave a nan block
        points = np.array({"complex": [(0.3 + 0.5j, 0.4)], "three coordinates": [(0.3, 0.4, 9.0)],
                           "nan": [(0.3, np.nan)]}[bad])
        xa, xb = (points, [ORIGIN]) if where == "rows" else ([POINT], points)
        with pytest.raises(ValueError), warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            kernel_block(unit_config, ("pde", 1), ("pde", 1), xa, xb)
        with pytest.raises(ValueError), warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            displacements(unit_config, xa, xb)

    def test_rejects_configs_and_point_sets_of_other_counts(self, c8, rng):
        # two configs against three centre sets gave a set of two runs whose
        # blocks failed with a broadcast error, and no configs raised
        # IndexError or "need at least one array to concatenate": a set's
        # columns need a point set and one config per point set
        cfgs = [StokesKernelConfig(c8, c8, delta=delta) for delta in (0.9, 0.5, 0.3)]
        xa = rng.uniform(0, 1, (5, 2))
        xbs = list(rng.uniform(0, 1, (3, 4, 2)))
        pair = ("pde", 1), ("pde", 2)
        for calls in ((displacements, (cfgs[:2], xa, xbs)), (displacements, (cfgs, xa, xbs[:2])),
                      (displacements, ([], xa, [])), (stokes_kernel.columns, (cfgs, xbs[1:])),
                      (kernel_block, (cfgs[:2], *pair, xa, xbs)),
                      (kernel_block, ([], *pair, xa, []))):
            with pytest.raises(ValueError, match="one scale per point set"):
                calls[0](*calls[1])

    def test_shared_displacements_keep_each_block(self, unit_config, rng):
        # one set read by several pairs, one of them twice, gives each the
        # bits of its own block; part of the block lies outside the support
        # and one pair of points coincides, so a multi-part block holds
        # both kinds of overwritten entry.  A set is refused for other
        # columns or another scale
        cfg = unit_config.rescaled(0.7)
        xa, xb = rng.uniform(0, 1, (2, 30, 2))
        xa[3] = xb[7]
        pairs = [(("pde", 1), ("pde", 2)), (("velocity", 2), ("pde", 1)),
                 (("pde", 1), ("pde", 2)), (("pressure", 0), ("dirichlet", 1)),
                 (("pde", 1), ("pde", 1)), (("pressure_grad", 1), ("pde", 1))]
        shared = displacements(cfg, xa, xb)
        blocks = []
        for row, col in pairs:
            blocks.append(kernel_block(cfg, row, col, shared, xb))
            assert blocks[-1].tobytes() == kernel_block(cfg, row, col, xa, xb).tobytes()
            assert np.isfinite(blocks[-1]).all()
        # the exact constant terms of pde x pde at the coincident pair
        parts = _parts(cfg, *pairs[4])
        origin = 0.0
        for scale, evaluator in parts:
            origin += scale * float(evaluator.origin)
        assert len(parts) > 1 and blocks[4][3, 7] == origin != 0.0
        assert all((block == 0.0).any() for block in blocks) and len(shared) == 30
        row, col = pairs[-1]
        with pytest.raises(ValueError, match="other columns"):
            kernel_block(cfg, row, col, shared, xb.copy())
        with pytest.raises(ValueError, match="another scale"):
            kernel_block(unit_config, row, col, shared, xb)

    def test_a_set_computes_each_kept_value_once(self, unit_config, rng, monkeypatch):
        # the kept values of a set are computed once whatever the label
        # pairs that read it and their order: a repeated pair, and
        # velocity_1 x pde_2 and velocity_2 x pde_1, which share a sum.
        # The squares, which several monomials and radials read, are kept
        cfg = unit_config.rescaled(0.7)
        xa, xb = rng.uniform(0, 1, (2, 30, 2))
        shared = displacements(cfg, xa, xb)
        made = Counter()
        make = Displacements._make

        def counting(self, key):
            made[key] += 1
            return make(self, key)

        monkeypatch.setattr(Displacements, "_make", counting)
        for row, col in [(("velocity", 1), ("pde", 2)), (("pde", 1), ("pde", 2)),
                         (("velocity", 2), ("pde", 1)), (("pde", 1), ("pde", 2)),
                         (("velocity", 1), ("pde", 1)), (("pde", 1), ("pde", 1)),
                         (("pde", 2), ("pde", 2))]:
            kernel_block(cfg, row, col, shared, xb)
        kept = {key: count for key, count in made.items() if Displacements._kept(key)}
        assert kept and set(kept.values()) == {1}
        assert made[("x", 2)] == made[("y", 2)] == 1

    @pytest.mark.parametrize("first, second", [
        ((("velocity", 1), ("pde", 2)), (("velocity", 2), ("pde", 1))),
        ((("pressure_grad", 1), ("pde", 2)), (("pressure_grad", 2), ("pde", 1))),
        ((("velocity", 1), ("dirichlet", 2)), (("velocity", 2), ("dirichlet", 1))),
    ])
    def test_pairs_of_equal_parts_share_one_block(self, c8, rng, monkeypatch, first, second):
        # two label pairs with the same evaluators at the same scales, asked
        # one after the other on one set, get one read-only block, made
        # once; the set keeps only its last block.  Across two levels, and
        # with the bits of a fresh set per pair
        cfgs = [StokesKernelConfig(c8, c8, nu=0.5, delta=0.7), StokesKernelConfig(c8, c8, delta=0.4)]
        xa = rng.uniform(0, 1, (12, 2))
        xbs = list(rng.uniform(0, 1, (2, 9, 2)))
        shared = displacements(cfgs, xa, xbs)
        block = kernel_block(cfgs, *first, shared, xbs)
        made = Counter()
        make = Displacements._make

        def counting(self, key):
            made[key] += 1
            return make(self, key)

        monkeypatch.setattr(Displacements, "_make", counting)
        assert kernel_block(cfgs, *second, shared, xbs) is block
        assert not made and not block.flags.writeable
        for pair in (first, second):
            assert block.tobytes() == kernel_block(cfgs, *pair, xa, xbs).tobytes()
        other = kernel_block(cfgs, ("pde", 1), ("pde", 1), shared, xbs)
        assert other is not block and shared.last_block[1] is other
        again = kernel_block(cfgs, *second, shared, xbs)
        assert again is not block and again.tobytes() == block.tobytes()

    def test_levels_compiled_apart_share_a_block(self, c8, rng, monkeypatch):
        # two slab workers compiling one label pair at once each get their
        # own evaluators (the compile cache does not make the second wait):
        # levels whose evaluators are equal but not the same objects still
        # share a block, and other profiles still raise
        compile_fresh = stokes_kernel._compiled_parts.__wrapped__
        monkeypatch.setattr(stokes_kernel, "_compiled_parts", compile_fresh)
        cfgs = [StokesKernelConfig(c8, c8, delta=delta) for delta in (0.9, 0.5)]
        xa = rng.uniform(0, 1, (7, 2))
        xbs = list(rng.uniform(0, 1, (2, 5, 2)))
        pair = ("pde", 1), ("pde", 2)
        assert _parts(cfgs[0], *pair)[0][1] is not _parts(cfgs[1], *pair)[0][1]
        alone = np.concatenate([kernel_block(cfg, *pair, xa, xb)
                                for cfg, xb in zip(cfgs, xbs)], axis=1)
        assert kernel_block(cfgs, *pair, xa, xbs).tobytes() == alone.tobytes()
        other = StokesKernelConfig(wendland_from_integral(2, 4), c8, delta=0.3)
        with pytest.raises(ValueError, match="other profiles"):
            kernel_block([cfgs[0], other], *pair, xa, xbs)

    def test_every_valid_label_pair_evaluates(self, unit_config):
        rows = [(k, c) for k in ("pde", "velocity", "pressure_grad") for c in (1, 2)]
        rows += [("pressure", 0), ("divergence", 0)]
        cols = [(k, c) for k in ("pde", "dirichlet") for c in (1, 2)]
        for row in rows:
            for col in cols:
                block = kernel_block(unit_config, row, col, [POINT, ORIGIN], [POINT])
                assert block.shape == (2, 1) and np.all(np.isfinite(block))

    def test_levels_in_one_block_keep_each_levels_bits(self, c8, rng):
        # configs of several levels in one block: each column holds the bits
        # of its own level's block, at its scale and viscosity.  The centre
        # grids are nested, so a coordinate of the coarse grid occurs at two
        # scales, and the power tables must tell those pairs apart; one
        # point coincides with a centre, and most pairs lie outside the
        # smaller supports
        grids = [np.linspace(0, 1, n) for n in (5, 9, 3)]
        xbs = [np.column_stack([np.repeat(g, len(g)), np.tile(g, len(g))]) for g in grids]
        cfgs = [StokesKernelConfig(c8, c8, nu=nu, delta=delta)
                for nu, delta in ((1.0, 0.9), (0.5, 0.3), (2.0, 1.7))]
        xa = rng.uniform(0, 1, (9, 2))
        xa[4] = xbs[1][10]
        pairs = [(("pde", 1), ("pde", 2)), (("pde", 2), ("pde", 2)),
                 (("velocity", 1), ("dirichlet", 2)),
                 (("pressure_grad", 2), ("pde", 1)), (("divergence", 0), ("pde", 1)),
                 (("pressure_grad", 1), ("dirichlet", 1))]
        columns = stokes_kernel.columns(cfgs, xbs)
        tables = columns.power_tables(xa, stokes_kernel.evaluator_keys(cfgs[0], pairs), len(xa))
        shared = Displacements(xa, columns, tables=tables)
        assert len(shared.runs) == 3 and tables[0] is not None
        for row, col in pairs:
            alone = np.concatenate([kernel_block(cfg, row, col, xa, xb)
                                    for cfg, xb in zip(cfgs, xbs)], axis=1)
            assert kernel_block(cfgs, row, col, shared, xbs).tobytes() == alone.tobytes()
            assert kernel_block(cfgs, row, col, xa, xbs).tobytes() == alone.tobytes()
        row, col = ("pde", 1), ("pde", 1)
        with pytest.raises(ValueError, match="other columns"):
            kernel_block(cfgs, row, col, shared, [xb.copy() for xb in xbs])
        with pytest.raises(ValueError, match="another scale"):
            kernel_block([cfg.rescaled(0.5) for cfg in cfgs], row, col, shared, xbs)
        with pytest.raises(ValueError, match="other columns"):
            kernel_block(cfgs[:2], row, col, shared, xbs[:2])
        other = StokesKernelConfig(wendland_from_integral(2, 4), c8, delta=0.3)
        with pytest.raises(ValueError, match="other profiles"):
            kernel_block([cfgs[0], other], row, col, xa, xbs[:2])
