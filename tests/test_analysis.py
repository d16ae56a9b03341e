import tracemalloc
import weakref

import numpy as np
import pytest
import sympy

from stokesrbf import analysis, collocation
from stokesrbf.analysis import (
    ErrorReport,
    ManufacturedSolution,
    extreme_eigenvalues,
    gauss_legendre_grid,
    grid_errors,
    run_experiment,
    slope_check,
    trig_stokes_problem,
)
from stokesrbf.collocation import assemble
from stokesrbf.geometry import make_level_pointset
from stokesrbf.multiscale import MultiscaleConfig, MultiscaleModel


def _sympy_oracle(nu=1.0):
    """Independent symbolic derivation of -nu lap u + grad p and div u."""
    x1, x2 = sympy.symbols("x1 x2")
    u = (2 * sympy.cos(5 * x1) * sympy.cos(2 * x2),
         5 * sympy.sin(5 * x1) * sympy.sin(2 * x2))
    p = sympy.sin(3 * x1) * sympy.sin(3 * x2)
    lap = lambda w: sympy.diff(w, x1, 2) + sympy.diff(w, x2, 2)
    momentum = (-nu * lap(u[0]) + sympy.diff(p, x1),
                -nu * lap(u[1]) + sympy.diff(p, x2))
    divergence = sympy.diff(u[0], x1) + sympy.diff(u[1], x2)
    f_fn = sympy.lambdify((x1, x2), momentum, "numpy")
    div_fn = sympy.lambdify((x1, x2), divergence, "numpy")
    return f_fn, div_fn


class TestManufacturedSolution:
    def test_momentum_identity(self, rng):
        problem = trig_stokes_problem()
        f_fn, _ = _sympy_oracle()
        pts = rng.uniform(0, 1, size=(1000, 2))
        expected = np.column_stack(f_fn(pts[:, 0], pts[:, 1]))
        assert np.abs(problem.f(pts) - expected).max() <= 1e-10

    @pytest.mark.parametrize("bad", [True, "1", None, 0.0, float("inf")])
    def test_viscosity_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="nu"):
            trig_stokes_problem(nu=bad)

    def test_momentum_identity_with_viscosity(self, rng):
        problem = trig_stokes_problem(nu=2.5)
        f_fn, _ = _sympy_oracle(nu=2.5)
        pts = rng.uniform(0, 1, size=(200, 2))
        expected = np.column_stack(f_fn(pts[:, 0], pts[:, 1]))
        assert np.abs(problem.f(pts) - expected).max() <= 1e-10

    def test_divergence_free(self, rng):
        _, div_fn = _sympy_oracle()
        pts = rng.uniform(0, 1, size=(1000, 2))
        assert np.abs(div_fn(pts[:, 0], pts[:, 1])).max() <= 1e-12
        # discrete check of the implemented field
        problem = trig_stokes_problem()
        h = 1e-6
        dudx = (problem.u(pts + [h, 0])[:, 0] - problem.u(pts - [h, 0])[:, 0]) / (2 * h)
        dvdy = (problem.u(pts + [0, h])[:, 1] - problem.u(pts - [0, h])[:, 1]) / (2 * h)
        assert np.abs(dudx + dvdy).max() <= 1e-8

    def test_boundary_data_is_velocity_restriction(self, rng):
        problem = trig_stokes_problem()
        edge = np.column_stack([rng.uniform(0, 1, 50), np.zeros(50)])
        np.testing.assert_array_equal(problem.g(edge), problem.u(edge))

    def test_gradient_matches_pressure(self, rng):
        problem = trig_stokes_problem()
        x1, x2 = sympy.symbols("x1 x2")
        p = sympy.sin(3 * x1) * sympy.sin(3 * x2)
        grad = sympy.lambdify((x1, x2), (sympy.diff(p, x1), sympy.diff(p, x2)), "numpy")
        pts = rng.uniform(0, 1, size=(200, 2))
        expected = np.column_stack(grad(pts[:, 0], pts[:, 1]))
        assert np.abs(problem.grad_p(pts) - expected).max() <= 1e-12


class _ConstantField:
    """Stand-in reference whose u is a constant field."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)
        self.u = lambda pts: np.tile(self.value, (len(np.atleast_2d(pts)), 1))
        self.grad_p = self.u


def _empty_model():
    return MultiscaleModel(levels=[], config=MultiscaleConfig(n_levels=1))


class TestErrorNorms:
    def test_zero_error_field(self):
        reference = _ConstantField((0.0, 0.0))
        assert grid_errors(_empty_model(), reference, "velocity", 30) == (0.0, 0.0)

    def test_constant_one_error_field(self):
        reference = _ConstantField((1.0, 0.0))
        for order in (2, 11, 40):
            l2, _ = grid_errors(_empty_model(), reference, "velocity", order)
            assert l2 == pytest.approx(1.0, rel=1e-13)
        _, linf = grid_errors(_empty_model(), reference, "velocity", 20)
        assert linf == pytest.approx(1.0)

    def test_quadrature_grid(self):
        pts, w = gauss_legendre_grid(25)
        assert pts.shape == (625, 2) and w.shape == (625,)
        assert w.sum() == pytest.approx(1.0, rel=1e-14)
        assert pts.min() > 0.0 and pts.max() < 1.0
        with pytest.raises(ValueError):
            gauss_legendre_grid(1)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None])
    def test_quadrature_point_count_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="integer"):
            gauss_legendre_grid(bad)
        with pytest.raises(ValueError, match="integer"):
            grid_errors(_empty_model(), trig_stokes_problem(), "velocity", bad)
        with pytest.raises(ValueError, match="integer"):
            run_experiment(MultiscaleConfig(n_levels=1), quad_points=bad)

    def test_numpy_integer_counts_still_work(self):
        pts, w = gauss_legendre_grid(np.int64(20))
        assert pts.tobytes() == gauss_legendre_grid(20)[0].tobytes()
        assert w.tobytes() == gauss_legendre_grid(20)[1].tobytes()
        _, report = run_experiment(MultiscaleConfig(n_levels=1), quad_points=np.int32(10),
                                   eigen_levels=np.int64(1))
        assert report.quad_points == 10 and set(report.condition_numbers) == {1}

    def test_quadrature_grid_is_numpys_leggauss(self):
        # the nodes are numpy's leggauss algorithm with scipy's eigh: the
        # grid keeps numpy's bits, mapped to [0, 1], with outer-product weights
        for q in [*range(2, 130), 150, 200, 300]:
            nodes, weights = np.polynomial.legendre.leggauss(q)
            nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
            gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
            pts, w = gauss_legendre_grid(q)
            assert pts.tobytes() == np.column_stack([gx.ravel(), gy.ravel()]).tobytes(), q
            assert w.tobytes() == np.outer(weights, weights).ravel().tobytes(), q

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            grid_errors(_empty_model(), _ConstantField((0, 0)), "vorticity", 10)


class TestConditionNumber:
    """The extreme eigenvalues that kappa = lambda_max / lambda_min is made of."""

    def test_identity(self):
        assert extreme_eigenvalues(np.eye(6)) == pytest.approx((1.0, 1.0))

    def test_diagonal(self):
        assert extreme_eigenvalues(np.diag([2.0, 8.0])) == pytest.approx((2.0, 8.0))

    def test_rejects_indefinite(self):
        # the negative eigenvalue is reported, and `run_experiment` records
        # no kappa for a level whose lambda_min is not positive
        lam_min, _ = extreme_eigenvalues(np.diag([1.0, -2.0]))
        assert lam_min == pytest.approx(-2.0)

    def test_exact_above_three_thousand_unknowns(self):
        # one path at every size: a diagonal matrix has its diagonal as its
        # spectrum, and the decomposition returns it exactly
        assert extreme_eigenvalues(np.diag(np.arange(1.0, 3002.0))) == (1.0, 3001.0)

    @pytest.mark.parametrize("matrix", [
        np.zeros((0, 0)),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.inf]]),
    ], ids=["empty", "nan", "inf"])
    def test_rejects_what_it_cannot_measure(self, matrix):
        with pytest.raises(ValueError):
            extreme_eigenvalues(matrix)

    def test_layout_keeps_the_bits(self, level1_system):
        # the assembled matrix is column-major; its values are, bit for bit,
        # those of its row-major copy
        assert level1_system.matrix.flags.f_contiguous
        assert (extreme_eigenvalues(level1_system.matrix)
                == extreme_eigenvalues(np.ascontiguousarray(level1_system.matrix)))


class TestSlopeCheck:
    def test_exact_power_law(self):
        pairs = [(h, h**-9.0) for h in (1 / 4, 1 / 8, 1 / 16)]
        assert slope_check(pairs) == pytest.approx(9.0, abs=1e-6)

    def test_constant(self):
        pairs = [(h, 7.0) for h in (1 / 4, 1 / 8, 1 / 16)]
        assert slope_check(pairs) == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            slope_check([(0.25, 10.0)])

    @pytest.mark.parametrize("pairs", [
        [(0.25, 10.0), (0.125, -20.0)],
        [(0.25, 10.0), (0.125, np.inf)],
        [(0.25, np.nan), (0.125, 20.0)],
        [(0.0, 10.0), (0.125, 20.0)],
        [(-0.25, 10.0), (0.125, 20.0)],
        [(0.25, 10.0), (0.25, 20.0)],
        [],
    ], ids=["negative-kappa", "infinite-kappa", "nan-kappa", "zero-h",
            "negative-h", "one-distinct-h", "empty"])
    def test_rejects_degenerate_pairs(self, pairs):
        with pytest.raises(ValueError):
            slope_check(pairs)


@pytest.fixture(scope="module")
def small_experiment():
    return run_experiment(MultiscaleConfig(n_levels=2), quad_points=60, eigen_levels=2)


class TestRunExperiment:
    @pytest.mark.parametrize("bad", [1.5, -1, True, 2.0, None])
    def test_eigen_levels_must_be_a_count(self, monkeypatch, bad):
        def refuse(*args, **kwargs):
            raise AssertionError("ran before eigen_levels was checked")

        monkeypatch.setattr(analysis, "run", refuse)
        with pytest.raises(ValueError, match="eigen_levels"):
            run_experiment(MultiscaleConfig(n_levels=2), quad_points=10, eigen_levels=bad)

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_dense_guard_counts_the_copies(self, monkeypatch, memory, level):
        # exactly copies * 8 n^2 bytes for the top level's n unknowns pass
        # and one byte less fails, before any work: the matrix, and the copy
        # that the eigenvalues take when they reach the top level (by
        # default the first 3 levels).  The stand-in for the first step
        # after the guard, the quadrature grid, allocates nothing
        n = make_level_pointset(level).n_functionals
        monkeypatch.setattr(analysis, "gauss_legendre_grid", memory.passed)
        for eigen_levels, copies in ((3, 2 if level <= 3 else 1), (level, 2), (0, 1)):
            memory.bytes = copies * 8 * n * n
            with pytest.raises(memory.Passed):
                run_experiment(MultiscaleConfig(n_levels=level), eigen_levels=eigen_levels)
            memory.bytes -= 1
            with pytest.raises(ValueError, match=f"{copies} dense {n} x {n}"):
                run_experiment(MultiscaleConfig(n_levels=level), eigen_levels=eigen_levels)

    def test_report_shape(self, small_experiment):
        model, report = small_experiment
        assert report.n_levels == 2
        assert len(report.velocity_l2) == 2
        assert set(report.condition_numbers) == {1, 2}
        assert all(v > 0 for v in report.velocity_l2)

    def test_error_decays(self, small_experiment):
        _, report = small_experiment
        assert report.velocity_l2[1] < report.velocity_l2[0]
        assert report.pressure_grad_l2[1] < report.pressure_grad_l2[0]

    def test_condition_numbers_increase_and_positive(self, small_experiment):
        _, report = small_experiment
        assert report.condition_numbers[2] > report.condition_numbers[1] > 0
        assert all(v > 0 for v in report.lambda_min.values())

    def test_report_against_norm_functions(self, small_experiment):
        model, report = small_experiment
        problem = trig_stokes_problem()
        direct, direct_inf = grid_errors(model, problem, "velocity", report.quad_points)
        assert direct == pytest.approx(report.velocity_l2[-1], rel=1e-12)
        assert direct_inf == pytest.approx(report.velocity_linf[-1], rel=1e-12)

    def test_quadrature_self_consistency(self, small_experiment):
        # the error fields are entire; two quadrature orders must agree
        model, _ = small_experiment
        problem = trig_stokes_problem()
        a, _ = grid_errors(model, problem, "velocity", 100)
        b, _ = grid_errors(model, problem, "velocity", 150)
        assert abs(a - b) <= 1e-3 * max(a, b)

    def test_csv_layout(self, small_experiment, tmp_path):
        _, report = small_experiment
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "level,1,2"
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == [
            "delta", "velocity_l2", "velocity_linf",
            "pressure_grad_l2", "pressure_grad_linf",
        ]
        # scientific notation with 4 significant digits on error rows
        assert all("e" in cell for cell in lines[2].split(",")[1:])

    def test_no_matrix_alive_during_grid_evaluation(self, monkeypatch):
        # the grid is evaluated after the level loop: every system that
        # on_level saw, and its matrix, is gone by then
        refs, alive = [], []
        real_run, real_evaluate = analysis.run, analysis.evaluate_fields

        def wrapped_run(problem, config, on_level):
            def recording(index, system, solution):
                refs.extend([weakref.ref(system), weakref.ref(system.matrix)])
                on_level(index, system, solution)

            return real_run(problem, config, on_level=recording)

        def wrapped_evaluate(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(analysis, "run", wrapped_run)
        monkeypatch.setattr(analysis, "evaluate_fields", wrapped_evaluate)
        _, report = run_experiment(MultiscaleConfig(n_levels=2), quad_points=20, eigen_levels=2)
        assert len(refs) == 4 and set(report.condition_numbers) == {1, 2}
        # one call per level evaluates both fields
        assert alive == [0] * 2

    def test_run_gathers_no_matrix(self, monkeypatch):
        # without eigenvalues, every level's solve reads its A from the
        # lattice tables alone: no level's dense A is gathered
        def refuse(system):
            raise AssertionError("A gathered")

        monkeypatch.setattr(collocation.CollocationSystem, "matrix", property(refuse))
        _, report = run_experiment(MultiscaleConfig(n_levels=3), quad_points=20, eigen_levels=0)
        assert report.n_levels == 3 and not report.condition_numbers
        with pytest.raises(AssertionError, match="A gathered"):  # the eigenvalues gather it
            run_experiment(MultiscaleConfig(n_levels=1), quad_points=20, eigen_levels=1)

    def test_run_uses_no_numpy_eigensolver(self, monkeypatch):
        # numpy and scipy each bundle an OpenBLAS whose worker busy-waits
        # after a threaded call; the quadrature nodes and the eigenvalues
        # take scipy's, the one every solve uses, so numpy's stays asleep
        def refuse(*args, **kwargs):
            raise AssertionError("numpy eigensolver called")

        for name in ("eigvalsh", "eigh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, refuse)
        _, report = run_experiment(MultiscaleConfig(n_levels=2), quad_points=20, eigen_levels=2)
        assert report.n_levels == 2 and set(report.condition_numbers) == {1, 2}

    def test_conditioning_matches_eigvalsh(self):
        # the report's lambda_min and kappa at levels 1-3 against numpy's
        # eigvalsh of the same matrices.  Both are backward stable: an
        # eigenvalue moves by about eps ||A|| = eps lambda_max, so lambda_min
        # (and with it kappa) by about eps kappa relative -- 0.11 at level 3
        model, report = run_experiment(MultiscaleConfig(n_levels=3), quad_points=10)
        zero = lambda pts: np.zeros((len(pts), 2))
        eps = np.finfo(float).eps
        assert set(report.lambda_min) == set(report.condition_numbers) == {1, 2, 3}
        for level, sol in enumerate(model.levels, 1):
            values = np.linalg.eigvalsh(assemble(sol.pointset, sol.kernel, zero, zero).matrix)
            kappa = values[-1] / values[0]
            assert report.lambda_min[level] == pytest.approx(values[0], rel=eps * kappa)
            assert report.condition_numbers[level] == pytest.approx(kappa, rel=eps * kappa)

    def test_grid_memory_fits_the_guard(self):
        # the growth of run_experiment's traced peak per grid point, between
        # two grids that set the peak (one level), is within _GRID_BYTES, the
        # bytes a point that gauss_legendre_grid checks against memory
        def peak(q):
            tracemalloc.start()
            try:
                run_experiment(MultiscaleConfig(n_levels=1), quad_points=q, eigen_levels=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = 150, 300
        growth = (peak(large) - peak(small)) / (large**2 - small**2)
        assert 0 < growth <= analysis._GRID_BYTES
