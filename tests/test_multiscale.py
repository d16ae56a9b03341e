import itertools
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stokesrbf import collocation, multiscale
from stokesrbf.cli import REFERENCE_DELTAS
from stokesrbf.collocation import (
    LevelSolution,
    NotPositiveDefinite,
    evaluate,
    evaluate_fields,
    evaluate_levels,
)
from stokesrbf.multiscale import (
    MultiscaleConfig,
    MultiscaleModel,
    evaluate_model,
    load_model,
    run,
    save_model,
    scale_schedule,
)
from stokesrbf.geometry import make_level_pointset
from stokesrbf.radial import Displacements
from stokesrbf.stokes_kernel import StokesKernelConfig
from stokesrbf.wendland import wendland_from_integral

class TestSchedule:
    def test_matches_published_values(self):
        config = MultiscaleConfig(n_levels=5)
        for got, expected in zip(scale_schedule(config), REFERENCE_DELTAS):
            assert abs(got - expected) <= 0.01

    def test_geometric_ratio(self):
        config = MultiscaleConfig(n_levels=6)
        deltas = scale_schedule(config)
        expected = 2 ** ((config.tau - 2) / (config.tau + 1))
        for a, b in zip(deltas, deltas[1:]):
            assert a / b == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.3704, abs=2e-4)

    def test_linear_in_beta(self):
        full = scale_schedule(MultiscaleConfig(n_levels=3))
        halved = scale_schedule(MultiscaleConfig(n_levels=3, beta=18.779 / 2))
        assert np.allclose(np.array(halved), np.array(full) / 2, rtol=1e-14)

    def test_rejects_flat_tau(self):
        for tau in (2.0, float("nan")):
            with pytest.raises(ValueError):
                MultiscaleConfig(n_levels=2, tau=tau)

    @pytest.mark.parametrize("bad", [
        {"beta": float("inf")}, {"beta": float("nan")}, {"beta": 0.0}, {"beta": -18.779},
        {"nu": float("inf")}, {"nu": float("nan")}, {"nu": 0.0}, {"nu": -1.0},
        {"n_levels": True}, {"n_levels": 2.0}, {"n_levels": 2.5}, {"n_levels": "2"},
        {"tau": float("inf")}])
    def test_rejects_what_run_cannot_use(self, bad):
        # beta = inf gave the schedule [inf, ...]; a bool or float level
        # count, a nan or non-positive beta or nu were taken as well, and
        # tau = inf, which gave delta_j = beta h_j
        with pytest.raises(ValueError):
            MultiscaleConfig(**{"n_levels": 2, **bad})

    @pytest.mark.parametrize("name", ["beta", "nu", "tau"])
    @pytest.mark.parametrize("bad", [True, "5", None])
    def test_rejects_what_is_not_a_real_number(self, name, bad):
        # a bool was taken as 1 and a str or None raised TypeError
        with pytest.raises(ValueError, match=name):
            MultiscaleConfig(n_levels=2, **{name: bad})

    def test_keeps_a_numpy_float(self):
        config = MultiscaleConfig(n_levels=2, nu=np.float32(0.5))
        assert type(config.nu) is np.float32

    def test_takes_numpy_integers(self):
        assert scale_schedule(MultiscaleConfig(n_levels=np.int64(2))) == scale_schedule(
            MultiscaleConfig(n_levels=2))


def test_single_level_equals_plain_solve(problem, level1_solution):
    model = run(problem, MultiscaleConfig(n_levels=1))
    assert model.n_levels == 1
    np.testing.assert_allclose(
        model.levels[0].coefficients, level1_solution.coefficients, rtol=1e-12
    )
    pts = np.array([[0.21, 0.34], [0.7, 0.55]])
    np.testing.assert_allclose(
        evaluate_model(model, pts), evaluate(level1_solution, pts)[0], rtol=1e-12
    )


@pytest.fixture(scope="module")
def model2(problem):
    return run(problem, MultiscaleConfig(n_levels=2))


def test_telescoping_two_levels(problem, model2):
    # after two levels the accumulated momentum image matches the original
    # forcing at the level-2 interior points
    interior = model2.levels[1].pointset.interior
    l_image = evaluate_model(model2, interior, request="l-image")
    target = problem.f(interior)
    assert np.abs(l_image - target).max() <= 1e-6 * np.abs(target).max()
    boundary = model2.levels[1].pointset.boundary
    vel = evaluate_model(model2, boundary)
    assert np.abs(vel - problem.g(boundary)).max() <= 1e-6 * np.abs(vel).max()


def test_residual_closures_telescope(problem, model2, rng):
    # f_2 = f - L M_2 v and g_2 = g - M_2 u as identities of evaluators
    from stokesrbf.multiscale import _residual_f, _residual_g

    pts = rng.uniform(0, 1, size=(100, 2))
    f2 = _residual_f(problem, model2.levels)(pts)
    expected = problem.f(pts) - evaluate_model(model2, pts, request="l-image")
    scale = np.abs(problem.f(pts)).max()
    assert np.abs(f2 - expected).max() <= 1e-6 * scale
    g2 = _residual_g(problem, model2.levels)(pts)
    expected_g = problem.g(pts) - evaluate_model(model2, pts)
    assert np.abs(g2 - expected_g).max() <= 1e-6 * np.abs(problem.g(pts)).max()


def test_second_level_reduces_error(problem, model2, rng):
    pts = rng.uniform(0, 1, size=(400, 2))
    exact = problem.u(pts)
    err1 = evaluate(model2.levels[0], pts)[0] - exact
    err2 = evaluate_model(model2, pts) - exact
    assert np.abs(err2).max() < 0.2 * np.abs(err1).max()


def test_model_divergence_free(model2, rng):
    pts = rng.uniform(0, 1, size=(500, 2))
    div = evaluate_model(model2, pts, request="divergence")
    vel = evaluate_model(model2, pts)
    assert np.abs(div).max() <= 1e-8 * np.abs(vel).max()


def test_empty_model_evaluates_to_zero():
    model = MultiscaleModel(levels=[], config=MultiscaleConfig(n_levels=1))
    pts = np.array([[0.5, 0.5]])
    assert np.all(evaluate_model(model, pts) == 0.0)
    assert np.all(evaluate_model(model, pts, request="divergence") == 0.0)
    assert np.all(evaluate_model(model, pts, request="pressure-gradient") == 0.0)


def test_save_load_roundtrip(tmp_path, model2, rng):
    path = tmp_path / "model.bin"
    save_model(model2, path)
    loaded = load_model(path)
    assert loaded.n_levels == model2.n_levels
    # the file stores neither a config nor the solve residuals
    assert loaded.config is None
    assert all(np.isnan(sol.solve_residual) for sol in loaded.levels)
    assert all(0.0 < sol.solve_residual <= 1e-8 for sol in model2.levels)
    pts = rng.uniform(0, 1, size=(40, 2))
    np.testing.assert_array_equal(
        evaluate_model(loaded, pts), evaluate_model(model2, pts)
    )
    for sol, ref in zip(loaded.levels, model2.levels):
        assert sol.kernel.delta == ref.kernel.delta
        np.testing.assert_array_equal(sol.coefficients, ref.coefficients)


def test_save_refuses_another_profile(c8, tmp_path):
    # the file stores no profile and loading reattaches the C^8 one: a
    # level on wendland_from_integral(2, 3) gave (0.497, 2.700) at
    # (0.3, 0.4) before the round trip and (51068.5, 264843.7) after it
    pointset = make_level_pointset(1)
    coefficients = np.random.default_rng(5).standard_normal(pointset.n_functionals)
    path = tmp_path / "model.bin"
    for profile in (wendland_from_integral(2, 3), wendland_from_integral(2, 4)):
        for psi_vel, psi_pre in ((profile, c8), (c8, profile)):
            kernel = StokesKernelConfig(psi_vel, psi_pre, delta=1.0)
            model = MultiscaleModel(levels=[LevelSolution(coefficients, pointset, kernel)])
            with pytest.raises(ValueError, match="profile"):
                save_model(model, path)
            assert not path.exists()
    # any object with the C^8 coefficients still round-trips bit for bit
    model = MultiscaleModel(levels=[LevelSolution(
        coefficients, pointset, StokesKernelConfig(c8, c8, delta=1.0))])
    save_model(model, path)
    x = np.array([[0.3, 0.4], [0.9, 0.05]])
    assert evaluate_model(load_model(path), x).tobytes() == evaluate_model(model, x).tobytes()


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("models") / "model.bin"


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_model_file_roundtrip(model2, model_path, data):
    # any finite coefficients and scales on 0-2 levels come back bit for
    # bit; a level with a coefficient that is not finite cannot be built
    # (a file that holds one: test_load_rejects_a_value_that_is_not_finite)
    levels = []
    for sol in model2.levels[: data.draw(st.integers(0, 2))]:
        coeffs = data.draw(arrays(np.float64, len(sol.coefficients)))
        delta = data.draw(st.floats(1e-3, 1e3))
        if not np.isfinite(coeffs).all():
            with pytest.raises(ValueError, match="not finite"):
                LevelSolution(coeffs, sol.pointset, sol.kernel.rescaled(delta))
            return
        levels.append(LevelSolution(coeffs, sol.pointset, sol.kernel.rescaled(delta)))
    save_model(MultiscaleModel(levels=levels, config=model2.config), model_path)
    loaded = load_model(model_path)
    assert loaded.n_levels == len(levels)
    for sol, ref in zip(loaded.levels, levels):
        assert (sol.kernel.delta, sol.kernel.nu) == (ref.kernel.delta, ref.kernel.nu)
        np.testing.assert_array_equal(sol.coefficients, ref.coefficients)
        np.testing.assert_array_equal(sol.pointset.interior, ref.pointset.interior)
        np.testing.assert_array_equal(sol.pointset.boundary, ref.pointset.boundary)


@settings(max_examples=50, deadline=None)
@given(cut=st.integers(1), suffix=st.binary(min_size=1, max_size=64))
def test_load_rejects_truncated_or_extended_file(model2, model_path, cut, suffix):
    save_model(model2, model_path)
    raw = model_path.read_bytes()
    model_path.write_bytes(raw[: max(len(raw) - cut, 0)])
    with pytest.raises(ValueError):
        load_model(model_path)
    model_path.write_bytes(raw + suffix)
    with pytest.raises(ValueError):
        load_model(model_path)


@pytest.mark.parametrize("where", ["interior", "boundary", "coefficients"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_a_value_that_is_not_finite(model2, tmp_path, where, value):
    # an evaluation skips the blocks that vanish by construction, which
    # keeps every bit only while the coefficients are finite.  Such a level
    # cannot be built, so the value is written into the saved file's last
    # level: its interior, boundary and coefficient arrays end the file
    sol = model2.levels[1]
    parts = {"interior": sol.pointset.interior.copy(), "boundary": sol.pointset.boundary.copy(),
             "coefficients": sol.coefficients.copy()}
    good = b"".join(a.astype("<f8").tobytes() for a in parts.values())
    parts[where][3] = value
    bad = b"".join(a.astype("<f8").tobytes() for a in parts.values())
    path = tmp_path / "model.bin"
    save_model(model2, path)
    raw = path.read_bytes()
    assert model2.n_levels == 2 and raw.endswith(good)
    path.write_bytes(raw[: len(raw) - len(good)] + bad)
    with pytest.raises(ValueError, match="not finite"):
        load_model(path)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a model")
    with pytest.raises(ValueError):
        load_model(path)


def test_definiteness_failure_reports_level(problem):
    # a scale vastly above the domain size collapses the columns to near
    # duplicates and the factorization must fail, naming the level
    config = MultiscaleConfig(n_levels=1, beta=1e9)
    with pytest.raises(NotPositiveDefinite) as err:
        run(problem, config)
    assert "level 1" in str(err.value)


BAD_POINTS = {
    "nan": [[np.nan, 0.5], [0.3, 0.2]],
    "+inf": [[0.3, 0.2], [np.inf, 0.2]],
    "-inf": [[0.5, -np.inf]],
    "three coordinates": [[0.3, 0.3, 99.0], [0.1, 0.2, 0.3]],
    "one 3-vector": [0.3, 0.3, 99.0],
    "complex": [[0.5 + 0.3j, 0.5]],
}


def _entry_points(problem, model):
    from stokesrbf.multiscale import _residual_f, _residual_g

    sol = model.levels[0]
    empty = MultiscaleModel(levels=[], config=model.config)
    return {
        "evaluate": lambda x: evaluate(sol, x),
        "evaluate_fields": lambda x: evaluate_fields(sol, x, "pressure-gradient"),
        "evaluate_model": lambda x: evaluate_model(model, x),
        "evaluate_model, no levels": lambda x: evaluate_model(empty, x),
        "residual_f": _residual_f(problem, model.levels),
        "residual_g": _residual_g(problem, model.levels),
        "residual_f, no levels": _residual_f(problem, []),
        "residual_g, no levels": _residual_g(problem, []),
    }


@pytest.mark.parametrize("bad", BAD_POINTS)
def test_bad_query_points_rejected(problem, model2, bad):
    # every entry point checks the points before it evaluates anything: a
    # complex batch cast to float first would warn and lose its imaginary part
    for entry in _entry_points(problem, model2).values():
        with pytest.raises(ValueError), warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            entry(np.array(BAD_POINTS[bad]))


def test_good_query_shapes_still_evaluate(problem, model2):
    for entry in _entry_points(problem, model2).values():
        entry(np.array([0.4, 0.6]))
        entry(np.zeros((0, 2)))
    sol = model2.levels[0]
    vel, pres = evaluate(sol, (0.4, 0.6))
    assert vel.shape == (2,) and isinstance(pres, float)
    vel, pres = evaluate(sol, np.zeros((0, 2)))
    assert vel.shape == (0, 2) and pres.shape == (0,)
    assert evaluate_fields(sol, np.zeros((0, 2)), "divergence").shape == (0,)
    assert evaluate_model(model2, np.zeros((0, 2))).shape == (0, 2)
    assert evaluate_model(model2, (0.4, 0.6)).shape == (1, 2)
    # a model without levels answers every request in that request's shape
    empty = MultiscaleModel(levels=[], config=model2.config)
    x = np.array([[0.4, 0.6], [0.1, 0.2], [0.3, 0.9]])
    for request in ("value", "velocity", "l-image", "divergence", "pressure-gradient"):
        got = evaluate_model(empty, x, request)
        assert got.shape == evaluate_model(model2, x, request).shape
        assert not got.any()
    assert evaluate_model(empty, x, "value").shape == (3, 3)
    assert evaluate_model(empty, x, "divergence").shape == (3,)
    for model in (model2, empty):
        with pytest.raises(ValueError):
            evaluate_model(model, x, "curl")


REQUESTS = ("value", "velocity", "l-image", "divergence", "pressure-gradient")
# 16 points of the grid of step 1/32, some of them off the grid of step 1/16
LATTICE16 = np.random.default_rng(32).integers(0, 33, (16, 2)) / 32


def batch_of(name, rng):
    """The query batch ``name``: n random points ("random-n"), a (2,) point,
    a (0, 2) batch or LATTICE16."""
    if name.startswith("random-"):
        return rng.random((int(name.split("-")[1]), 2))
    return {"point": np.array([0.3, 0.8]), "empty": np.zeros((0, 2)),
            "lattice-16": LATTICE16}[name]


def random_model(c8, rng, nus=(1.0, 1.0, 1.0, 1.0), profiles=None):
    """The levels of the 4-level schedule with random coefficients,
    viscosities ``nus`` and profiles (all ``c8`` by default): sums of their
    blocks need no solve."""
    levels = []
    deltas = scale_schedule(MultiscaleConfig(n_levels=4))
    for j, (delta, nu, psi) in enumerate(zip(deltas, nus, profiles or [c8] * 4)):
        pointset = make_level_pointset(j + 1)
        levels.append(LevelSolution(rng.standard_normal(pointset.n_functionals), pointset,
                                    StokesKernelConfig(psi, psi, nu=nu, delta=delta)))
    return MultiscaleModel(levels=levels)


def test_lattice_batch_is_gathered_at_some_levels_only(c8, rng):
    # the batch meets the level-3 and level-4 centres on their lattice, and
    # each of those blocks is gathered from a table, but not the level-1 and
    # level-2 centres (their table would be larger than the block) nor any
    # boundary centres: those share the displacement sets of the batch
    model = random_model(c8, rng)
    labels = [("velocity", 1), ("velocity", 2)]
    tables = collocation._tables([(sol.kernel, sol.pointset) for sol in model.levels],
                                 [(LATTICE16, labels)])
    assert [sorted({col[0] for _, col in level}) for level in tables] == [
        [], [], ["pde"], ["pde"]]


@pytest.mark.parametrize("levels", ["one-nu", "four-nus", "two-profiles"])
@pytest.mark.parametrize("batch", [
    "random-1", "random-16", "random-129", "random-301", "point", "empty", "lattice-16"])
def test_one_pass_equals_the_sum_of_levels(c8, rng, levels, batch):
    # the levels evaluated in one pass -- one displacement set per centre
    # kind and profile, each column at its own level's scale and viscosity
    # -- give, bit for bit, each level evaluated alone, added in level order
    other = wendland_from_integral(2, 4)
    model = random_model(c8, rng, *{
        "one-nu": (), "four-nus": ((1.0, 0.5, 3.0, 0.07),),
        "two-profiles": ((1.0, 1.0, 1.0, 1.0), (c8, other, other, c8))}[levels])
    x = batch_of(batch, rng)
    for request in REQUESTS:
        expected = None
        for sol in model.levels:
            field = evaluate_fields(sol, x, request)
            expected = field if expected is None else expected + field
        got = evaluate_model(model, x, request)
        assert got.shape == ((1,) if np.ndim(x) == 1 else ()) + np.shape(expected)
        assert got.tobytes() == expected.tobytes(), request


def test_one_pass_builds_one_set_per_centre_kind(c8, rng, monkeypatch):
    # a random batch lies on no lattice with any level's centres: the four
    # levels share one displacement set for the interior centres and one for
    # the boundary centres, where a set per level and kind would be eight.
    # The pressure gradient reads no boundary set: its blocks against the
    # boundary centres vanish
    model = random_model(c8, rng)
    sets = []
    init = Displacements.__init__

    def counting_init(self, *args):
        sets.append(self)
        init(self, *args)

    monkeypatch.setattr(Displacements, "__init__", counting_init)
    for request, kinds in (("velocity", ("interior", "boundary")),
                           ("pressure-gradient", ("interior",))):
        sets.clear()
        evaluate_model(model, rng.random((16, 2)), request)
        assert [len(s.columns) for s in sets] == [
            sum(len(getattr(sol.pointset, kind)) for sol in model.levels)
            for kind in kinds], request


@pytest.mark.parametrize("levels", [1, 4])
@pytest.mark.parametrize("batch", [
    "random-1", "random-16", "random-129", "random-301", "point", "empty", "lattice-16"])
def test_several_requests_keep_the_bits_of_each(c8, rng, levels, batch):
    # the rows of several requests form one row set, whose slabs read one
    # displacement set per centre kind for all of them: every field of the
    # joint call equals, bit for bit, its request evaluated alone, for every
    # pair of requests (a request twice, or two that share labels, included)
    solutions = random_model(c8, rng).levels[:levels]
    x = batch_of(batch, rng)
    alone = {request: evaluate_levels(solutions, x, request) for request in REQUESTS}
    for pair in itertools.combinations_with_replacement(REQUESTS, 2):
        got = evaluate_levels(solutions, x, pair)
        assert isinstance(got, tuple) and len(got) == 2
        for request, field in zip(pair, got):
            assert field.shape == alone[request].shape, pair
            assert field.tobytes() == alone[request].tobytes(), pair
        if levels == 1:  # the one-level form, with its (2,) point shape
            for request, field in zip(pair, evaluate_fields(solutions[0], x, pair)):
                expected = evaluate_fields(solutions[0], x, request)
                assert field.shape == expected.shape
                assert field.tobytes() == expected.tobytes(), pair


def test_several_requests_reject_none_and_unknown(c8, rng):
    sol = random_model(c8, rng).levels[0]
    for bad in ((), ("velocity", "curl")):
        with pytest.raises(ValueError):
            evaluate_fields(sol, (0.4, 0.6), bad)


@pytest.mark.parametrize("batch", ["random-16", "random-301", "point", "lattice-16"])
def test_model_sums_each_of_several_requests(c8, rng, batch):
    # a sequence of requests gives one level-ordered sum per request, each
    # bit-equal to the sum of that request alone
    model = random_model(c8, rng)
    x = batch_of(batch, rng)
    for pair in [("velocity", "pressure-gradient"), ["divergence", "value", "divergence"]]:
        got = evaluate_model(model, x, pair)
        assert isinstance(got, tuple) and len(got) == len(pair)
        for request, field in zip(pair, got):
            alone = evaluate_model(model, x, request)
            assert field.shape == alone.shape and field.tobytes() == alone.tobytes(), request


@pytest.mark.parametrize("bad", [3, None, b"velocity", ["velocity", 3], ("velocity", None)])
def test_requests_neither_names_nor_sequences_are_rejected_first(c8, rng, monkeypatch, bad):
    model = random_model(c8, rng)

    def refuse(*args):
        raise AssertionError("evaluated before the request was checked")

    monkeypatch.setattr(collocation, "_apply_rows", refuse)
    for call in (lambda: evaluate_levels(model.levels, (0.4, 0.6), bad),
                 lambda: evaluate_fields(model.levels[0], (0.4, 0.6), bad),
                 lambda: evaluate_model(model, (0.4, 0.6), bad)):
        with pytest.raises(ValueError, match="request"):
            call()


def test_joint_request_reads_one_set_per_centre_kind(c8, rng, monkeypatch):
    # velocity and pressure gradient of one slab in one call: one
    # displacement set per centre kind (two each for two calls), and the
    # radials that differ only in sign are computed once: 7 Horner radials
    # in the interior set, where the two requests' evaluators hold 8 up to
    # sign, and 2 in the boundary set, where velocity holds 3
    sol = random_model(c8, rng).levels[3]
    sets = []
    init = Displacements.__init__

    def counting_init(self, *args):
        sets.append(self)
        init(self, *args)

    monkeypatch.setattr(Displacements, "__init__", counting_init)
    x = rng.random((collocation._SLAB, 2))
    evaluate_fields(sol, x, ("velocity", "pressure-gradient"))
    assert [len(s.columns) for s in sets] == [sol.pointset.n_interior, sol.pointset.n_boundary]
    radials = [sorted(key for key in s._values if key[0] == "h") for s in sets]
    assert [len(keys) for keys in radials] == [7, 2]
    # every radial is kept with a positive top coefficient
    assert all(coeffs[-1] > 0 for keys in radials for _, _, coeffs in keys)


@pytest.mark.parametrize("batch", ["random-16", "random-301", "lattice-16", "point"])
def test_pressure_gradient_reads_no_dirichlet_column(c8, rng, monkeypatch, batch):
    # the kernel is block diagonal: a pressure-gradient row against a
    # Dirichlet column is zero by construction, and no product is made
    # against those columns, whether their blocks would be computed or
    # gathered from a table
    model = random_model(c8, rng)
    x = batch_of(batch, rng)
    seen = []
    slab_blocks = collocation._slab_blocks

    def recording(plan, *args):
        for j, row, rows, cols, block in slab_blocks(plan, *args):
            seen.append((j, cols))
            yield j, row, rows, cols, block

    monkeypatch.setattr(collocation, "_slab_blocks", recording)
    evaluate_model(model, x, "pressure-gradient")
    assert {j for j, _ in seen} == {0, 1, 2, 3}
    for j, cols in seen:
        assert cols.stop <= 2 * model.levels[j].pointset.n_interior


def plan_builds(monkeypatch):
    """The levels of every `_ColumnPlan` built from now on, one list each."""
    builds = []
    init = collocation._ColumnPlan.__init__

    def counting_init(self, levels):
        builds.append(list(levels))
        init(self, levels)

    monkeypatch.setattr(collocation._ColumnPlan, "__init__", counting_init)
    return builds


def with_fresh_plan(monkeypatch, call):
    """call() with the column plan built anew for it."""
    monkeypatch.setattr(collocation, "_last_plan", None)
    return call()


def query_stream(seed, count):
    """Seeded batches of 1-16 points, alternating velocity and ∇p."""
    rng = np.random.default_rng(seed)
    return [(rng.random((int(rng.integers(1, 17)), 2)), ("velocity", "pressure-gradient")[k % 2])
            for k in range(count)]


def test_one_plan_serves_a_stream_of_queries(c8, rng, monkeypatch, tmp_path):
    # the columns of a loaded model -- concatenated centres, scale vectors,
    # distinct coordinates, column sets -- are planned once for a stream of
    # velocity and pressure-gradient queries, and every answer keeps the
    # bits of the same query with a plan of its own
    save_model(random_model(c8, rng), tmp_path / "model.bin")
    model = load_model(tmp_path / "model.bin")
    stream = query_stream(11, 24)
    monkeypatch.setattr(collocation, "_last_plan", None)
    builds = plan_builds(monkeypatch)
    got = [evaluate_model(model, x, request) for x, request in stream]
    assert len(builds) == 1
    for (x, request), field in zip(stream, got):
        fresh = with_fresh_plan(monkeypatch, lambda: evaluate_model(model, x, request))
        assert field.tobytes() == fresh.tobytes(), request


def test_plan_is_rebuilt_for_other_levels(c8, rng, monkeypatch, tmp_path):
    # a plan belongs to the very kernel and point-set objects of its levels:
    # a model grown by a level, one whose level was replaced, and two equal
    # models loaded from one file each get a plan of their own, and every
    # field keeps the bits of the same call with a plan of its own
    full = random_model(c8, rng)
    save_model(full, tmp_path / "model.bin")
    loaded = [load_model(tmp_path / "model.bin") for _ in range(2)]
    model = MultiscaleModel(levels=full.levels[:2])
    x = rng.random((16, 2))
    monkeypatch.setattr(collocation, "_last_plan", None)
    builds = plan_builds(monkeypatch)
    evaluate_model(model, x)

    def grow():
        model.levels.append(full.levels[2])

    def replace():
        model.levels[1] = full.levels[3]

    for change, of in [(grow, model), (replace, model)] + [(None, m) for m in loaded * 2]:
        if change:
            change()
        for request in ("velocity", "pressure-gradient"):
            count = len(builds)
            got = evaluate_model(of, x, request)
            # a new plan at the first request, for the levels as they are now
            assert len(builds) == count + (request == "velocity")
            assert all(a is sol.kernel and p is sol.pointset
                       for (a, p), sol in zip(builds[-1], of.levels, strict=True))
            fresh = with_fresh_plan(monkeypatch, lambda: evaluate_model(of, x, request))
            assert got.tobytes() == fresh.tobytes(), request
    # equal levels of two models give equal bits
    assert evaluate_model(loaded[0], x).tobytes() == evaluate_model(full, x).tobytes()


def test_one_level_twice_in_one_pass(c8, rng, monkeypatch):
    # a plan of a level listed twice reads its centres twice in one set:
    # each copy's field holds the bits of the level evaluated alone
    sol = random_model(c8, rng).levels[1]
    for request in REQUESTS:
        for x in (rng.random((16, 2)), rng.random((301, 2)), LATTICE16):
            got = evaluate_levels([sol, sol], x, request)
            alone = evaluate_fields(sol, x, request)
            assert got[0].tobytes() == alone.tobytes() == got[1].tobytes(), request
            fresh = with_fresh_plan(monkeypatch, lambda: evaluate_levels([sol, sol], x, request))
            assert got.tobytes() == fresh.tobytes(), request


def test_threads_on_two_models_get_their_own_bits(c8, rng):
    # two clients querying two models at once replace each other's plan
    # all the time; every answer keeps the bits it has in a stream alone
    models = [random_model(c8, rng), MultiscaleModel(levels=random_model(c8, rng).levels[1:])]
    streams = [query_stream(seed, 40) for seed in (21, 22)]
    expected = [[evaluate_model(model, x, request) for x, request in stream]
                for model, stream in zip(models, streams)]
    got = [None, None]
    barrier = threading.Barrier(2)

    def client(k):
        barrier.wait()
        got[k] = [evaluate_model(models[k], x, request) for x, request in streams[k]]

    threads = [threading.Thread(target=client, args=(k,)) for k in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for answers, reference in zip(got, expected):
        assert answers is not None
        assert [a.tobytes() for a in answers] == [b.tobytes() for b in reference]


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_run_refuses_levels_beyond_memory_before_the_first(problem, monkeypatch, memory, level):
    # exactly 8 n^2 bytes for the top level's n unknowns pass and one byte
    # less fails before the first level is assembled: the stand-in for the
    # level-1 assembly allocates nothing
    n = make_level_pointset(level).n_functionals
    memory.bytes = 8 * n * n
    monkeypatch.setattr(multiscale, "assemble", memory.passed)
    with pytest.raises(memory.Passed):
        run(problem, MultiscaleConfig(n_levels=level))
    memory.bytes -= 1
    with pytest.raises(ValueError, match=f"levels up to {level}, in 1 dense {n} x {n}"):
        run(problem, MultiscaleConfig(n_levels=level))


def test_six_levels_are_refused_on_a_machine_of_8_4_gb(problem, monkeypatch, memory):
    # the level-6 matrix of 34306^2 entries takes 9.4 GB: the run stops
    # before its first level instead of solving five and failing at the sixth
    memory.bytes = 8_420_000_000
    monkeypatch.setattr(multiscale, "assemble", memory.passed)
    config = MultiscaleConfig(n_levels=6)
    assert len(scale_schedule(config)) == 6
    with pytest.raises(ValueError, match="34306 x 34306"):
        run(problem, config)
