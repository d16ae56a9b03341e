import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stokesrbf.cli import REFERENCE_DELTAS
from stokesrbf.collocation import (
    LevelSolution,
    NotPositiveDefinite,
    evaluate,
    evaluate_fields,
)
from stokesrbf.geometry import make_level_pointset
from stokesrbf.multiscale import (
    MultiscaleConfig,
    MultiscaleModel,
    evaluate_model,
    load_model,
    run,
    save_model,
    scale_schedule,
)

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

    def test_override(self):
        config = MultiscaleConfig(n_levels=2, delta_override=(3.0, 1.5))
        assert scale_schedule(config) == [3.0, 1.5]
        with pytest.raises(ValueError):
            scale_schedule(MultiscaleConfig(n_levels=3, delta_override=(3.0,)))

    def test_rejects_flat_tau(self):
        with pytest.raises(ValueError):
            MultiscaleConfig(n_levels=2, tau=2.0)


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
    loaded = load_model(path, config=model2.config)
    assert loaded.n_levels == model2.n_levels
    pts = rng.uniform(0, 1, size=(40, 2))
    np.testing.assert_array_equal(
        evaluate_model(loaded, pts), evaluate_model(model2, pts)
    )
    for sol, ref in zip(loaded.levels, model2.levels):
        assert sol.kernel.delta == ref.kernel.delta
        np.testing.assert_array_equal(sol.coefficients, ref.coefficients)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("models") / "model.bin"


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_model_file_roundtrip(model2, model_path, data):
    # any coefficients and scales on 0-2 levels come back bit for bit
    levels = []
    for sol in model2.levels[: data.draw(st.integers(0, 2))]:
        coeffs = data.draw(arrays(np.float64, len(sol.coefficients)))
        delta = data.draw(st.floats(1e-3, 1e3))
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


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a model")
    with pytest.raises(ValueError):
        load_model(path)


def test_custom_pointsets_length_checked(problem):
    with pytest.raises(ValueError):
        run(problem, MultiscaleConfig(n_levels=2),
            pointsets=[make_level_pointset(1, probe_density=65)])


def test_definiteness_failure_reports_level(problem):
    # a scale vastly above the domain size collapses the columns to near
    # duplicates and the factorization must fail, naming the level
    config = MultiscaleConfig(n_levels=1, delta_override=(1e9,))
    with pytest.raises(NotPositiveDefinite) as err:
        run(problem, config)
    assert "level 1" in str(err.value)


BAD_POINTS = {
    "nan": [[np.nan, 0.5], [0.3, 0.2]],
    "+inf": [[0.3, 0.2], [np.inf, 0.2]],
    "-inf": [[0.5, -np.inf]],
    "three coordinates": [[0.3, 0.3, 99.0], [0.1, 0.2, 0.3]],
    "one 3-vector": [0.3, 0.3, 99.0],
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
    }


@pytest.mark.parametrize("bad", BAD_POINTS)
def test_bad_query_points_rejected(problem, model2, bad):
    for entry in _entry_points(problem, model2).values():
        # the closures evaluate the closed-form data before the model
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
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
