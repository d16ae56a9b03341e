import math

import numpy as np
import pytest

from stokesrbf.geometry import (
    EmptyPointSet,
    LevelPointSet,
    SinglePoint,
    export_points_csv,
    grid_spacing,
    make_level_pointset,
    mesh_norm,
    separation_distance,
)


@pytest.mark.parametrize(
    "level,interior,boundary,h",
    [
        (1, 25, 16, 0.25),
        (2, 81, 32, 0.125),
        (3, 289, 64, 1 / 16),
        (4, 1089, 128, 1 / 32),
        (5, 4225, 256, 1 / 64),
    ],
)
def test_level_counts(level, interior, boundary, h):
    ps = make_level_pointset(level)
    assert ps.n_interior == interior
    assert ps.n_boundary == boundary
    assert grid_spacing(level) == h
    assert ps.n_functionals == 2 * (interior + boundary)


def test_counts_follow_power_law():
    for level in (1, 2, 3):
        ps = make_level_pointset(level)
        n = 2 ** (level + 1)
        assert ps.n_interior == (n + 1) ** 2
        assert ps.n_boundary == 4 * n


def test_boundary_points_lie_on_perimeter():
    ps = make_level_pointset(2)
    for x, y in ps.boundary:
        assert x in (0.0, 1.0) or y in (0.0, 1.0)
    # pairwise distinct within each list
    assert len(np.unique(ps.interior, axis=0)) == ps.n_interior
    assert len(np.unique(ps.boundary, axis=0)) == ps.n_boundary


def test_mesh_norm_level1_grid():
    ps = make_level_pointset(1)
    # farthest point from a full grid is a cell centre
    expected = math.sqrt(2) / 8
    estimate = mesh_norm(ps.interior, 1000)
    assert estimate <= expected + 1e-12
    assert estimate >= expected - math.sqrt(2) / 999
    # an aligned probe grid hits cell centres exactly
    assert mesh_norm(ps.interior, 65) == pytest.approx(expected, abs=1e-15)


def test_mesh_norm_single_point():
    assert mesh_norm([(0.5, 0.5)], 401) == pytest.approx(math.sqrt(2) / 2, abs=5e-3)


def test_mesh_norm_refinement_monotone():
    ps = make_level_pointset(1)
    # nested probe grids: the estimate grows toward the true supremum
    estimates = [mesh_norm(ps.interior, n) for n in (101, 201, 401)]
    assert estimates[0] <= estimates[1] <= estimates[2]


def test_mesh_norm_errors():
    with pytest.raises(EmptyPointSet):
        mesh_norm(np.empty((0, 2)), 100)
    with pytest.raises(ValueError):
        mesh_norm([(0.5, 0.5)], 1)


@pytest.mark.parametrize("level,expected", [(1, 1 / 8), (3, 1 / 32)])
def test_separation_of_level_grids(level, expected):
    ps = make_level_pointset(level)
    assert separation_distance(ps.interior) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("bad", ["complex", "three coordinates"])
def test_distances_reject_points_that_are_not_real_pairs(bad):
    # (n, 3) points gave their 3-D separation (0.4717) and complex points
    # the separation (0.25) and mesh norm (0.7071) of their real parts
    points = np.array({"complex": [(0.5 + 0.5j, 0.5), (0.0, 0.0)],
                       "three coordinates": [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)]}[bad])
    with pytest.raises(ValueError):
        separation_distance(points)
    if bad == "complex":
        with pytest.raises(ValueError):
            mesh_norm(points, 11)


@pytest.mark.parametrize("density", [2.5, np.float64(3.0), True])
def test_mesh_norm_probe_density_must_be_an_integer(density):
    # 2.5 raised TypeError from inside numpy
    with pytest.raises(ValueError, match="integer"):
        mesh_norm([(0.5, 0.5)], density)


def test_separation_two_points():
    assert separation_distance([(0.0, 0.0), (1.0, 0.0)]) == 0.5


def test_separation_errors():
    with pytest.raises(EmptyPointSet):
        separation_distance(np.empty((0, 2)))
    with pytest.raises(SinglePoint):
        separation_distance([(0.3, 0.3)])


def test_quasi_uniformity_across_levels():
    ratios = []
    for level in range(1, 6):
        ps = make_level_pointset(level)
        # aligned probe grid: a multiple of the cell count per side lands
        # probes exactly on the cell centres, so the fill distance is exact
        n = 2 ** (level + 1)
        fill = mesh_norm(ps.interior, max(8 * n, 256) + 1)
        ratios.append(fill / separation_distance(ps.interior))
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread <= 0.05
    # and the grid spacing halves per level (mesh ratio mu = 1/2)
    hs = [grid_spacing(level) for level in range(1, 6)]
    for a, b in zip(hs, hs[1:]):
        assert b == a / 2


def test_export_csv(tmp_path):
    ps = make_level_pointset(1)
    path = tmp_path / "points.csv"
    export_points_csv(ps, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,kind"
    assert len(lines) == 1 + ps.n_interior + ps.n_boundary
    assert sum(1 for l in lines if l.endswith(",boundary")) == ps.n_boundary
    assert lines[1] == "0.0,0.0,interior"
    x, y, kind = lines[2].split(",")
    assert float(x) == 0.0 and float(y) == 0.25 and kind == "interior"


def test_rejects_level_zero():
    with pytest.raises(ValueError):
        make_level_pointset(0)


@pytest.mark.parametrize("level", [1.5, True, 2.0, "2", None])
def test_rejects_levels_that_are_not_integers(level):
    # level 1.5 built 36 centres reaching only x = 0.884, and True was level 1
    with pytest.raises(ValueError, match="integer"):
        make_level_pointset(level)


def test_accepts_numpy_integer_levels():
    assert make_level_pointset(np.int64(2)).n_interior == 81


def test_rejects_levels_beyond_memory():
    # level 40 has (2^41 + 1)^2 centres, which numpy refuses at once
    with pytest.raises(ValueError, match="memory"):
        make_level_pointset(40)


@pytest.mark.parametrize("bad", [
    np.zeros((3, 3)), np.zeros(3), np.zeros((2, 2, 2)), np.zeros((2, 2), complex),
    [["a", "b"]], None, [(0.5, np.nan)], [(np.inf, 0.5)]])
@pytest.mark.parametrize("where", ["interior", "boundary"])
def test_point_set_needs_real_finite_pairs(bad, where):
    # an (n, 3) array was accepted and evaluated to plausible numbers
    centres = {"interior": np.full((2, 2), 0.5), "boundary": np.zeros((1, 2)), where: bad}
    with pytest.raises(ValueError, match=where):
        LevelPointSet(**centres)


def test_point_set_holds_read_only_copies():
    # the centres are float64 copies that cannot be edited in place, so a
    # point set always means the same centres; empty sets are allowed
    given = np.array([(0, 1), (1, 0)])
    ps = LevelPointSet(interior=given, boundary=np.zeros((0, 2)))
    given[0, 0] = 7
    assert ps.interior.dtype == np.float64 and ps.interior.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert ps.n_boundary == 0 and ps.n_functionals == 4
    level = make_level_pointset(2)
    for centres in (ps.interior, level.interior, level.boundary):
        with pytest.raises(ValueError, match="read-only"):
            centres[0, 0] = 0.25
    assert level.interior[0, 0] == 0.0
