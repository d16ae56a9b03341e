import dataclasses
import mmap
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from stokesrbf import collocation, radial
from stokesrbf.collocation import (
    CollocationSystem,
    LevelSolution,
    NotPositiveDefinite,
    assemble,
    evaluate,
    evaluate_fields,
    evaluate_levels,
    solve,
    write_matrix,
)
from stokesrbf.analysis import gauss_legendre_grid
from stokesrbf.geometry import LevelPointSet, make_level_pointset
from stokesrbf.multiscale import MultiscaleConfig, scale_schedule
from stokesrbf.radial import Displacements
from stokesrbf.stokes_kernel import StokesKernelConfig, kernel_block
from stokesrbf.wendland import wendland_c8


def documented_groups(pointset):
    """The system's functional groups in the documented order:
    (row label, column label, centres)."""
    return [
        (("pde", 1), ("pde", 1), pointset.interior),
        (("pde", 2), ("pde", 2), pointset.interior),
        (("velocity", 1), ("dirichlet", 1), pointset.boundary),
        (("velocity", 2), ("dirichlet", 2), pointset.boundary),
    ]


def test_level1_system_shape(level1_system, problem):
    assert level1_system.matrix.shape == (82, 82)
    assert level1_system.size == 82
    # ordering: momentum component 1, momentum component 2, then boundary
    # components 1 and 2, as the right-hand side shows
    ps = level1_system.pointset
    assert (ps.n_interior, ps.n_boundary) == (25, 16)
    f, g = problem.f(ps.interior), problem.g(ps.boundary)
    expected = np.concatenate([f[:, 0], f[:, 1], g[:, 0], g[:, 1]])
    np.testing.assert_array_equal(level1_system.rhs, expected)


def test_matrix_symmetric(level1_system):
    a = level1_system.matrix
    assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()


def test_matrix_entries_match_gram(level1_system, c8, problem, monkeypatch):
    # all 16 group blocks, in the documented order, bit for bit: level 1 is
    # one point slab; level 3 (289 interior and 64 boundary centres) is one
    # slab of 384 rows, and three slabs of 128 rows, run on the worker
    # threads, when the rule is forced to 128 rows; level 4 (1089 and 128)
    # is nine slabs of 128 rows.  Both multi-slab systems gather their
    # blocks from lattice tables
    systems = [level1_system]
    deltas = scale_schedule(MultiscaleConfig(n_levels=4))
    for level, entries, n_slabs in ((3, collocation._SLAB_ENTRIES, 1), (3, 0, 3),
                                    (4, collocation._SLAB_ENTRIES, 9)):
        pointset = make_level_pointset(level)
        monkeypatch.setattr(collocation, "_SLAB_ENTRIES", entries)
        assert len(call_plan(pointset.interior, pointset).slabs) == n_slabs
        kernel = StokesKernelConfig(c8, c8, nu=1.0, delta=deltas[level - 1])
        systems.append(assemble(pointset, kernel, problem.f, problem.g))
        monkeypatch.undo()
    for system in systems:
        groups = documented_groups(system.pointset)
        offsets = np.cumsum([0] + [len(pts) for _, _, pts in groups])
        for gi, (row, _, rpts) in enumerate(groups):
            for gj, (_, col, cpts) in enumerate(groups):
                block = system.matrix[
                    offsets[gi]: offsets[gi + 1], offsets[gj]: offsets[gj + 1]
                ]
                expected = kernel_block(system.kernel, row, col, rpts, cpts)
                np.testing.assert_array_equal(block, expected)


def test_solve_identity():
    # one interior and one boundary centre: 4 functionals, as many as the
    # system has unknowns, which a `CollocationSystem` requires
    pointset = LevelPointSet(interior=[(0.5, 0.5)], boundary=[(0.0, 0.5)])
    kernel_stub = None  # unused by solve
    n = 4
    system = CollocationSystem(
        matrix=np.eye(n), rhs=np.eye(n)[0],
        pointset=pointset, kernel=kernel_stub,
    )
    sol = solve(system)
    assert np.allclose(sol.coefficients, np.eye(n)[0])
    assert sol.solve_residual <= 1e-15


def test_mismatched_system_is_rejected_before_the_factorization(level1_system, monkeypatch):
    # a matrix, right-hand side and point set of different sizes raise when
    # the system is built, before any factorization: a 4 x 4 system on the
    # 82 functionals of level 1, a 3-vector against a 4 x 4 matrix on 4
    # functionals, a row or column short, a column of right-hand sides
    factors = []
    real_factor = collocation.cho_factor

    def recording_factor(*args, **kwargs):
        factors.append(args)
        return real_factor(*args, **kwargs)

    monkeypatch.setattr(collocation, "cho_factor", recording_factor)
    level1, kernel = level1_system.pointset, level1_system.kernel
    small = LevelPointSet(interior=[(0.5, 0.5)], boundary=[(0.0, 0.5)])
    n = level1.n_functionals
    for pointset, matrix, rhs in (
            (level1, np.eye(4), np.eye(4)[0]), (small, np.eye(4), np.ones(3)),
            (level1, np.eye(n), np.ones(n - 1)), (level1, np.eye(n)[1:], np.ones(n)),
            (level1, np.eye(n)[:, 1:], np.ones(n)), (level1, np.eye(n), np.ones((n, 1)))):
        with pytest.raises(ValueError, match="matrix"):
            solve(CollocationSystem(matrix=matrix, rhs=rhs, pointset=pointset, kernel=kernel))
    assert not factors
    solve(CollocationSystem(matrix=np.eye(4), rhs=np.ones(4), pointset=small, kernel=None))
    assert len(factors) == 1


@pytest.mark.parametrize("bad", ["three columns", "complex", "nan", "one column"])
@pytest.mark.parametrize("which", ["f_data", "g_data"])
def test_assemble_rejects_data_it_cannot_use(level1_system, problem, which, bad):
    # an (n, 3) array of values gave the right-hand side of its first two
    # columns, complex values were cast with a ComplexWarning, nan values
    # reached the factorization, and 1-d values raised IndexError: each now
    # raises ValueError, named by its data, before a system is built
    spoil = {"three columns": lambda v: np.column_stack([v, v[:, 0]]),
             "complex": lambda v: v + 1e-3j,
             "nan": lambda v: np.where(np.arange(v.size).reshape(v.shape) == 3, np.nan, v),
             "one column": lambda v: v[:, 0]}[bad]
    data = {"f_data": problem.f, "g_data": problem.g}
    data[which] = lambda points, good=data[which]: spoil(good(points))
    with pytest.raises(ValueError, match=which):
        assemble(level1_system.pointset, level1_system.kernel, data["f_data"], data["g_data"])


def test_solve_residual_invariant(level1_solution):
    assert level1_solution.solve_residual <= 1e-8


def test_solve_residual_is_the_slab_residual(problem):
    # solve sums each row in extended precision one _SLAB x _SLAB tile at a
    # time, behind the row's carried partial sum (226 unknowns: two tiles);
    # on the level-2 system, which refines, its residual must equal bit for
    # bit the residual of extended slab copies summed by @
    from stokesrbf.multiscale import run

    systems = {}
    run(problem, MultiscaleConfig(n_levels=2),
        on_level=lambda index, system, solution: systems.setdefault(index, system))
    system = systems[1]
    solution = solve(system)
    rhs_ld = system.rhs.astype(np.longdouble)
    coeffs_ld = solution.coefficients.astype(np.longdouble)
    residual = np.empty(system.size)
    for start in range(0, system.size, collocation._SLAB):
        rows = slice(start, start + collocation._SLAB)
        residual[rows] = rhs_ld[rows] - system.matrix[rows].astype(np.longdouble) @ coeffs_ld
    rhs_norm = float(np.linalg.norm(system.rhs))
    assert solution.solve_residual == float(np.linalg.norm(residual)) / rhs_norm


def test_indefinite_matrix_rejected(level1_system):
    matrix = level1_system.matrix.copy()
    k = 10
    matrix[k, k] = -matrix[k, k]
    bad = CollocationSystem(
        matrix=matrix,
        rhs=level1_system.rhs,
        pointset=level1_system.pointset,
        kernel=level1_system.kernel,
    )
    with pytest.raises(NotPositiveDefinite) as err:
        solve(bad)
    assert err.value.pivot is not None and err.value.pivot <= k + 1


def test_indefinite_column_major_matrix_comes_back(level1_system):
    # the factorization runs in place and fails part way; the matrix is A
    # again, bit for bit, when NotPositiveDefinite reaches the caller
    matrix = np.array(level1_system.matrix, order="F")
    k = 10
    matrix[k, k] = -matrix[k, k]
    before = matrix.copy(order="F")
    bad = dataclasses.replace(level1_system, matrix=matrix)
    with pytest.raises(NotPositiveDefinite):
        solve(bad)
    np.testing.assert_array_equal(matrix.view(np.uint64), before.view(np.uint64))


@pytest.fixture(scope="module")
def level3_system(problem):
    """The level-3 system of a 3-level run, as `on_level` sees it."""
    from stokesrbf.multiscale import run

    systems = {}
    run(problem, MultiscaleConfig(n_levels=3),
        on_level=lambda index, system, solution: systems.setdefault(index, system))
    return systems[2]


def test_solve_factorizes_in_place(level3_system, monkeypatch):
    system = level3_system
    assert system.matrix.flags.f_contiguous
    before = system.matrix.copy(order="F")
    factors, maps = [], []
    real_factor, real_map = collocation.cho_factor, mmap.mmap

    def recording_factor(*args, **kwargs):
        factors.append(real_factor(*args, **kwargs))
        return factors[-1]

    def recording_map(fileno, length, *args, **kwargs):
        maps.append(length)
        return real_map(fileno, length, *args, **kwargs)

    monkeypatch.setattr(collocation, "cho_factor", recording_factor)
    monkeypatch.setattr(mmap, "mmap", recording_map)
    tracemalloc.start()
    try:
        solution = solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()

    assert np.shares_memory(factors[0][0], system.matrix)
    # no second dense copy (1.38 x at a copying factorization) and no saved
    # lower triangle (0.59 x at level 3), whether on the heap or in an
    # anonymous map that tracemalloc does not see: the residuals gather A
    # from the lattice tables, and gathering the overwritten entries again
    # holds assembly's buffers, ~0.34 x
    assert peak + sum(maps) < 0.45 * system.matrix.nbytes
    np.testing.assert_array_equal(system.matrix.view(np.uint64), before.view(np.uint64))
    assert not system.matrix.flags.writeable

    # scipy copies a row-major matrix and factorizes the copy: same bits
    reference = solve(dataclasses.replace(system, matrix=np.ascontiguousarray(before)))
    assert solution.coefficients.tobytes() == reference.coefficients.tobytes()
    assert solution.solve_residual == reference.solve_residual


def test_table_and_copy_paths_agree(level3_system, monkeypatch):
    # the level-3 system refines, so its residual is formed more than once:
    # gathered from the lattice tables, or read from an intact copy of A
    # that `dataclasses.replace` hands over without the tables
    steps = []
    real_solve = collocation.cho_solve

    def counting_solve(*args, **kwargs):
        steps.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(collocation, "cho_solve", counting_solve)
    tables = solve(level3_system)
    assert len(steps) > 2
    copied = solve(dataclasses.replace(level3_system,
                                       matrix=level3_system.matrix.copy(order="F")))
    assert tables.coefficients.tobytes() == copied.coefficients.tobytes()
    assert tables.solve_residual == copied.solve_residual


def test_level3_refines_until_a_step_is_rejected(problem, monkeypatch):
    # cho_solve calls per level of a 3-level run: the level-3 solve makes the
    # plain solve, two accepted refinement steps and a rejected third
    # (3.63e-9 -> 3.66e-10 -> 2.66e-10, then 4.88e-10), so a loop of fewer
    # steps shows here.  Like the output contract's hashes, the counts and
    # the residual hold for numpy 2.4 with its bundled OpenBLAS 0.3.31
    from stokesrbf.multiscale import run

    calls, counts = [], []
    real_solve = collocation.cho_solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return real_solve(*args, **kwargs)

    def on_level(index, system, solution):
        counts.append(len(calls))
        calls.clear()

    monkeypatch.setattr(collocation, "cho_solve", counting_solve)
    model = run(problem, MultiscaleConfig(n_levels=3), on_level=on_level)
    assert counts == [1, 2, 4]
    assert model.levels[2].solve_residual == pytest.approx(2.659e-10, rel=1e-3)


def test_failed_in_place_factorization_gives_a_back(level3_system, monkeypatch):
    # a factorization that writes over the lower triangle and then fails:
    # the matrix is A again, bit for bit, when NotPositiveDefinite arrives
    system = level3_system
    before = system.matrix.copy(order="F")

    def failing_factor(matrix, lower, overwrite_a, check_finite):
        assert overwrite_a and np.shares_memory(matrix, system.matrix)
        matrix[np.tril_indices(len(matrix))] = np.nan
        raise collocation.LinAlgError("3-th leading minor not positive definite")

    monkeypatch.setattr(collocation, "cho_factor", failing_factor)
    with pytest.raises(NotPositiveDefinite) as err:
        solve(system)
    assert err.value.pivot == 3
    np.testing.assert_array_equal(system.matrix.view(np.uint64), before.view(np.uint64))
    assert not system.matrix.flags.writeable


def test_tables_cannot_go_stale(c8, problem, monkeypatch, rng):
    # an assembled matrix is read-only, so no in-place edit parts it from
    # its tables; a reassigned matrix, as in acceptance criterion 7's
    # permutation check, is factorized in a copy and refined from itself
    system = assemble(make_level_pointset(1), StokesKernelConfig(c8, c8, nu=1.0, delta=0.6),
                      problem.f, problem.g)
    with pytest.raises(ValueError, match="read-only"):
        system.matrix[0, 0] = 0.0
    perm = rng.permutation(system.size)
    permuted = system.matrix[np.ix_(perm, perm)]
    before = permuted.copy()
    hand_built = CollocationSystem(matrix=permuted.copy(), rhs=system.rhs[perm],
                                   pointset=system.pointset, kernel=system.kernel)
    system.matrix, system.rhs = permuted, system.rhs[perm]
    factors = []
    real_factor = collocation.cho_factor

    def recording_factor(*args, **kwargs):
        factors.append(real_factor(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(collocation, "cho_factor", recording_factor)
    solution = solve(system)
    assert not np.shares_memory(factors[0][0], permuted)
    np.testing.assert_array_equal(permuted.view(np.uint64), before.view(np.uint64))
    expected = solve(hand_built)
    assert solution.coefficients.tobytes() == expected.coefficients.tobytes()
    assert solution.solve_residual == expected.solve_residual


def test_write_matrix_holds_no_second_copy(level3_system, tmp_path):
    # the column-major level-3 matrix is written row-major a slab at a time
    tracemalloc.start()
    try:
        write_matrix(level3_system.matrix, tmp_path / "matrix.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * level3_system.matrix.nbytes
    raw = (tmp_path / "matrix.bin").read_bytes()
    assert raw[16:] == np.ascontiguousarray(level3_system.matrix).tobytes()


def test_collocation_conditions_reproduced(level1_solution, problem):
    ps = level1_solution.pointset
    boundary_vel, _ = evaluate(level1_solution, ps.boundary)
    assert np.abs(boundary_vel - problem.g(ps.boundary)).max() <= 1e-8
    l_image = evaluate_fields(level1_solution, ps.interior, "l-image")
    target = problem.f(ps.interior)
    assert np.abs(l_image - target).max() <= 1e-7 * np.abs(target).max()


def test_evaluate_agrees_with_basis_columns(level1_solution, rng):
    # block evaluation vs per-functional columns summed in arbitrary order;
    # the comparison scale must absorb the cancellation of O(1e7)
    # coefficient-times-column terms into O(1) field values
    groups = documented_groups(level1_solution.pointset)
    alpha = level1_solution.coefficients
    perm = rng.permutation(len(alpha))
    for _ in range(5):
        x = rng.uniform(0, 1, 2)
        vel, pres = evaluate(level1_solution, x)
        # columns[:, k]: (u1, u2, p) at x of the k-th basis function
        columns = np.array([
            np.concatenate([
                kernel_block(level1_solution.kernel, row, col, [x], pts)[0]
                for _, col, pts in groups
            ])
            for row in (("velocity", 1), ("velocity", 2), ("pressure", 0))
        ])
        by_hand = np.zeros(3)
        cancel = np.zeros(3)
        for k in perm:
            by_hand += alpha[k] * columns[:, k]
            cancel += np.abs(alpha[k] * columns[:, k])
        tol = 1e-12 * np.maximum(cancel, 1.0)
        assert np.all(np.abs(np.r_[vel, pres] - by_hand) <= tol)


def _solve_permuted(system, perm):
    permuted = CollocationSystem(
        matrix=system.matrix[np.ix_(perm, perm)],
        rhs=system.rhs[perm],
        pointset=system.pointset,
        kernel=system.kernel,
    )
    return solve(permuted)


def test_permutation_invariance(c8, problem, rng):
    # a moderate support keeps the conditioning low enough that two distinct
    # factorizations agree to the stated tolerance
    ps = make_level_pointset(1)
    kernel = StokesKernelConfig(c8, c8, nu=1.0, delta=0.6)
    system = assemble(ps, kernel, problem.f, problem.g)
    solution = solve(system)
    perm = rng.permutation(system.size)
    sol_perm = _solve_permuted(system, perm)

    expected = solution.coefficients[perm]
    scale = np.abs(expected).max()
    assert np.abs(sol_perm.coefficients - expected).max() <= 1e-10 * scale

    from stokesrbf.collocation import LevelSolution

    restored = LevelSolution(
        coefficients=sol_perm.coefficients[np.argsort(perm)],
        pointset=system.pointset,
        kernel=system.kernel,
    )
    pts = rng.uniform(0, 1, size=(50, 2))
    va, pa = evaluate(solution, pts)
    vb, pb = evaluate(restored, pts)
    vel_scale = np.abs(va).max()
    assert np.abs(va - vb).max() <= 1e-10 * vel_scale
    assert np.abs(pa - pb).max() <= 1e-10 * max(np.abs(pa).max(), vel_scale)


def test_permutation_invariance_large_scale(level1_system, level1_solution, rng):
    # at delta = 10 the conditioning is ~3e10; coefficientwise agreement of
    # two factorizations is bounded by kappa * eps, so the tolerance here is
    # commensurately weaker
    perm = rng.permutation(level1_system.size)
    sol_perm = _solve_permuted(level1_system, perm)
    expected = level1_solution.coefficients[perm]
    scale = np.abs(expected).max()
    assert np.abs(sol_perm.coefficients - expected).max() <= 1e-6 * scale


def test_divergence_free_at_random_points(level1_solution, rng):
    pts = rng.uniform(0, 1, size=(2500, 2))
    div = evaluate_fields(level1_solution, pts, "divergence")
    vel, _ = evaluate(level1_solution, pts)
    assert np.abs(div).max() <= 1e-8 * np.abs(vel).max()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_level_that_is_not_finite_is_rejected(level1_solution, value):
    # a nan Dirichlet coefficient would give a nan velocity next to a finite
    # pressure gradient, whose blocks against Dirichlet columns vanish and
    # are skipped; a centre that is not finite is rejected as well
    from stokesrbf.collocation import LevelSolution
    from stokesrbf.geometry import LevelPointSet

    ps, kernel = level1_solution.pointset, level1_solution.kernel
    coefficients = level1_solution.coefficients.copy()
    coefficients[2 * ps.n_interior] = value
    with pytest.raises(ValueError, match="not finite"):
        LevelSolution(coefficients, ps, kernel)
    for where in ("interior", "boundary"):
        centres = {"interior": ps.interior.copy(), "boundary": ps.boundary.copy()}
        centres[where][0, 1] = value
        with pytest.raises(ValueError, match="not finite"):
            LevelSolution(level1_solution.coefficients, LevelPointSet(**centres), kernel)


@pytest.mark.parametrize("bad", ["87 long", "81 long", "column", "complex", "text"])
def test_coefficients_must_match_the_point_set(level1_solution, bad):
    # 82 functionals at level 1: 87 coefficients evaluated to plausible
    # numbers (the extra 5 unread), and 81, an (82, 1) column or a complex
    # vector failed only inside numpy at evaluation
    from stokesrbf.collocation import LevelSolution

    ps, kernel, good = (level1_solution.pointset, level1_solution.kernel,
                        level1_solution.coefficients)
    coefficients = {"87 long": np.concatenate([good, np.ones(5)]), "81 long": good[:81],
                    "column": good[:, None], "complex": good + 0j,
                    "text": ["a"] * len(good)}[bad]
    with pytest.raises(ValueError, match="coefficients"):
        LevelSolution(coefficients, ps, kernel)


def test_coefficients_of_any_real_type_keep_their_values(level1_solution):
    from stokesrbf.collocation import LevelSolution

    ps, kernel = level1_solution.pointset, level1_solution.kernel
    ones = LevelSolution([1] * ps.n_functionals, ps, kernel)
    assert ones.coefficients.dtype == np.float64
    assert np.array_equal(ones.coefficients, np.ones(ps.n_functionals))


def test_zero_coefficients_evaluate_to_zero(level1_solution):
    from stokesrbf.collocation import LevelSolution

    zero = LevelSolution(
        coefficients=np.zeros_like(level1_solution.coefficients),
        pointset=level1_solution.pointset,
        kernel=level1_solution.kernel,
    )
    vel, pres = evaluate(zero, (0.4, 0.6))
    assert np.all(vel == 0.0) and pres == 0.0
    for request in ("l-image", "divergence", "pressure-gradient"):
        assert np.all(evaluate_fields(zero, (0.4, 0.6), request) == 0.0)


def test_small_delta_gives_local_block_structure(c8, problem):
    # delta below the minimal inter-point distance: only coincident-location
    # entries survive, and the matrix is still positive definite
    ps = make_level_pointset(1)
    kernel = StokesKernelConfig(c8, c8, nu=1.0, delta=0.1)
    system = assemble(ps, kernel, problem.f, problem.g)
    centres = np.concatenate([pts for _, _, pts in documented_groups(ps)])
    delta = kernel.delta
    for i in range(0, system.size, 7):
        for j in range(0, system.size, 5):
            dist = np.hypot(*(centres[i] - centres[j]))
            if dist >= delta:
                assert system.matrix[i, j] == 0.0
    # coincident-point diagonal values carry the scaled unit-scale anchors
    assert system.matrix[0, 0] == pytest.approx(
        0.1**-8 * 2471040 + 0.1**-4 * 130, rel=1e-12
    )
    solve(system)  # SPD factorization succeeds


def test_outside_support_evaluates_to_zero(c8, problem):
    ps = make_level_pointset(1)
    kernel = StokesKernelConfig(c8, c8, nu=1.0, delta=0.1)
    sol = solve(assemble(ps, kernel, problem.f, problem.g))
    x = (0.125, 0.125)  # cell centre: distance to nearest centre > delta
    vel, pres = evaluate(sol, x)
    assert np.all(vel == 0.0) and pres == 0.0


def test_write_matrix_roundtrip(tmp_path, level1_system):
    path = tmp_path / "matrix.bin"
    write_matrix(level1_system.matrix, path)
    raw = path.read_bytes()
    rows, cols = np.frombuffer(raw[:16], dtype="<u8")
    assert (rows, cols) == level1_system.matrix.shape
    data = np.frombuffer(raw[16:], dtype="<f8").reshape(rows, cols)
    assert np.array_equal(data, level1_system.matrix)


def test_velocity_request_equals_evaluate(level1_solution, rng):
    # the "velocity" rows are the first two "value" rows, same arithmetic
    for x in (rng.uniform(0, 1, 2), rng.uniform(0, 1, (40, 2))):
        np.testing.assert_array_equal(
            evaluate_fields(level1_solution, x, "velocity"),
            evaluate(level1_solution, x)[0],
        )


def group_sums(sol, x, labels):
    """Per-label sums of kernel_block(...) @ coefficients over the column
    groups in system order, each group's block computed directly and
    multiplied _SLAB rows at a time, the blocks that evaluation hands BLAS."""
    expected = np.zeros((len(x), len(labels)))
    for k, label in enumerate(labels):
        c0 = 0
        for _, col, cpts in documented_groups(sol.pointset):
            block = kernel_block(sol.kernel, label, col, x, cpts)
            for start in range(0, len(x), collocation._SLAB):
                rows = slice(start, start + collocation._SLAB)
                expected[rows, k] += block[rows] @ sol.coefficients[c0: c0 + len(cpts)]
            c0 += len(cpts)
    return expected


def random_solution(c8, level, rng):
    """A level's solution of the schedule with random coefficients: sums of
    its blocks need no solve."""
    pointset = make_level_pointset(level)
    delta = scale_schedule(MultiscaleConfig(n_levels=level))[level - 1]
    return collocation.LevelSolution(rng.standard_normal(pointset.n_functionals), pointset,
                                     StokesKernelConfig(c8, c8, nu=1.0, delta=delta))


def record_kernel_calls(monkeypatch):
    """Patch collocation's kernel_block to record (row, col, rows, cols) of
    every call."""
    calls = []

    def recording(cfg, row, col, xa, xb):
        calls.append((row, col, len(xa), len(xb)))
        return kernel_block(cfg, row, col, xa, xb)

    monkeypatch.setattr(collocation, "kernel_block", recording)
    return calls


def call_plan(x, *pointsets, labels=(("velocity", 1),)):
    """The `_CallPlan` of the row ``labels`` at the points x against levels
    with the centres of ``pointsets``."""
    kernel = StokesKernelConfig(wendland_c8(), wendland_c8())
    return collocation._CallPlan([(kernel, ps) for ps in pointsets], [(x, list(labels))])


def slab_rows(pointset):
    """Rows per slab of a call against the centres of ``pointset``."""
    (_, rows, _), = call_plan(np.zeros((10 ** 5, 2)), pointset).slabs[0]
    return rows.stop


def three_slabs(points, pointset):
    """The first points of ``points`` that a call cuts into two full slabs
    and a short third of 45 against the centres of ``pointset``."""
    x = points[:2 * slab_rows(pointset) + 45]
    assert len(call_plan(x, pointset).slabs) == 3
    return x


@pytest.fixture(scope="module")
def two_level_model(problem):
    from stokesrbf.multiscale import run

    return run(problem, MultiscaleConfig(n_levels=2))


def test_slabbed_evaluation_equals_group_sums(level1_solution, two_level_model, c8,
                                             monkeypatch, rng):
    # each entry must be the same sum over the column groups in system order.
    # The random and grid batches are three slabs, run on the worker
    # threads; the first points of the 100^2 Gauss-Legendre grid have few
    # distinct x per slab, so their powers come from tables.  The residual
    # closures evaluate the coarser levels at the centres of the next: the
    # level-3 centres (289, one slab against the level-1 or level-2
    # centres), the level-4 centres (1089) and level-5 centres (both three
    # slabs against the level-3 centres).  Each lies on a dyadic grid with
    # the centres, and the blocks are gathered from lattice tables
    level3, level4 = make_level_pointset(3), make_level_pointset(4).interior
    level3_solution = random_solution(c8, 3, rng)
    assert len(call_plan(level4, level3).slabs) == 3
    for sol, x, tables in (
            (level1_solution,
             three_slabs(rng.uniform(0, 1, (20000, 2)), level1_solution.pointset), False),
            (two_level_model.levels[1],
             three_slabs(gauss_legendre_grid(100)[0], two_level_model.levels[1].pointset),
             False),
            (two_level_model.levels[0], level3.interior, True),
            (two_level_model.levels[1], level3.interior, True),
            (level3_solution, level4, True),
            (level3_solution, three_slabs(make_level_pointset(5).interior, level3), True)):
        for request, labels in (
            ("l-image", [("pde", 1), ("pde", 2)]),
            ("velocity", [("velocity", 1), ("velocity", 2)]),
            ("pressure-gradient", [("pressure_grad", 1), ("pressure_grad", 2)]),
            ("value", [("velocity", 1), ("velocity", 2), ("pressure", 0)]),
        ):
            calls = record_kernel_calls(monkeypatch)
            got = evaluate_fields(sol, x, request)
            monkeypatch.undo()
            # a table is one call against the origin per label pair
            assert all((cols == 1) == tables for _, _, _, cols in calls)
            np.testing.assert_array_equal(got, group_sums(sol, x, labels))


def test_labels_of_one_slab_share_a_displacement_set(level1_solution, monkeypatch, rng):
    # three slabs; in each, the three labels of "value" read one
    # displacement set per column point set (interior and boundary centres),
    # which every kernel_block call receives with its own centres.  The
    # pressure row computes no block against the boundary centres: the
    # kernel is block diagonal, so those blocks are zero
    calls = []

    def recording(cfg, row, col, xa, xb):
        calls.append((row, col, xa, xb))
        return kernel_block(cfg, row, col, xa, xb)

    x = three_slabs(rng.uniform(0, 1, (20000, 2)), level1_solution.pointset)
    monkeypatch.setattr(collocation, "kernel_block", recording)
    evaluate_fields(level1_solution, x, "value")
    labels = [("velocity", 1), ("velocity", 2), ("pressure", 0)]
    centre_sets = {}
    for _, col, cpts in documented_groups(level1_solution.pointset):
        centre_sets.setdefault(id(cpts), []).append(col)
    shared = {}
    for row, col, xa, xb in calls:
        shared.setdefault(id(xa), (xa, xb, []))[2].append((row, col))
    assert len(shared) == 3 * 2
    for xa, xb, pairs in shared.values():
        assert pairs == [(row, col) for row in labels for col in centre_sets[id(xb)]
                         if row[0] != "pressure" or col[0] != "dirichlet"]


def one_ulp_off(points, index):
    moved = points.copy()
    moved[index, 0] = np.nextafter(moved[index, 0], 2.0)
    return moved


@pytest.mark.parametrize("batch", [
    "ulp-first", "ulp-last", "ulp-subnormal", "random-1", "random-16", "random-301",
])
def test_off_lattice_points_build_no_larger_table(two_level_model, monkeypatch, rng, batch):
    # a point one ulp off the grid puts the batch on a lattice of step
    # 2^-53 or finer, and rng.random points are multiples of 2^-53: a table
    # over all offsets would then be astronomically large, so every
    # kernel_block call must stay within the block it serves, and the sums
    # must be those of the directly computed blocks
    sol = two_level_model.levels[1]
    level3 = make_level_pointset(3).interior
    x = {
        "ulp-first": lambda: one_ulp_off(level3, 0),
        "ulp-last": lambda: one_ulp_off(level3, -1)[:, ::-1].copy(),
        "ulp-subnormal": lambda: np.where(level3 == 0.0, 5e-324, level3),
        "random-1": lambda: rng.random((1, 2)),
        "random-16": lambda: rng.random((16, 2)),
        "random-301": lambda: rng.random((301, 2)),
    }[batch]()
    groups = {col: len(cpts) for _, col, cpts in documented_groups(sol.pointset)}
    labels = [("pde", 1), ("pde", 2)]
    calls = record_kernel_calls(monkeypatch)
    got = evaluate_fields(sol, x, "l-image")
    assert calls
    for _, col, rows, cols in calls:
        assert rows * cols <= len(x) * groups[col]
    monkeypatch.undo()
    np.testing.assert_array_equal(got, group_sums(sol, x, labels))


def test_level4_assembly_gathers_from_one_table_per_pair(c8, monkeypatch):
    # the level-4 centres lie on the grid of step 1/32: each of the 16
    # (row, column) label pairs takes one kernel_block call over its 65^2
    # offsets against the origin, and nothing else calls the kernel
    delta = scale_schedule(MultiscaleConfig(n_levels=4))[3]
    kernel = StokesKernelConfig(c8, c8, nu=1.0, delta=delta)
    calls = record_kernel_calls(monkeypatch)
    zero = lambda pts: np.zeros((len(pts), 2))  # noqa: E731
    assemble(make_level_pointset(4), kernel, zero, zero)
    assert 0 < len(calls) <= 16
    assert all(rows <= 65 ** 2 and cols == 1 for _, _, rows, cols in calls)


@pytest.mark.parametrize("level", [3, 4])
def test_assembly_builds_one_offsets_set(c8, monkeypatch, level):
    # one lattice test per (row point set, centre set), 2 x 2, but one
    # displacement set of the table offsets for all four pairs, which lie
    # on one lattice; the slabs gather from the tables and build no set of
    # their own.  Each table keeps the bits of its pair's own set
    delta = scale_schedule(MultiscaleConfig(n_levels=level))[level - 1]
    kernel = StokesKernelConfig(c8, c8, nu=1.0, delta=delta)
    counts = {"sets": 0, "lattices": 0}
    init, lattice = Displacements.__init__, collocation._lattice

    def counting_init(self, *args, **kwargs):
        counts["sets"] += 1
        init(self, *args, **kwargs)

    def counting_lattice(*args):
        counts["lattices"] += 1
        return lattice(*args)

    zero = lambda pts: np.zeros((len(pts), 2))  # noqa: E731
    with monkeypatch.context() as patched:
        patched.setattr(Displacements, "__init__", counting_init)
        patched.setattr(collocation, "_lattice", counting_lattice)
        system = assemble(make_level_pointset(level), kernel, zero, zero)
    assert counts == {"sets": 1, "lattices": 4}
    _, tables = system._lattice_tables
    assert len(tables) == 16
    for (row, col), (table, (step, _, n), _) in tables.items():
        ticks = np.arange(1 - n, n) * step
        offsets = np.column_stack([np.repeat(ticks, len(ticks)), np.tile(ticks, len(ticks))])
        alone = kernel_block(kernel, row, col, offsets, np.zeros((1, 2)))
        assert table.tobytes() == alone.tobytes(), (row, col)


def test_one_plan_per_call(c8, problem, rng, monkeypatch):
    # an assembly and each evaluation build one `_CallPlan`, with one run of
    # `_tables`, before their slabs run, and every slab reads that plan: a
    # level-4 assembly (9 slabs), the 24^2 grid (5 slabs, mirror-paired), 301
    # random points (3 slabs) and 16 (one slab) against levels 3 and 4
    level4 = make_level_pointset(4)
    kernel = StokesKernelConfig(c8, c8, delta=scale_schedule(MultiscaleConfig(n_levels=4))[3])
    solutions = [random_solution(c8, level, rng) for level in (3, 4)]
    calls = [(lambda: assemble(level4, kernel, problem.f, problem.g), 9, False)] + [
        (lambda x=x: evaluate_levels(solutions, x, ("velocity", "pressure-gradient")), n, paired)
        for x, n, paired in ((gauss_legendre_grid(24)[0], 5, True),
                             (rng.random((301, 2)), 3, False), (rng.random((16, 2)), 1, False))]
    plans, tables, read = [], [], []
    init, make_tables, slab_blocks = (collocation._CallPlan.__init__, collocation._tables,
                                      collocation._slab_blocks)

    def counting_init(self, *args):
        plans.append(self)
        init(self, *args)

    def counting_tables(*args):
        tables.append(args)
        return make_tables(*args)

    def recording(plan, *args):
        read.append(plan)
        return slab_blocks(plan, *args)

    monkeypatch.setattr(collocation._CallPlan, "__init__", counting_init)
    monkeypatch.setattr(collocation, "_tables", counting_tables)
    monkeypatch.setattr(collocation, "_slab_blocks", recording)
    for call, n_slabs, paired in calls:
        plans.clear(), tables.clear(), read.clear()
        call()
        assert len(plans) == 1 and len(tables) == 1
        assert len(plans[0].slabs) == len(read) == n_slabs
        assert all(plan is plans[0] for plan in read)
        assert (plans[0].order is not None) == paired


def test_one_slab_stays_on_the_callers_thread(level1_solution, monkeypatch, rng):
    # a small query batch is one slab, which no helper thread may take
    threads = set()

    def recording(*args):
        threads.add(threading.get_ident())
        return kernel_block(*args)

    monkeypatch.setattr(collocation, "kernel_block", recording)
    evaluate_fields(level1_solution, rng.uniform(0, 1, (16, 2)), "velocity")
    assert threads == {threading.get_ident()}


def test_slab_errors_reach_the_caller(level1_solution, monkeypatch, rng):
    # whichever thread takes the failing slab, its error is raised by the call
    def failing(cfg, row, col, xa, xb):
        if len(xa) < collocation._SLAB:
            raise FloatingPointError("last slab")
        return kernel_block(cfg, row, col, xa, xb)

    x = three_slabs(rng.uniform(0, 1, (20000, 2)), level1_solution.pointset)
    monkeypatch.setattr(collocation, "kernel_block", failing)
    with pytest.raises(FloatingPointError, match="last slab"):
        evaluate_fields(level1_solution, x, "velocity")


def test_slab_workers_take_each_slab_once(level1_solution, monkeypatch, rng):
    # more helpers than cores and a short switch interval: a slab taken
    # twice would be added twice, a slab lost would stay zero
    pointset = level1_solution.pointset
    x = rng.uniform(0, 1, (9 * slab_rows(pointset) + 7, 2))
    assert len(call_plan(x, pointset).slabs) == 10
    monkeypatch.setattr(collocation, "_WORKERS", 1)
    serial = evaluate_fields(level1_solution, x, "l-image")
    monkeypatch.setattr(collocation, "_WORKERS", 8)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: results.extend(
            evaluate_fields(level1_solution, x, "l-image") for _ in range(3)))
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 3
    for got in results:
        np.testing.assert_array_equal(got, serial)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_slab_size_keeps_the_bits(c8, monkeypatch, rng, level):
    # slabs sized by entries hold 5120, 1536 and 384 rows against the level-1
    # to level-3 centres and 128 against level 4; an evaluation in such
    # slabs must equal, bit for bit, the same call in slabs of 128 rows:
    # BLAS sees the same 128-row blocks, and the power tables of rows of
    # another size hold the same powers.  Both run on the workers' buffer
    # pools, so they must also equal one call per 128 points, each a single
    # slab that allocates its arrays afresh.  The coefficients are random,
    # as no solve is needed
    assert slab_rows(make_level_pointset(4)) == collocation._SLAB
    sol = random_solution(c8, level, rng)
    pointset = sol.pointset
    assert slab_rows(pointset) == {1: 5120, 2: 1536, 3: 384}[level]
    batches = (three_slabs(gauss_legendre_grid(110)[0], pointset),
               three_slabs(rng.uniform(0, 1, (20000, 2)), pointset))
    requests = list(collocation._FIELD_ROWS)
    got = [[evaluate_fields(sol, x, request) for request in requests] for x in batches]
    monkeypatch.setattr(collocation, "_SLAB_ENTRIES", 0)
    assert slab_rows(pointset) == collocation._SLAB
    for x, fields in zip(batches, got):
        for request, field in zip(requests, fields):
            np.testing.assert_array_equal(field, evaluate_fields(sol, x, request))
            np.testing.assert_array_equal(field, np.concatenate([
                evaluate_fields(sol, x[start:start + collocation._SLAB], request)
                for start in range(0, len(x), collocation._SLAB)]))


def test_slabs_of_one_call_go_to_different_workers(monkeypatch):
    # the unit of work is one slab with every row label of it, so that the
    # labels share its displacement sets: whichever worker takes the first
    # slab waits there until the other worker starts the second; against
    # the level-4 centres a slab has _SLAB rows
    monkeypatch.setattr(collocation, "_WORKERS", 2)
    n, slab = 2 * collocation._SLAB + 1, collocation._SLAB
    pts = np.zeros((n, 2))
    labels = [("velocity", 1), ("velocity", 2)]
    plan = call_plan(pts, make_level_pointset(4), labels=labels)
    ((points, read_labels),) = plan.row_sets
    assert points is pts and read_labels == labels
    assert plan.slabs == [[(0, slice(start, min(start + slab, n)), None)]
                          for start in (0, slab, 2 * slab)]
    second_started, threads = threading.Event(), {}

    def task(one_slab, pool):
        ((_, rows, _),) = one_slab
        r0 = rows.start
        threads[r0] = threading.get_ident()
        if r0 == 0:
            assert second_started.wait(timeout=30)
        elif r0 == slab:
            second_started.set()

    collocation._run_slabs(task, plan.slabs)
    assert len(threads) == 3
    assert threads[0] != threads[slab]


def test_no_worker_thread_outlives_its_call():
    # a fresh interpreter, so that no other test's threads are counted
    script = (
        "import threading, numpy as np\n"
        "from stokesrbf import collocation\n"
        "from stokesrbf.geometry import make_level_pointset\n"
        "from stokesrbf.stokes_kernel import StokesKernelConfig\n"
        "from stokesrbf.wendland import wendland_c8\n"
        "ps = make_level_pointset(1)\n"
        "kernel = StokesKernelConfig(wendland_c8(), wendland_c8(), delta=1.0)\n"
        "sol = collocation.LevelSolution(np.ones(ps.n_functionals), ps, kernel)\n"
        "x = np.random.default_rng(0).uniform(0, 1, (2 * 5120 + 45, 2))\n"
        "plan = collocation._CallPlan([(kernel, ps)], [(x, [('velocity', 1)])])\n"
        "assert len(plan.slabs) == 3\n"
        "collocation.evaluate_fields(sol, x, 'velocity')\n"
        "print(threading.active_count())\n"
    )
    src = os.path.dirname(os.path.dirname(collocation.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "1"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_evaluates(level1_solution, rng):
    # the child of a fork has none of the parent's helper threads; a child
    # that hands slabs to them waits forever (the alarm ends it then)
    x = three_slabs(rng.uniform(0, 1, (20000, 2)), level1_solution.pointset)
    expected = evaluate_fields(level1_solution, x, "velocity")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        signal.alarm(60)
        same = np.array_equal(evaluate_fields(level1_solution, x, "velocity"), expected)
        os._exit(0 if same else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_blas_sums_a_row_alike_in_blocks_of_a_multiple_of_4_rows(c8, rng):
    # the mirror-paired layout (`_CallPlan.order`) moves grid points within
    # and between the 128-row blocks that evaluation hands BLAS.  That keeps
    # every bit because the OpenBLAS that numpy bundles sums each row of a
    # block whose row count is a multiple of 4 in one order, wherever the
    # row sits (a row past the last multiple of 4 is summed in another
    # order).  Like the hashes of tools/check_contract.py, this holds for the
    # pinned stack, numpy 2.4 with its OpenBLAS 0.3.31; on a stack where it
    # fails, the paired layout changes bits
    sol = random_solution(c8, 4, rng)
    block = kernel_block(sol.kernel, ("velocity", 1), ("pde", 1), rng.random((1280, 2)),
                         sol.pointset.interior)
    coefficients = sol.coefficients[:sol.pointset.n_interior]

    def sums(rows, size):
        # each row's sum in blocks of ``size`` of ``rows``, in that order
        out = np.empty(len(rows))
        for start in range(0, len(rows), size):
            out[start:start + size] = block[rows[start:start + size]] @ coefficients
        return out

    every = np.arange(len(block))
    expected = sums(every, collocation._SLAB)
    for size in (4, 12, 100):  # 1280 rows: the last 12- and 100-row blocks have 8 and 80
        assert sums(every, size).tobytes() == expected.tobytes(), size
    for _ in range(3):
        shuffled = rng.permutation(len(block))
        assert sums(shuffled, collocation._SLAB).tobytes() == expected[shuffled].tobytes()


def closed_batch(name, rng):
    """A batch closed under (x, y) -> (y, x), of a multiple of 4 points: the
    24^2 Gauss-Legendre grid, or ("mixed") 72 random points, two of them
    twice, with their mirrors and 120 points on the diagonal, shuffled:
    against the level-4 centres a slab of pairs, one with the last pairs
    and the diagonal points that fit, and one of diagonal points."""
    if name == "grid-24":
        return gauss_legendre_grid(24)[0]
    pairs = rng.random((70, 2))
    pairs = np.concatenate([pairs, pairs[:2]])
    diagonal = np.repeat(rng.random((120, 1)), 2, axis=1)
    points = np.concatenate([pairs, pairs[:, ::-1], diagonal])
    return points[rng.permutation(len(points))]


def unpaired_chunks(monkeypatch, evaluate_batch, x):
    """evaluate_batch of x, fields of `evaluate_levels`, one call per 128
    points in the batch's order, each in the layout without pairs."""
    with monkeypatch.context() as patched:
        patched.setattr(radial.Columns, "swap", lambda self: None)
        chunks = [evaluate_batch(x[start:start + collocation._SLAB])
                  for start in range(0, len(x), collocation._SLAB)]
    return tuple(np.concatenate(parts, axis=1) for parts in zip(*chunks))


def hypot_entries(monkeypatch, evaluate_batch, x):
    """(evaluate_batch(x), the number of entries that np.hypot computed)."""
    entries = []
    hypot = np.hypot

    def counting(a, b, **kwargs):
        entries.append(np.size(a))
        return hypot(a, b, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(np, "hypot", counting)
        fields = evaluate_batch(x)
    return fields, sum(entries)


@pytest.mark.parametrize("levels", [[4], [2], [1, 2, 3]])
@pytest.mark.parametrize("batch", ["grid-24", "mixed"])
def test_mirror_pairs_keep_the_bits(c8, rng, monkeypatch, levels, batch):
    # on a batch closed under the swap, each slab computes r and the Horner
    # radials on its direct rows and gathers them for their mirrors, at the
    # swapped centres of each level's run of columns: every field of every
    # request, alone and all in one call, is bit-equal to the same points
    # evaluated without pairs, 128 at a time in the batch's order
    solutions = [random_solution(c8, level, rng) for level in levels]
    x = closed_batch(batch, rng)
    assert collocation._CallPlan([(sol.kernel, sol.pointset) for sol in solutions],
                                 [(x, [("velocity", 1)])]).order is not None
    requests = list(collocation._FIELD_ROWS)
    for request in requests + [requests]:
        def evaluate_batch(points):
            fields = evaluate_levels(solutions, points, request)
            return fields if isinstance(request, list) else (fields,)

        got = evaluate_batch(x)
        expected = unpaired_chunks(monkeypatch, evaluate_batch, x)
        for field, other in zip(got, expected, strict=True):
            assert field.tobytes() == other.tobytes(), request


def test_mirror_pairs_compute_r_once_per_pair(c8, rng, monkeypatch):
    # the 24^2 grid has 24 points on its diagonal and 276 pairs: hypot sees
    # the 24 + 276 direct points against every centre (one displacement set
    # per slab and centre kind), where it saw all 576 without pairs
    sol = random_solution(c8, 4, rng)
    x = gauss_legendre_grid(24)[0]

    def evaluate_batch(points):
        return evaluate_levels([sol], points, ("velocity", "pressure-gradient"))

    width = sol.pointset.n_interior + sol.pointset.n_boundary
    got, entries = hypot_entries(monkeypatch, evaluate_batch, x)
    assert entries == (24 + 276) * width
    with monkeypatch.context() as patched:
        patched.setattr(radial.Columns, "swap", lambda self: None)
        expected, entries = hypot_entries(monkeypatch, evaluate_batch, x)
    assert entries == 576 * width
    for field, other in zip(got, expected, strict=True):
        assert field.tobytes() == other.tobytes()


def test_grid_slabs_share_the_blocks_of_equal_parts(c8, rng, monkeypatch):
    # a joint velocity + pressure-gradient slab asks each displacement set
    # for 8 interior and 4 boundary blocks, and the second of each of these
    # pairs of calls returns the first one's block: the same evaluators at
    # the same scales.  Every call still reaches kernel_block, and the
    # fields keep the bits of one fresh set per call
    shares = {(("velocity", 2), ("pde", 1)), (("pressure_grad", 2), ("pde", 1)),
              (("velocity", 2), ("dirichlet", 1))}
    solutions = [random_solution(c8, level, rng) for level in (1, 2, 3)]
    x = gauss_legendre_grid(24)[0]
    calls = {}

    def recording(cfg, row, col, xa, xb):
        before = xa.last_block
        block = kernel_block(cfg, row, col, xa, xb)
        calls.setdefault(xa, []).append(
            ((row, col), before is not None and before[1] is block))
        return block

    def evaluate_with(patched_block):
        with monkeypatch.context() as patched:
            patched.setattr(collocation, "kernel_block", patched_block)
            return evaluate_levels(solutions, x, ("velocity", "pressure-gradient"))

    got = evaluate_with(recording)
    # one set per slab and centre kind, and more than one slab
    slabs = len(calls) // 2
    assert sorted(len(set_calls) for set_calls in calls.values()) == [4] * slabs + [8] * slabs
    assert slabs > 1
    for set_calls in calls.values():
        assert all(shared == (pair in shares) for pair, shared in set_calls)
    fresh = evaluate_with(lambda cfg, row, col, xa, xb: kernel_block(cfg, row, col, xa.rows, xb))
    for field, other in zip(got, fresh, strict=True):
        assert field.tobytes() == other.tobytes()


@pytest.mark.parametrize("case", [
    "grid-99", "centres-not-closed", "one-ulp-off", "sorted-coordinates-alike"])
def test_mirror_pair_fallbacks_keep_the_bits(c8, rng, monkeypatch, case):
    # the layout without pairs, and its bits, for a closed batch of 99^2
    # points (not a multiple of 4), centres not closed under the swap (a
    # level-2 set without the centre (0, 1/8)), a batch with one coordinate
    # one ulp off its mirror's, and one whose sorted x and y coordinates are
    # alike but whose points are not closed (a cycle (a, b), (b, c), (c, a))
    sol = random_solution(c8, 1 if case == "grid-99" else 4, rng)
    x = closed_batch("grid-24", rng)
    if case == "grid-99":
        x = gauss_legendre_grid(99)[0]
    elif case == "centres-not-closed":
        pointset = make_level_pointset(2)
        interior = np.delete(pointset.interior, 1, axis=0)
        pointset = LevelPointSet(interior=interior, boundary=pointset.boundary)
        sol = LevelSolution(rng.standard_normal(pointset.n_functionals), pointset,
                            random_solution(c8, 2, rng).kernel)
    elif case == "one-ulp-off":
        x = x.copy()
        x[5, 1] = np.nextafter(x[5, 1], 1.0)
    else:
        x = np.concatenate([x, [(0.1, 0.2), (0.2, 0.3), (0.3, 0.1), (0.4, 0.4)]])

    def evaluate_batch(points):
        return evaluate_levels([sol], points, ("velocity", "pressure-gradient"))

    got, entries = hypot_entries(monkeypatch, evaluate_batch, x)
    assert entries == len(x) * (sol.pointset.n_interior + sol.pointset.n_boundary)
    for field, other in zip(got, unpaired_chunks(monkeypatch, evaluate_batch, x), strict=True):
        assert field.tobytes() == other.tobytes()


def table_work(monkeypatch, evaluate_batch, x):
    """(evaluate_batch(x), the axes of the power tables built, each with
    whether a call plan built it, the powers taken on a table): `np.power`
    on a table is the one call in `radial` that writes no block, so it has
    no ``out``."""
    builds, powers, planning = [], [], []
    power_tables, init = radial.Columns.power_tables, collocation._CallPlan.__init__

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def power(a, n, *args, **kwargs):
            if not (args or kwargs):
                powers.append(n)
            return np.power(a, n, *args, **kwargs)

    def counting_tables(self, *args):
        tables = power_tables(self, *args)
        builds.extend((axis, bool(planning)) for axis, table in enumerate(tables) if table)
        return tables

    def plan(self, *args):
        planning.append(self)
        init(self, *args)
        planning.pop()

    with monkeypatch.context() as patched:
        patched.setattr(radial, "np", CountingNumpy())
        patched.setattr(radial.Columns, "power_tables", counting_tables)
        patched.setattr(collocation._CallPlan, "__init__", plan)
        fields = evaluate_batch(x)
    return fields, sorted(builds), sorted(powers)


@pytest.mark.parametrize("batch", ["grid-24", "grid-4", "one point"])
def test_power_tables_are_built_once_per_call(c8, rng, monkeypatch, batch):
    # velocity and the pressure gradient against the level-4 centres read
    # x^n and y^n at n = 3 and 4 in the interior set only: one table per
    # axis and one power per axis and n in a call, built by its call plan,
    # whether the call has one slab or the 5 slabs of the 24^2 grid, whose
    # sets all gather from the call's tables (a table per set built 10 and
    # 20)
    sol = random_solution(c8, 4, rng)
    x = {"grid-24": gauss_legendre_grid(24)[0], "grid-4": gauss_legendre_grid(4)[0],
         "one point": rng.random((1, 2))}[batch]

    def evaluate_batch(points):
        return evaluate_fields(sol, points, ("velocity", "pressure-gradient"))

    _, builds, powers = table_work(monkeypatch, evaluate_batch, x)
    assert builds == [(0, True), (1, True)]
    assert powers == [3, 3, 4, 4]


def test_slabs_build_the_tables_too_large_for_the_call(c8, rng, monkeypatch):
    # 3000 random points against the level-4 centres: the call's table of
    # 3000 distinct x or y against 33 is more than half a 128-row slab's
    # block, so each of the 24 slabs builds its own tables, two per set
    # (one per axis) and 4 powers (x^3, x^4, y^3, y^4), not one power per
    # block; the fields keep the bits of sets without tables
    sol = random_solution(c8, 4, rng)
    x = rng.random((3000, 2))
    assert len(call_plan(x, sol.pointset).slabs) == 24

    def evaluate_batch(points):
        return evaluate_fields(sol, points, ("velocity", "pressure-gradient"))

    got, builds, powers = table_work(monkeypatch, evaluate_batch, x)
    assert builds == [(0, False)] * 24 + [(1, False)] * 24
    assert powers == [3] * 48 + [4] * 48
    with monkeypatch.context() as patched:
        patched.setattr(radial.Columns, "power_tables", lambda self, *args: (None, None))
        expected = evaluate_batch(x)
    for field, other in zip(got, expected, strict=True):
        assert field.tobytes() == other.tobytes()


@pytest.mark.parametrize("levels", [[4], [1, 2, 3]])
def test_call_tables_keep_the_bits_of_one_slab_per_call(c8, rng, monkeypatch, levels):
    # every field of every request on a grid of several slabs, whose sets
    # read the call's power tables, is bit-equal to its points evaluated
    # one slab per call in the batch's order by sets without tables, which
    # take every power on their blocks
    solutions = [random_solution(c8, level, rng) for level in levels]
    x = gauss_legendre_grid(30)[0]
    requests = list(collocation._FIELD_ROWS)

    def evaluate_batch(points):
        return evaluate_levels(solutions, points, requests)

    got, builds, _ = table_work(monkeypatch, evaluate_batch, x)
    assert len(call_plan(x, *(s.pointset for s in solutions)).slabs) > 1
    # per axis, the interior and the boundary set
    assert builds == [(0, True), (0, True), (1, True), (1, True)]
    with monkeypatch.context() as patched:
        patched.setattr(radial.Columns, "power_tables", lambda self, *args: (None, None))
        expected = unpaired_chunks(monkeypatch, evaluate_batch, x)
    for field, other in zip(got, expected, strict=True):
        assert field.tobytes() == other.tobytes()
