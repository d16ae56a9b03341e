import os
import signal
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stokesrbf import collocation
from stokesrbf.collocation import (
    CollocationSystem,
    NotPositiveDefinite,
    assemble,
    evaluate,
    evaluate_fields,
    solve,
    write_matrix,
)
from stokesrbf.geometry import make_level_pointset
from stokesrbf.multiscale import MultiscaleConfig, scale_schedule
from stokesrbf.stokes_kernel import StokesKernelConfig, kernel_block


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


def test_matrix_entries_match_gram(level1_system, c8, problem):
    # all 16 group blocks, in the documented order, bit for bit: level 1 is
    # one point slab, level 3 (289 interior and 64 boundary centres) is three
    # point slabs, run on the worker threads
    delta3 = scale_schedule(MultiscaleConfig(n_levels=3))[2]
    level3_system = assemble(
        make_level_pointset(3), StokesKernelConfig(c8, c8, nu=1.0, delta=delta3),
        problem.f, problem.g,
    )
    for system in (level1_system, level3_system):
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
    pointset = make_level_pointset(1, probe_density=65)
    kernel_stub = None  # unused by solve
    n = 4
    system = CollocationSystem(
        matrix=np.eye(n), rhs=np.eye(n)[0],
        pointset=pointset, kernel=kernel_stub,
    )
    sol = solve(system)
    assert np.allclose(sol.coefficients, np.eye(n)[0])
    assert sol.solve_residual <= 1e-15


def test_solve_residual_invariant(level1_solution):
    assert level1_solution.solve_residual <= 1e-8


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
    ps = make_level_pointset(1, probe_density=65)
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
    ps = make_level_pointset(1, probe_density=65)
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
    ps = make_level_pointset(1, probe_density=65)
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


def test_slabbed_evaluation_equals_group_sums(level1_solution, rng):
    # 301 points are three point slabs, run on the worker threads; each
    # entry must be the same sum over the column groups in system order
    x = rng.uniform(0, 1, (301, 2))
    sol = level1_solution
    groups = documented_groups(sol.pointset)
    for request, labels in (
        ("l-image", [("pde", 1), ("pde", 2)]),
        ("pressure-gradient", [("pressure_grad", 1), ("pressure_grad", 2)]),
    ):
        expected = np.zeros((len(x), len(labels)))
        for k, label in enumerate(labels):
            c0 = 0
            for _, col, cpts in groups:
                block = kernel_block(sol.kernel, label, col, x, cpts)
                expected[:, k] += block @ sol.coefficients[c0: c0 + len(cpts)]
                c0 += len(cpts)
        np.testing.assert_array_equal(evaluate_fields(sol, x, request), expected)


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

    monkeypatch.setattr(collocation, "kernel_block", failing)
    with pytest.raises(FloatingPointError, match="last slab"):
        evaluate_fields(level1_solution, rng.uniform(0, 1, (301, 2)), "velocity")


def test_slab_workers_take_each_slab_once(level1_solution, monkeypatch, rng):
    # more helpers than cores and a short switch interval: a slab taken
    # twice would be added twice, a slab lost would stay zero
    x = rng.uniform(0, 1, (40 * collocation._SLAB + 7, 2))
    monkeypatch.setattr(collocation, "_HELPERS", 0)
    serial = evaluate_fields(level1_solution, x, "l-image")
    pool = ThreadPoolExecutor(8)
    monkeypatch.setattr(collocation, "_POOL", pool)
    monkeypatch.setattr(collocation, "_HELPERS", 8)
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
        pool.shutdown()
    assert len(results) == 3
    for got in results:
        np.testing.assert_array_equal(got, serial)


def test_pieces_of_one_slab_go_to_different_workers(monkeypatch):
    # the unit of work is one row label of one slab, not the whole slab, so
    # that the last task taken is short: whichever worker takes the first
    # piece of "a" waits there until the other worker starts that of "b",
    # which sits in the same slab
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(collocation, "_POOL", pool)
    monkeypatch.setattr(collocation, "_HELPERS", 1)
    pts = np.zeros((2 * collocation._SLAB + 1, 2))
    slabs = collocation._slabs([("a", pts), ("b", pts)])
    assert len(slabs) == 3 and [piece[0] for piece in slabs[0]] == ["a", "b"]
    b_started, threads = threading.Event(), {}

    def task(piece):
        label, r0, _ = piece
        threads[label, r0] = threading.get_ident()
        if (label, r0) == ("a", 0):
            assert b_started.wait(timeout=30)
        elif (label, r0) == ("b", len(pts)):
            b_started.set()

    try:
        collocation._run_slabs(task, slabs)
    finally:
        pool.shutdown()
    assert len(threads) == 6
    assert threads["a", 0] != threads["b", len(pts)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_evaluates(level1_solution, rng):
    # the child of a fork has none of the parent's helper threads; a child
    # that hands slabs to them waits forever (the alarm ends it then)
    x = rng.uniform(0, 1, (4 * collocation._SLAB, 2))
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
