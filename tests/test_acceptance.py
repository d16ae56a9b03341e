"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  The
four-level reproduction run takes about a minute; the optional fifth level
(dense 8962-unknown solve) is enabled with STOKESRBF_LEVEL5=1.
"""

import os
import time

import numpy as np
import pytest
import sympy

from stokesrbf import cli
from stokesrbf.analysis import (
    grid_errors,
    run_experiment,
    slope_check,
    trig_stokes_problem,
)
from stokesrbf.collocation import assemble, evaluate_fields, solve
from stokesrbf.geometry import make_level_pointset
from stokesrbf.multiscale import MultiscaleConfig, MultiscaleModel, evaluate_model, scale_schedule
from stokesrbf.radial import RadialTermEvaluator, diff_x, diff_y, laplacian, mixed_partial, terms_from_profile
from stokesrbf.stokes_kernel import StokesKernelConfig, kernel_block
from stokesrbf.wendland import wendland_c8

RUN_LEVEL5 = os.environ.get("STOKESRBF_LEVEL5") == "1"

PUBLISHED = {
    "delta": cli.REFERENCE_DELTAS,
    "velocity_l2": cli.REFERENCE_VELOCITY_L2,
    "velocity_linf": cli.REFERENCE_VELOCITY_LINF,
    "pressure_grad_l2": cli.REFERENCE_PRESSURE_GRAD_L2,
    "pressure_grad_linf": cli.REFERENCE_PRESSURE_GRAD_LINF,
}


def _verdict(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def experiment():
    start = time.monotonic()
    model, report = run_experiment(
        MultiscaleConfig(n_levels=4), quad_points=100, eigen_levels=3
    )
    return model, report, time.monotonic() - start


def _factors(ours, reference):
    return [max(o / r, r / o) for o, r in zip(ours, reference)]


def test_criterion_1_table_reproduction(experiment):
    model, report, runtime = experiment
    checks = [
        ("velocity_l2", report.velocity_l2, 2.0),
        ("velocity_linf", report.velocity_linf, 3.0),
        ("pressure_grad_l2", report.pressure_grad_l2, 3.0),
        ("pressure_grad_linf", report.pressure_grad_linf, 3.0),
    ]
    worst = {}
    ok = True
    for name, ours, allowed in checks:
        factors = _factors(ours, PUBLISHED[name][:4])
        worst[name] = max(factors)
        ok &= worst[name] <= allowed
    _verdict(
        1, ok,
        "levels 1-4 vs published errors, worst factors "
        + ", ".join(f"{k}={v:.2f}" for k, v in worst.items())
        + f" (runtime {runtime:.0f}s)",
    )


def test_criterion_2_scale_schedule():
    deltas = scale_schedule(MultiscaleConfig(n_levels=5))
    devs = [abs(d - ref) for d, ref in zip(deltas, PUBLISHED["delta"])]
    _verdict(
        2, max(devs) <= 0.01,
        f"delta schedule {['%.3f' % d for d in deltas]} within 0.01 of published",
    )


def test_criterion_3_lemma_suite():
    psi = wendland_c8()
    cross2 = mixed_partial(psi, 1, 1).origin
    diag2 = mixed_partial(psi, 2, 0).origin
    bilap = laplacian(laplacian(terms_from_profile(psi.coeffs)))
    cross6 = RadialTermEvaluator(diff_y(diff_x(bilap))).origin
    diag6 = RadialTermEvaluator(diff_x(diff_x(bilap))).origin
    ok = (
        cross2 == 0 and cross6 == 0
        and diag2 == -130 and diag6 == -2471040
    )
    _verdict(
        3, ok,
        f"exact rational values: d12={cross2}, d12 bilap={cross6}, "
        f"d11={diag2}, d11 bilap={diag6}",
    )


FD_H = 1e-4
FD_BOUND = 1e-6


def _fd_stencil():
    """Central-difference stencil (+h x1, -h x1, +h x2, -h x2) around a 20x20
    grid over [0.05, 0.95]^2, stacked in that order."""
    ticks = np.linspace(0.05, 0.95, 20)
    gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    steps = FD_H * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return np.concatenate([grid + step for step in steps])


def _fd_divergence_ratio(vel):
    """max |div u| / max |grad u| from central differences of velocity
    values on `_fd_stencil`."""
    xp, xm, yp, ym = vel.reshape(4, -1, 2)
    d1, d2 = (xp - xm) / (2 * FD_H), (yp - ym) / (2 * FD_H)
    grad = np.sqrt(np.sum(d1 * d1 + d2 * d2, axis=1))
    return np.abs(d1[:, 0] + d2[:, 1]).max() / grad.max()


def test_criterion_4_divergence_free(experiment):
    model, _, _ = experiment
    ticks = np.linspace(0.0, 1.0, 50)
    gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    worst = 0.0
    for n in range(1, 5):
        partial = MultiscaleModel(levels=model.levels[:n], config=model.config)
        div = evaluate_model(partial, grid, request="divergence")
        vel = evaluate_model(partial, grid)
        speed = np.sqrt(np.sum(vel * vel, axis=1)).max()
        worst = max(worst, np.abs(div).max() / (1e-8 * speed))
    # the "divergence" request is exact by construction; central differences
    # of the evaluated velocity check the same property independently
    stencil = _fd_stencil()
    vel = np.zeros((len(stencil), 2))
    fd_worst = 0.0
    for sol in model.levels:
        vel = vel + evaluate_fields(sol, stencil, "velocity")
        fd_worst = max(fd_worst, _fd_divergence_ratio(vel))
    _verdict(
        4, worst <= 1.0 and fd_worst <= FD_BOUND,
        f"max |div u| <= 1e-8 * max |u| on 50x50 grid for n <= 4 "
        f"(worst ratio of bound: {worst:.2e}); central differences "
        f"max |div u| / max |grad u| = {fd_worst:.2e} <= {FD_BOUND:.0e}",
    )


def test_criterion_4_fd_check_detects_divergence(problem):
    # negative control: the manufactured field plus (1e-3 x1, 0) has
    # divergence 1e-3 and must fail the central-difference bound
    stencil = _fd_stencil()
    exact = problem.u(stencil)
    leak = np.column_stack([1e-3 * stencil[:, 0], np.zeros(len(stencil))])
    assert _fd_divergence_ratio(exact) <= FD_BOUND
    assert _fd_divergence_ratio(exact + leak) > FD_BOUND


def test_criterion_5_definiteness(experiment):
    model, report, _ = experiment
    solved = len(model.levels) == 4
    residuals = [sol.solve_residual for sol in model.levels]
    lam_ok = all(report.lambda_min[j] > 0 for j in (1, 2, 3))
    ok = solved and lam_ok and max(residuals) <= 1e-8
    _verdict(
        5, ok,
        f"Cholesky succeeded at levels 1-4 (solve residuals "
        f"{['%.1e' % r for r in residuals]}); lambda_min > 0 at levels 1-3 "
        f"({['%.2e' % report.lambda_min[j] for j in (1, 2, 3)]})",
    )


def test_criterion_6_conditioning_slope(experiment):
    _, report, _ = experiment
    kappas = [report.condition_numbers[j] for j in (1, 2, 3)]
    hs = [0.25, 0.125, 0.0625]
    slope = slope_check(list(zip(hs, kappas)))
    increasing = kappas[0] < kappas[1] < kappas[2]
    ok = 0.0 < slope <= 10.0 and increasing
    _verdict(
        6, ok,
        f"kappa strictly increasing {['%.2e' % k for k in kappas]}, "
        f"fitted exponent {slope:.2f} in (0, 10]",
    )


def test_criterion_7_property_suites(experiment):
    rng = np.random.default_rng(7)
    psi = wendland_c8()
    cfg = StokesKernelConfig(psi, psi, nu=1.0, delta=1.0)
    # column label -> the row applying the same functional in the first argument
    row_of = {"pde": "pde", "dirichlet": "velocity"}

    def gram(a, x, b, y):
        return kernel_block(cfg, (row_of[a[0]], a[1]), b, [x], [y])[0, 0]

    def label():
        return (("pde", "dirichlet")[rng.integers(2)], int(rng.integers(1, 3)))

    # gram symmetry
    sym_ok = True
    for _ in range(50):
        a, x = label(), rng.uniform(0, 1, 2)
        b, y = label(), rng.uniform(0, 1, 2)
        ga, gb = gram(a, x, b, y), gram(b, y, a, x)
        sym_ok &= abs(ga - gb) <= 1e-12 * max(abs(ga), abs(gb), 1e-300)

    # compact support
    support_ok = gram(("pde", 1), (0.0, 0.0), ("dirichlet", 1), (0.8, 0.8)) == 0.0

    # finite-difference agreement of analytic derivatives
    h = 1e-5
    fd_ok = True
    for nx, ny in ((2, 0), (2, 2), (3, 2)):
        lower = mixed_partial(psi, nx - 1, ny)
        upper = mixed_partial(psi, nx, ny)
        pts = rng.uniform(0.1, 0.6, size=(8, 2))
        fd = (lower(pts[:, 0] + h, pts[:, 1]) - lower(pts[:, 0] - h, pts[:, 1])) / (2 * h)
        got = upper(pts[:, 0], pts[:, 1])
        fd_ok &= bool(np.all(np.abs(got - fd) <= 1e-5 * np.maximum(np.abs(fd), 1e-8)))

    # permutation invariance of the solve
    problem = trig_stokes_problem()
    ps = make_level_pointset(1)
    system = assemble(ps, StokesKernelConfig(psi, psi, nu=1.0, delta=0.6),
                      problem.f, problem.g)
    base = solve(system).coefficients
    perm = rng.permutation(system.size)
    system.matrix = system.matrix[np.ix_(perm, perm)]
    system.rhs = system.rhs[perm]
    permuted = solve(system).coefficients
    perm_ok = np.abs(permuted - base[perm]).max() <= 1e-10 * np.abs(base).max()

    # quadrature self-consistency on the solved model
    model, _, _ = experiment
    a, _ = grid_errors(model, problem, "velocity", 100)
    b, _ = grid_errors(model, problem, "velocity", 150)
    quad_ok = abs(a - b) <= 1e-3 * max(a, b)

    ok = sym_ok and support_ok and fd_ok and perm_ok and quad_ok
    _verdict(
        7, ok,
        f"gram symmetry {sym_ok}, support zeros {support_ok}, "
        f"finite differences {fd_ok}, permutation invariance {perm_ok}, "
        f"quadrature 100 vs 150 {quad_ok}",
    )


def test_error_contraction_ratios(experiment):
    # consecutive-level velocity L2 ratios stay above 15, and every error
    # series decreases strictly (the published run contracts by 16-25x)
    _, report, _ = experiment
    ratios = [a / b for a, b in zip(report.velocity_l2, report.velocity_l2[1:])]
    ok = all(r >= 15.0 for r in ratios)
    for series in (report.velocity_l2, report.velocity_linf,
                   report.pressure_grad_l2, report.pressure_grad_linf):
        ok &= all(a > b for a, b in zip(series, series[1:]))
    print(
        f"{'PASS' if ok else 'FAIL'}  error contraction: velocity L2 ratios "
        f"{['%.1f' % r for r in ratios]} (>= 15), all norms strictly decreasing"
    )
    assert ok


def test_criterion_8_manufactured_solution_oracle():
    x1, x2 = sympy.symbols("x1 x2")
    u_sym = (2 * sympy.cos(5 * x1) * sympy.cos(2 * x2),
             5 * sympy.sin(5 * x1) * sympy.sin(2 * x2))
    p_sym = sympy.sin(3 * x1) * sympy.sin(3 * x2)
    lap = lambda w: sympy.diff(w, x1, 2) + sympy.diff(w, x2, 2)
    f_sym = sympy.lambdify(
        (x1, x2),
        (-lap(u_sym[0]) + sympy.diff(p_sym, x1),
         -lap(u_sym[1]) + sympy.diff(p_sym, x2)),
        "numpy",
    )
    div_sym = sympy.lambdify(
        (x1, x2), sympy.diff(u_sym[0], x1) + sympy.diff(u_sym[1], x2), "numpy"
    )
    problem = trig_stokes_problem()
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, size=(1000, 2))
    momentum_gap = np.abs(
        problem.f(pts) - np.column_stack(f_sym(pts[:, 0], pts[:, 1]))
    ).max()
    div_gap = np.abs(div_sym(pts[:, 0], pts[:, 1])).max()
    ok = momentum_gap <= 1e-10 and div_gap <= 1e-12
    _verdict(
        8, ok,
        f"-nu lap u + grad p - f and div u vanish at 1000 random points "
        f"(gaps {momentum_gap:.1e}, {div_gap:.1e}; u2 uses sin(2 x2))",
    )


@pytest.mark.skipif(not RUN_LEVEL5, reason="set STOKESRBF_LEVEL5=1 to enable")
def test_criterion_1_level5_optional():
    start = time.monotonic()
    model, report = run_experiment(
        MultiscaleConfig(n_levels=5), quad_points=100, eigen_levels=0
    )
    runtime = time.monotonic() - start
    factors = {
        name: _factors(getattr(report, name), PUBLISHED[name])[4]
        for name in ("velocity_l2", "velocity_linf",
                     "pressure_grad_l2", "pressure_grad_linf")
    }
    monotone = all(
        a > b for a, b in zip(report.velocity_l2, report.velocity_l2[1:])
    )
    ok = (
        factors["velocity_l2"] <= 2.0
        and all(factors[k] <= 3.0 for k in factors if k != "velocity_l2")
        and monotone
    )
    _verdict(
        "1 (level 5)", ok,
        "level-5 factors "
        + ", ".join(f"{k}={v:.2f}" for k, v in factors.items())
        + f", velocity L2 monotone={monotone} (runtime {runtime:.0f}s)",
    )
