"""The three benchmark workloads.

reproduce-l4  The published experiment as users run it: `stokesrbf run
              --levels 4`.  Most of its time is evaluating each level on the
              100x100 quadrature grid, so evaluation-side work shows here.
solve-l4      One level-4 system (2434 unknowns) assembled at delta_4 with
              the manufactured f and g, solved, and evaluated at 200 seeded
              probe points.  Assembly, Cholesky, refinement and memory
              dominate it; evaluation barely appears.
query-model   A 4-level model fitted, saved and loaded in set-up (three
              times; the median counts), then one client in a closed loop
              asking for seeded batches of 1-16 points, alternating velocity
              and pressure gradient.  Small batches make the fixed per-call
              cost of evaluation dominate.

Each workload runs its operation repeatedly until ``seconds`` have passed,
at least once.  Inputs are generated here from the seed; the program sees
only the generated points and batches.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import qmc

import gates
from stokesrbf import cli, collocation, geometry, multiscale
from stokesrbf.analysis import gauss_legendre_grid, trig_stokes_problem
from stokesrbf.stokes_kernel import StokesKernelConfig
from stokesrbf.wendland import wendland_c8

_clock = time.perf_counter

PROBE_POINTS = 200
SOLVE_LEVEL = 4
BATCH_SIZES = (1, 16)
QUERY_REQUESTS = ("velocity", "pressure-gradient")
QUAD_POINTS = 100  # the default of `stokesrbf run`
CHECK_QUAD = 20  # Gauss-Legendre nodes per side of the accuracy check grid
SETUP_REPEATS = 3  # query-model fits; setup_s takes their median


@dataclass
class Outcome:
    """What one workload run measured.

    ``latencies`` holds one wall time per operation; ``points`` counts the
    evaluation points whose fields the operations returned.
    """

    latencies: list[float] = field(default_factory=list)
    points: int = 0
    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    velocity_l2: float = float("nan")
    grad_p_l2: float = float("nan")
    probe_linf: float = float("nan")
    solve_residual_max: float = float("nan")
    failures: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    model: object = None  # the fitted model, checked on a fixed grid after the run

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures[:3])


@contextlib.contextmanager
def _root(tracer, name: str):
    if tracer is None:
        yield
        return
    index = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(index)


def reproduce_l4(seed: int, seconds: float, tracer, workdir: Path) -> Outcome:
    # the published experiment has no random input; the seed is only recorded
    out = Outcome()
    reference = gates.published_reference()
    models = []
    run_experiment = cli.run_experiment

    def capture(*args, **kwargs):
        model, report = run_experiment(*args, **kwargs)
        models.append(model)
        return model, report

    cli.run_experiment = capture
    try:
        deadline = _clock() + seconds
        while True:
            with tempfile.TemporaryDirectory(dir=workdir) as tmp:
                csv, summary = Path(tmp, "report.csv"), Path(tmp, "summary.txt")
                argv = ["run", "--levels", "4",
                        "--out-csv", str(csv), "--out-summary", str(summary)]
                with _root(tracer, "bench.job"), \
                        contextlib.redirect_stdout(io.StringIO()):
                    t0 = _clock()
                    code = cli.main(argv)
                    out.latencies.append(_clock() - t0)
                if code != 0:
                    out.record([f"stokesrbf run exited with {code}"])
                    break
                rows = gates.parse_report_csv(csv.read_text(encoding="utf-8"))
                out.notes["summary_sha256"] = hashlib.sha256(
                    summary.read_bytes()).hexdigest()
            residual = max(sol.solve_residual for sol in models[-1].levels)
            out.record(gates.report_failures(rows, reference, 4)
                       + gates.solve_failures(residual))
            out.points += 4 * QUAD_POINTS**2
            out.velocity_l2 = rows["velocity_l2"][-1]
            out.grad_p_l2 = rows["pressure_grad_l2"][-1]
            out.probe_linf = rows["velocity_linf"][-1]
            out.solve_residual_max = residual
            if _clock() >= deadline:
                break
    finally:
        cli.run_experiment = run_experiment
    return out


def probe_points(seed: int) -> np.ndarray:
    """Seeded scrambled Halton points, spread evenly over the unit square."""
    return qmc.Halton(d=2, scramble=True, seed=seed).random(PROBE_POINTS)


def _solve_job(probes: np.ndarray, problem):
    pointset = geometry.make_level_pointset(SOLVE_LEVEL)
    config = multiscale.MultiscaleConfig(n_levels=SOLVE_LEVEL)
    delta = multiscale.scale_schedule(config)[SOLVE_LEVEL - 1]
    psi = wendland_c8()
    kernel = StokesKernelConfig(psi, psi, nu=1.0, delta=delta)
    system = collocation.assemble(pointset, kernel, problem.f, problem.g)
    solution = collocation.solve(system)
    del system
    velocity, _ = collocation.evaluate(solution, probes)
    return solution, velocity


def solve_l4(seed: int, seconds: float, tracer, workdir: Path) -> Outcome:
    out = Outcome()
    problem = trig_stokes_problem()
    bound = gates.linf_bound(gates.published_reference(), "velocity_linf", SOLVE_LEVEL)
    probes = probe_points(seed)
    u_ref = problem.u(probes)
    deadline = _clock() + seconds
    while True:
        with _root(tracer, "bench.job"):
            t0 = _clock()
            solution, velocity = _solve_job(probes, problem)
            out.latencies.append(_clock() - t0)
        out.record(gates.solve_failures(solution.solve_residual)
                   + gates.field_failures("probe velocity", probes, velocity, u_ref, bound))
        out.points += PROBE_POINTS
        out.notes["probe_velocity_max_error"] = float(
            gates.field_errors(velocity, u_ref).max())
        out.solve_residual_max = solution.solve_residual
        out.model = multiscale.MultiscaleModel(
            levels=[solution], config=multiscale.MultiscaleConfig(n_levels=1))
        if _clock() >= deadline:
            break
    return out


def query_batches(seed: int):
    """Endless seeded query stream: (points, request) with 1-16 points."""
    rng = np.random.default_rng(seed)
    index = 0
    while True:
        size = int(rng.integers(BATCH_SIZES[0], BATCH_SIZES[1] + 1))
        yield rng.random((size, 2)), QUERY_REQUESTS[index % 2]
        index += 1


def query_model(seed: int, seconds: float, tracer, workdir: Path) -> Outcome:
    out = Outcome()
    problem = trig_stokes_problem()
    reference = gates.published_reference()
    bounds = {
        "velocity": gates.linf_bound(reference, "velocity_linf", 4),
        "pressure-gradient": gates.linf_bound(reference, "pressure_grad_linf", 4),
    }
    exact = {"velocity": problem.u, "pressure-gradient": problem.grad_p}
    setups = []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = os.path.join(tmp, "model.bin")
        for _ in range(SETUP_REPEATS):
            with _root(tracer, "bench.setup"):
                t0 = _clock()
                fitted = multiscale.run(problem, multiscale.MultiscaleConfig(n_levels=4))
                multiscale.save_model(fitted, path)
                model = multiscale.load_model(path)
                setups.append(_clock() - t0)
    out.setup_s = statistics.median(setups)
    out.solve_residual_max = max(sol.solve_residual for sol in fitted.levels)
    out.record(gates.solve_failures(out.solve_residual_max))

    deadline = _clock() + seconds
    for x, request in query_batches(seed):
        with _root(tracer, "bench.query"):
            t0 = _clock()
            values = multiscale.evaluate_model(model, x, request)
            out.latencies.append(_clock() - t0)
        out.record(gates.field_failures(
            request, x, values, exact[request](x), bounds[request]))
        out.points += len(x)
        if _clock() >= deadline:
            break
    out.model = model
    return out


def model_accuracy(out: Outcome) -> None:
    """Fill the accuracy fields from the model on the fixed check grid.

    The grid is fixed, not seeded: an error sampled at seeded points spreads
    from seed to seed (the grad p error peaks in the corners) by more than
    any bound on a regression could allow.
    """
    problem = trig_stokes_problem()
    pts, weights = gauss_legendre_grid(CHECK_QUAD)
    verr = gates.field_errors(multiscale.evaluate_model(out.model, pts), problem.u(pts))
    gerr = gates.field_errors(
        multiscale.evaluate_model(out.model, pts, "pressure-gradient"), problem.grad_p(pts))
    out.velocity_l2 = float(np.sqrt(np.sum(weights * verr * verr)))
    out.grad_p_l2 = float(np.sqrt(np.sum(weights * gerr * gerr)))
    out.probe_linf = float(verr.max())


WORKLOADS = {
    "reproduce-l4": reproduce_l4,
    "solve-l4": solve_l4,
    "query-model": query_model,
}
