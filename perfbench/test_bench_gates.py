"""The benchmark's own checks must be able to fail.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository
root.  Each gate is shown passing on good output and failing on a perturbed
report, a wrong reference, perturbed coefficients, a bad shape or a NaN batch.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gates  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stokesrbf import multiscale  # noqa: E402
from stokesrbf.analysis import trig_stokes_problem  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return gates.published_reference()


def _csv(rows):
    lines = ["level," + ",".join(str(j + 1) for j in range(len(rows["velocity_l2"])))]
    for name, values in rows.items():
        lines.append(name + "," + ",".join(f"{v:.3e}" for v in values))
    return "\n".join(lines) + "\n"


def _published_rows(reference, levels=4):
    return {name: list(values[:levels]) for name, values in reference.items()}


def test_report_gate_passes_published_values(reference):
    rows = gates.parse_report_csv(_csv(_published_rows(reference)))
    assert gates.report_failures(rows, reference, 4) == []


@pytest.mark.parametrize("name", sorted(gates.REPORT_FACTORS))
def test_report_gate_fails_perturbed_report(reference, name):
    rows = _published_rows(reference)
    rows[name][2] *= 1.01 * gates.REPORT_FACTORS[name]
    failures = gates.report_failures(gates.parse_report_csv(_csv(rows)), reference, 4)
    assert len(failures) == 1 and f"{name} level 3" in failures[0]


def test_report_gate_fails_wrong_reference(reference):
    rows = gates.parse_report_csv(_csv(_published_rows(reference)))
    wrong = dict(reference, velocity_l2=tuple(10 * v for v in reference["velocity_l2"]))
    assert len(gates.report_failures(rows, wrong, 4)) == 4


def test_report_gate_fails_missing_level(reference):
    rows = gates.parse_report_csv(_csv(_published_rows(reference, levels=3)))
    assert len(gates.report_failures(rows, reference, 4)) == len(gates.REPORT_FACTORS)


def test_solve_gate():
    assert gates.solve_failures(2.5e-11) == []
    assert gates.solve_failures(2.3e-8)
    assert gates.solve_failures(float("nan"))


@pytest.fixture(scope="module")
def two_level_model():
    return multiscale.run(trig_stokes_problem(), multiscale.MultiscaleConfig(n_levels=2))


@pytest.mark.parametrize("request_, fieldname", [
    ("velocity", "velocity_linf"),
    ("pressure-gradient", "pressure_grad_linf"),
])
def test_batch_gate_fails_perturbed_coefficients(two_level_model, reference,
                                                 request_, fieldname):
    problem = trig_stokes_problem()
    exact = problem.u if request_ == "velocity" else problem.grad_p
    bound = gates.linf_bound(reference, fieldname, 2)
    x = workloads.probe_points(3)[:16]
    good = multiscale.evaluate_model(two_level_model, x, request_)
    assert gates.field_failures(request_, x, good, exact(x), bound) == []

    rng = np.random.default_rng(0)
    levels = [
        replace(sol, coefficients=sol.coefficients
                * (1 + 0.1 * rng.standard_normal(len(sol.coefficients))))
        for sol in two_level_model.levels
    ]
    perturbed = multiscale.MultiscaleModel(levels=levels, config=two_level_model.config)
    bad = multiscale.evaluate_model(perturbed, x, request_)
    assert gates.field_failures(request_, x, bad, exact(x), bound)


def test_batch_gate_fails_nan_and_shape():
    x = workloads.probe_points(0)[:8]
    exact = trig_stokes_problem().u(x)
    nan_batch = exact.copy()
    nan_batch[3, 1] = np.nan
    assert gates.field_failures("v", x, exact, exact, 1e-12) == []
    assert "non-finite" in gates.field_failures("v", x, nan_batch, exact, 1e-12)[0]
    assert "shape" in gates.field_failures("v", x, exact[:-1], exact, 1e-12)[0]
    assert "shape" in gates.field_failures("v", x, exact[:, :1], exact, 1e-12)[0]


def test_workload_inputs_follow_the_seed():
    assert np.array_equal(workloads.probe_points(5), workloads.probe_points(5))
    assert not np.array_equal(workloads.probe_points(5), workloads.probe_points(6))
    first = [b for _, b in zip(range(5), workloads.query_batches(5))]
    again = [b for _, b in zip(range(5), workloads.query_batches(5))]
    assert all(np.array_equal(a[0], b[0]) and a[1] == b[1] for a, b in zip(first, again))
    assert all(1 <= len(x) <= 16 for x, _ in first)


def test_self_times_partition_the_root():
    tracer = tracing.Tracer("test")
    root = tracer.open("root")
    child = tracer.open("child")
    tracer.open("grandchild")
    tracer.close(2)
    tracer.close(child)
    tracer.close(root)
    selfs = tracer.self_times()
    total = tracer.spans[0].end - tracer.spans[0].start
    assert sum(selfs.values()) == pytest.approx(total)
    assert all(v >= 0 for v in selfs.values())
    assert [s.parent for s in tracer.spans] == [-1, 0, 1]


def test_wrap_restores_names():
    from stokesrbf import collocation

    original = collocation.kernel_block
    tracer = tracing.Tracer("test")
    tracer.wrap_kernel_block(collocation)
    assert collocation.kernel_block is not original
    tracer.uninstall()
    assert collocation.kernel_block is original


def test_metric_names_match_benchmark_json():
    import json

    import layers
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    probe = {"wall_s": 0.5, "import_s": 0.4, "compile_s": 0.01}
    traced = layers.layer_metrics(tracing.Tracer("test"), probe, queries=0)
    assert sorted(traced) == sorted(m["name"] for m in spec["per_layer"])
    assert all(traced[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    outcome = workloads.Outcome(latencies=[0.1, 0.2], points=3)
    untraced = run.end_to_end(outcome, probe, peak_mb=100.0)
    assert sorted(untraced) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(untraced[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    assert sorted(run.WORKLOAD_NAMES) == sorted(w["name"] for w in spec["workloads"])
