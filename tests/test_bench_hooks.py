"""Every name the benchmark's traced run hooks must exist in the package.

`perfbench/layers.py` replaces package names by traced wrappers; a name that
disappears from the package would otherwise break only the traced benchmark
run.  This installs the hooks, runs one traced level and removes them again.
A traced two-level experiment also pins the self time of each layer and that
no kernel_block call computes a pressure row nobody reads.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402
from stokesrbf import cli, collocation, multiscale  # noqa: E402
from stokesrbf.analysis import trig_stokes_problem  # noqa: E402


def test_traced_run_hooks_install_and_uninstall():
    originals = (collocation.kernel_block, multiscale.assemble, multiscale.run)
    tracer = tracing.Tracer("t")
    layers.install(tracer)
    try:
        assert multiscale.run is not originals[2]
        multiscale.run(trig_stokes_problem(), multiscale.MultiscaleConfig(n_levels=1))
    finally:
        tracer.uninstall()
    assert (collocation.kernel_block, multiscale.assemble, multiscale.run) == originals
    assert tracer.stat("collocation.assemble").work == 82**2
    assert tracer.stat("kernel.pdexpde").calls == 4


def test_traced_experiment_times_each_layer_and_skips_pressure_rows():
    # no caller of a two-level experiment reads a pressure value, so no
    # kernel_block call may compute the pressure row
    tracer = tracing.Tracer("t")
    layers.install(tracer)
    try:
        cli.run_experiment(
            multiscale.MultiscaleConfig(n_levels=2), quad_points=10, eigen_levels=0
        )
    finally:
        tracer.uninstall()
    selfs = tracer.self_times()
    for span in ("multiscale.residual", "analysis.grid_eval",
                 "collocation.assemble", "collocation.cholesky"):
        assert selfs.get(span, 0.0) > 0.0, span
    assert tracer.stat("kernel.pressurexpde").calls == 0
    assert tracer.stat("kernel.pressurexdirichlet").calls == 0


def test_traced_query_counts_the_kernel_calls_of_one_pass():
    # the traced query-model run times evaluate_model as a span of its own
    # and counts the kernel_block calls inside it, which must still reach
    # collocation.kernel_block through the module's name, with the
    # (cfg, row, col, xa, xb) arguments that the tracer's wrapper takes.  A
    # 2-level velocity batch is one pass: one call per label pair and centre
    # kind, 2 x 2 x 2, each against the centres of both levels
    model = multiscale.run(trig_stokes_problem(), multiscale.MultiscaleConfig(n_levels=2))
    x = np.random.default_rng(7).random((9, 2))
    tracer = tracing.Tracer("t")
    layers.install(tracer)
    try:
        got = multiscale.evaluate_model(model, x)
    finally:
        tracer.uninstall()
    np.testing.assert_array_equal(got, multiscale.evaluate_model(model, x))
    assert tracer.self_times().get("multiscale.evaluate_model", 0.0) > 0.0
    interior = tracer.stat("kernel.velocityxpde")
    boundary = tracer.stat("kernel.velocityxdirichlet")
    assert tracer.stat("kernel.query").calls == interior.calls + boundary.calls == 8
    assert interior.work == 4 * 9 * (25 + 81) and boundary.work == 4 * 9 * (16 + 32)
