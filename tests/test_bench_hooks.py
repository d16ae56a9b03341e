"""Every name the benchmark's traced run hooks must exist in the package.

`perfbench/layers.py` replaces package names by traced wrappers; a name that
disappears from the package would otherwise break only the traced benchmark
run.  This installs the hooks, runs one traced level and removes them again.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402
from stokesrbf import collocation, multiscale  # noqa: E402
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
