"""Cold set-up probe, run in a fresh interpreter by run.py.

Imports the package and builds the kernel derivative tables of every
functional pair the workloads use, then prints both times as JSON.
"""

import json
import time

t0 = time.perf_counter()
import numpy as np  # noqa: E402

from stokesrbf.stokes_kernel import StokesKernelConfig, kernel_block  # noqa: E402
from stokesrbf.wendland import wendland_c8  # noqa: E402

t1 = time.perf_counter()
psi = wendland_c8()
cfg = StokesKernelConfig(psi, psi)
xa, xb = np.zeros((1, 2)), np.full((1, 2), 0.25)
rows = [("pde", 1), ("pde", 2), ("velocity", 1), ("velocity", 2),
        ("pressure", 0), ("pressure_grad", 1), ("pressure_grad", 2)]
cols = [("pde", 1), ("pde", 2), ("dirichlet", 1), ("dirichlet", 2)]
for row in rows:
    for col in cols:
        kernel_block(cfg, row, col, xa, xb)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "compile_s": t2 - t1}))
