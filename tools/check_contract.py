"""Check the output contract: the bytes the reproduction writes and the
bits of every evaluated field.

Runs ``stokesrbf run --levels 4`` and ``stokesrbf dump-matrix --level L``
for L = 1..4 from the source tree next to this script, in a temporary
directory.  It then fits a 4-level model with ``multiscale.run``, writing
each level's matrix as ``on_level`` sees it after the solve to
solved-matrix-L.bin: the solve factorizes in place and gives the matrix
back, so these files must equal matrix-L.bin.  It saves the model, loads it
back and evaluates every request on the 100^2 quadrature grid, on seeded
batches of 1, 16 and 301 points and on 16 seeded points of the grid of step
1/32 (whose blocks against the level-3 and level-4 interior centres are
gathered from lattice tables, and against the other centres are not),
writing each level's field and their sum (`evaluate_model`) to one file per
request and batch: summary.txt and
report.csv print 4 significant digits, so only these files see the last
bits of an evaluation.  It also evaluates velocity and pressure gradient
in one call on every batch, per level (`evaluate_fields`) and for all
levels in one pass (`evaluate_levels`, summed in level order), and writes
each field as joint-<request>-<batch>.bin, which must equal its
fields-<request>-<batch>.bin.  It writes the points and then the weights
of `gauss_legendre_grid(q)` for q = 20, 100 and 300 to grid-<q>.bin.
Compares the sha256 of every file with the values below, prints each file
with both values and exits 1 on any mismatch.

    python tools/check_contract.py

The hashes hold for one numeric stack: numpy 2.4 with its bundled OpenBLAS
0.3.31 and glibc's libm on x86_64.  They were last checked on a 2-core
AVX-512 VM where both bundled OpenBLAS copies report SkylakeX kernels
(`scipy_openblas_get_corename`).  Another numpy, BLAS, kernel set or libm
may round differently, and then a mismatch says nothing about the change
under test; record the values of the parent commit instead.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONTRACT = {
    "summary.txt": "84aacfd54013dac9524f7d0ff505fa591d38add329180665e4ddc0fdeb5413c5",
    "report.csv": "ac62d0a05241912e2336ddeba56837372a92f1b0f85506f82534c96eabf0d620",
    "matrix-1.bin": "3e990fa9b0ecc52aec7c29c23615e44963a3b4ce187529eba9906d58272f4454",
    "matrix-2.bin": "29a29427940fe8b3b5119ed4ae1d286c5f49bae882e95e9b023fee2daf35dded",
    "matrix-3.bin": "b8b5112b7beb5a0f4d727f1e20b78eb98c7b5addbbb33c65e0118a96ebd1f444",
    "matrix-4.bin": "d003e102636592a992c76c8ca7ebb44c8d970f8fc8ae51bd23bc8ac98bd7429d",
    "solved-matrix-1.bin": "3e990fa9b0ecc52aec7c29c23615e44963a3b4ce187529eba9906d58272f4454",
    "solved-matrix-2.bin": "29a29427940fe8b3b5119ed4ae1d286c5f49bae882e95e9b023fee2daf35dded",
    "solved-matrix-3.bin": "b8b5112b7beb5a0f4d727f1e20b78eb98c7b5addbbb33c65e0118a96ebd1f444",
    "solved-matrix-4.bin": "d003e102636592a992c76c8ca7ebb44c8d970f8fc8ae51bd23bc8ac98bd7429d",
    "model.bin": "972c1b3925b624c65ef693bf614652ae7058e4bd2f1452fc71297b19304c82d9",
    "fields-value-grid.bin": "e3bc1f05930ea428624ae5b260df0cf54c8ed498360f819944c2ed0f28a2c012",
    "fields-value-random1.bin": "b1a6de5de9c5274c1954421a7b95be3abdde10465142aa38e638660c8aac03f7",
    "fields-value-random16.bin": "2866c7b28812c38200351a77cb9df8a35125fc3339a0e23aa44e71dcb3e42410",
    "fields-value-random301.bin": "7fc5f7edf25bbaebd8f211a8b165882a0d9ef5ec3bc995ce2cee71632e6427bb",
    "fields-value-lattice16.bin": "e9123ee9b0c537d959265bdf298740a7d0100e4b54cba43af31d642e9f9a73b7",
    "fields-velocity-grid.bin": "8226599fab865cd6a04135441817be2201525c8a202cc3fd307b3218f67f0a6d",
    "fields-velocity-random1.bin": "cf651c59bc4b6d8a4156202149788f514e159eaef3f8af78d0eb4ef3865824fb",
    "fields-velocity-random16.bin": "0d7350ad0761739877b927a7b1c34385745f5a19749dd878ec45b8fe1d8e10d0",
    "fields-velocity-random301.bin": "00ebea8bd1528686129749a15c951911959f00cbf97985032b257e7be1228616",
    "fields-velocity-lattice16.bin": "1dff73052dbb8f501d5aae7e27d1388ae1bc0f570af70d5648f4c5570616edb6",
    "fields-l-image-grid.bin": "3310c57d830c48297f554aef97b8c43bc2a63f1627211cf9b9267c9388e7df3c",
    "fields-l-image-random1.bin": "35bddaef12cb281a5d8f7d090344aa38a9a2550e77220e4b4507452392e16445",
    "fields-l-image-random16.bin": "bf2d8ab579cc64504d7de84b23087c144c9a7b7ed0fabb29fe1f10bc91b0564d",
    "fields-l-image-random301.bin": "bff6205b3a00bd7b52dd0a73bd780aaa9c13b3e75fb3d3257610a55177b3cc8f",
    "fields-l-image-lattice16.bin": "cc132c724627159201309279b04848b8762a6ef01d11915a9b2d8f7ac14c01e5",
    "fields-divergence-grid.bin": "946cc2661d32ad837bd22fb051ee47ed6012e33a6db1617870fec60691ed7f09",
    "fields-divergence-random1.bin": "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb",
    "fields-divergence-random16.bin": "9e132485d5107211de325a45e7917cbe3e4b5b9cde3e4ee91d7d2102317759ee",
    "fields-divergence-random301.bin": "0ac65d083f1b5f94493a70a6793874ebebbc343a12667bb8ef688f7fcc48b8e5",
    "fields-divergence-lattice16.bin": "9e132485d5107211de325a45e7917cbe3e4b5b9cde3e4ee91d7d2102317759ee",
    "fields-pressure-gradient-grid.bin": "204f5a1a62b7a29b64afe43abb16a6db35a14e6ed7c4e9abe9832b4d274cf37a",
    "fields-pressure-gradient-random1.bin": "a1f2d8c56db24eb067e8db007088589e139ae247b401af24e545bda44a3e3d2a",
    "fields-pressure-gradient-random16.bin": "22dd0d812f4e7e3c6ee91472dceb08228b9de6de9c5eaa7ab73d24c4ebd1a467",
    "fields-pressure-gradient-random301.bin": "a724c52990ee643c5def402cb95e564d58cfbe80ab03ae3ea04e9312a5a0b344",
    "fields-pressure-gradient-lattice16.bin": "41c3276fc6cd80728b6f8310076191a33ed2542e1a2fcadccb73fd13e892a46a",
    "grid-20.bin": "7b67b5f4336b5a34068800a2e8ac6e7cae9fb5a26d6a28443de0e5fe6390f6c0",
    "grid-100.bin": "ec181009b282ec5eb3f50aaa55ba15fc1f2a897fee6332f9151da400abbae195",
    "grid-300.bin": "c0a506822a9943e6337aaf3f3450cda0977e162ad69d48c4e0cb3cb3a0000823",
}

# the requests evaluated in one call, and the batches
JOINT = ("velocity", "pressure-gradient")
BATCHES = ("grid", "random1", "random16", "random301", "lattice16")
# each joint file must hash as the single-request file of its field
JOINT_CONTRACT = {f"joint-{request}-{batch}.bin": CONTRACT[f"fields-{request}-{batch}.bin"]
                  for request in JOINT for batch in BATCHES}

# writes grid-<q>.bin, fits the model, writing solved-matrix-<level>.bin,
# saves and loads it, then writes fields-<request>-<batch>.bin and
# joint-<request>-<batch>.bin
FIELDS_SCRIPT = """
import numpy as np
from stokesrbf.analysis import gauss_legendre_grid, trig_stokes_problem
from stokesrbf.collocation import evaluate_fields, evaluate_levels, write_matrix
from stokesrbf.multiscale import (MultiscaleConfig, evaluate_model, load_model,
                                  run, save_model)

for q in (20, 100, 300):
    with open(f"grid-{q}.bin", "wb") as fh:
        for array in gauss_legendre_grid(q):
            fh.write(array.tobytes())

def write_solved(index, system, solution):
    write_matrix(system.matrix, f"solved-matrix-{index + 1}.bin")

save_model(run(trig_stokes_problem(), MultiscaleConfig(n_levels=4), on_level=write_solved),
           "model.bin")
model = load_model("model.bin")
batches = {"grid": gauss_legendre_grid(100)[0]}
for n in (1, 16, 301):
    batches[f"random{n}"] = np.random.default_rng(n).uniform(0, 1, (n, 2))
batches["lattice16"] = np.random.default_rng(32).integers(0, 33, (16, 2)) / 32
for request in ("value", "velocity", "l-image", "divergence", "pressure-gradient"):
    for name, x in batches.items():
        with open(f"fields-{request}-{name}.bin", "wb") as fh:
            for level in model.levels:
                fh.write(evaluate_fields(level, x, request).tobytes())
            fh.write(evaluate_model(model, x, request).tobytes())
joint = %r
for name, x in batches.items():
    per_level = [evaluate_fields(level, x, joint) for level in model.levels]
    for i, (request, fields) in enumerate(zip(joint, evaluate_levels(model.levels, x, joint))):
        with open(f"joint-{request}-{name}.bin", "wb") as fh:
            for level_fields in per_level:
                fh.write(level_fields[i].tobytes())
            total = np.zeros(fields.shape[1:])
            for field in fields:
                total += field
            fh.write(total.tobytes())
""" % (JOINT,)


def _python(args: list[str], cwd: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _python(["-m", "stokesrbf.cli", "run", "--levels", "4"], tmp)
        for level in range(1, 5):
            _python(["-m", "stokesrbf.cli", "dump-matrix", "--level", str(level),
                     "--out", f"matrix-{level}.bin"], tmp)
        _python(["-c", FIELDS_SCRIPT], tmp)
        failed = 0
        expected_hashes = {**CONTRACT, **JOINT_CONTRACT}
        for name, expected in expected_hashes.items():
            got = hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
            ok = got == expected
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}\n     expected {expected}\n     got      {got}")
    print("contract holds" if not failed else f"{failed} of {len(expected_hashes)} files differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
