"""Check the output contract: the bytes the reproduction writes.

Runs ``stokesrbf run --levels 4`` and ``stokesrbf dump-matrix --level L``
for L = 1..4 from the source tree next to this script, in a temporary
directory, and compares the sha256 of the six files with the values below.
Prints each file with both values and exits 1 on any mismatch.

    python tools/check_contract.py

The hashes hold for one numeric stack: numpy 2.4 with its bundled OpenBLAS
0.3.31 (Haswell kernels) and glibc's libm on x86_64.  Another numpy, BLAS
or libm may round differently, and then a mismatch says nothing about the
change under test; record the values of the parent commit instead.
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
}


def _stokesrbf(args: list[str], cwd: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "stokesrbf.cli", *args], cwd=cwd, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _stokesrbf(["run", "--levels", "4"], tmp)
        for level in range(1, 5):
            _stokesrbf(["dump-matrix", "--level", str(level),
                        "--out", f"matrix-{level}.bin"], tmp)
        failed = 0
        for name, expected in CONTRACT.items():
            got = hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
            ok = got == expected
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}\n     expected {expected}\n     got      {got}")
    print("contract holds" if not failed else f"{failed} of {len(CONTRACT)} files differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
