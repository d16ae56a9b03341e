"""Seeded-mutant audit: every check that the tests make must be able to fail.

Each mutant below is a one-line source edit that breaks a rule the tests
are meant to hold.  For each, the script copies the tree next to this
script to a temporary directory, applies the edit there and runs the
tier-1 tests with ``-x``: the mutant is killed when the run fails (the
first failing test is printed as its killer) and survives when it
passes.  The unmutated copy is run first and must pass.

    python tools/check_mutants.py            # every mutant
    python tools/check_mutants.py NAME ...   # the mutants of these names

Exits 1 when a mutant survives that is not marked equivalent with a
reason, or when a mutant's text no longer occurs exactly once in its file
(the source moved on and the mutant must be rewritten), and 2 when the
unmutated tree fails.  Each run takes about as long as tier-1 (~20 s);
a killed mutant stops at its first failure.  Uses the standard library
only, and is not collected by the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file, within one line
    new: str
    equivalent: str | None = None  # why a survivor changes no behaviour


MUTANTS = [
    # the term algebra, the power tables and the input rules of the kernel pipeline
    Mutant("diff-raised-power", "src/stokesrbf/radial.py",
           "m - 2): m * c", "m - 1): m * c"),
    Mutant("combine-keeps-zero-sums", "src/stokesrbf/radial.py",
           "            if acc:\n", "            if True:\n"),
    Mutant("call-tables-at-first-slab", "src/stokesrbf/collocation.py",
           "table[1][positions]", "table[1][plan.points(slice(0, len(pts)))]"),
    Mutant("no-slab-tables", "src/stokesrbf/collocation.py",
           "if None in tables and len(plan.slabs) > 1:", "if False:"),
    Mutant("assemble-data-no-shape-test", "src/stokesrbf/collocation.py",
           "if vals.shape != (len(points), 2):", "if False:"),
    Mutant("columns-count-never-raises", "src/stokesrbf/radial.py",
           "if not 0 < len(points) == len(scale):", "if False:"),
    # the input rules of `geometry`
    Mutant("real-finite-takes-complex", "src/stokesrbf/geometry.py",
           "if np.iscomplexobj(values):", "if False:"),
    Mutant("real-finite-takes-non-finite", "src/stokesrbf/geometry.py",
           "if not np.isfinite(values).all():", "if False:"),
    Mutant("integer-count-takes-bool", "src/stokesrbf/geometry.py",
           "if isinstance(n, bool) or not isinstance(n, numbers.Integral)",
           "if not isinstance(n, numbers.Integral)"),
    Mutant("check-memory-never-raises", "src/stokesrbf/geometry.py",
           "if need > have:", "if False:"),
    # the published quantities
    Mutant("quadrature-weights-x1.2", "src/stokesrbf/analysis.py",
           "weights = 0.5 * weights", "weights = 0.6 * weights"),
    Mutant("kappa-x2", "src/stokesrbf/analysis.py",
           "report.condition_numbers[index + 1] = lam_max / lam_min",
           "report.condition_numbers[index + 1] = 2 * lam_max / lam_min"),
    Mutant("lambda-min-x3", "src/stokesrbf/analysis.py",
           "report.lambda_min[index + 1] = lam_min",
           "report.lambda_min[index + 1] = 3 * lam_min"),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks", "out")


def run_tier1(tree: Path) -> tuple[bool, str, float]:
    """(passed, first failing test or "", seconds) of tier-1 on ``tree``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"),
                                                      env.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    last = (done.stdout.strip().splitlines() or [f"exit status {done.returncode}"])[-1]
    first = failed[0].split(" - ")[0] if failed else ("" if done.returncode == 0 else last)
    return done.returncode == 0, first, time.perf_counter() - start


def apply(tree: Path, mutant: Mutant) -> None:
    """Writes ``mutant`` into the copy ``tree``; ValueError unless its text
    occurs exactly once in its file, within one line."""
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1 or "\n" in mutant.old.rstrip("\n"):
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} "
                         f"times in {mutant.path}, not once within one line")
    path.write_text(text.replace(mutant.old, mutant.new))


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    status = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        base = Path(workdir) / "base"
        shutil.copytree(ROOT, base, ignore=_IGNORE)
        passed, first, seconds = run_tier1(base)
        print(f"unmutated  {'passed' if passed else 'FAILED: ' + first}  ({seconds:.0f} s)",
              flush=True)
        if not passed:
            return 2
        for mutant in chosen:
            tree = Path(workdir) / mutant.name
            shutil.copytree(base, tree, ignore=_IGNORE)
            try:
                apply(tree, mutant)
            except ValueError as exc:
                print(f"stale      {exc}", flush=True)
                status = 1
                continue
            passed, first, seconds = run_tier1(tree)
            if not passed:
                print(f"killed     {mutant.name}  by {first}  ({seconds:.0f} s)", flush=True)
            elif mutant.equivalent:
                print(f"equivalent {mutant.name}: {mutant.equivalent}", flush=True)
            else:
                print(f"SURVIVED   {mutant.name}  ({seconds:.0f} s)", flush=True)
                status = 1
            shutil.rmtree(tree)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
