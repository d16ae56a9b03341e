"""Seeded-mutant audit: every check that the tests make must be able to fail.

Each mutant below is a one-line source edit that breaks a rule the tests
are meant to hold.  For each, the script copies the tree next to this
script to a temporary directory, applies the edit there and runs the
tier-1 tests with ``-x``: the mutant is killed when the run fails (the
first failing test is printed as its killer) and survives when it
passes.  A mutant may name the test meant to see it (``killer``, a pytest
node id): that test alone is then also run on the mutated copy, and must
fail, so that a mutant that a resource guard stops first still shows
whether its behaviour test sees it.  The unmutated copy is run first and
must pass.

    python tools/check_mutants.py            # every mutant
    python tools/check_mutants.py NAME ...   # the mutants of these names

Exits 1 when a mutant survives that is not marked equivalent with a
reason, when its named killer passes on it (or is not found), or when a
mutant's text no longer occurs exactly once in its file (the source moved
on and the mutant must be rewritten), and 2 when the unmutated tree fails.
Each run takes about as long as tier-1 (~45 s on a 2-core x86_64 VM); a
killed mutant stops at its first failure, and a named killer runs in a
few seconds.  Uses the standard library only, and is not collected by the
tests.
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
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
TIER1 = [*PYTEST, "-x", "--continue-on-collection-errors"]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file, within one line
    new: str
    killer: str | None = None  # the test id that must fail on the mutant alone
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
    Mutant("system-takes-any-rhs", "src/stokesrbf/collocation.py",
           'rhs = real_finite(rhs, "right-hand side")', "pass",
           killer="tests/test_collocation.py::test_system_rejects_values_it_cannot_factorize"),
    Mutant("columns-count-never-raises", "src/stokesrbf/radial.py",
           "if not 0 < len(points) == len(scale):", "if False:"),
    # the refinement, the mirror pairs, the sums and the column plan
    Mutant("one-refinement-step", "src/stokesrbf/collocation.py",
           "for _ in range(4):", "for _ in range(1):"),
    Mutant("no-mirror-row-gather", "src/stokesrbf/radial.py",
           "if self._swap is not None:", "if False:"),
    Mutant("sum-copies-first-term", "src/stokesrbf/radial.py",
           "acc if k else 0.0", "acc if k else -0.0"),
    Mutant("stale-plan-after-append", "src/stokesrbf/collocation.py",
           "if plan is None or len(plan.levels) != len(levels) or any(",
           "if plan is None or any("),
    # the slab buffers: carved without overlap, reused only when idle
    Mutant("carve-offset-not-advanced", "src/stokesrbf/radial.py",
           "start, self._free = self._free, self._free + size",
           "start, self._free = self._free, self._free"),
    Mutant("pool-map-unaligned", "src/stokesrbf/radial.py",
           "-np.frombuffer(self._map, np.uint8, 1).ctypes.data % _HUGE_PAGE", "0"),
    Mutant("workers-share-a-pool", "src/stokesrbf/collocation.py",
           "local = threading.local()", "local = _run_slabs"),
    Mutant("pool-idle-off-by-one", "src/stokesrbf/radial.py",
           "sys.getrefcount(buf) == _IDLE_REFS", "sys.getrefcount(buf) <= _IDLE_REFS + 1"),
    Mutant("pool-buffer-sliced-from-an-array", "src/stokesrbf/radial.py",
           "np.uint8, size, start)", "np.uint8)[start:start + size]",
           killer="tests/test_radial.py::test_pool_buffers_are_not_views_of_an_array"),
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
    # the refinement's acceptance and target, the mirror layout and the call tables
    Mutant("refinement-accepts-ties", "src/stokesrbf/collocation.py",
           "if cand_norm >= res_norm:", "if cand_norm > res_norm:"),
    Mutant("refinement-accepts-any-step", "src/stokesrbf/collocation.py",
           "if cand_norm >= res_norm:", "if False:"),
    Mutant("refine-target-1e-6", "src/stokesrbf/collocation.py",
           "_REFINE_TARGET = 1e-10", "_REFINE_TARGET = 1e-6"),
    Mutant("swap-is-identity", "src/stokesrbf/radial.py",
           "swap[by_yx] = by_xy", "swap[by_yx] = by_yx"),
    Mutant("swap-closure-one-axis", "src/stokesrbf/radial.py",
           "points[by_yx, 1 - axis]) for axis in (0, 1)",
           "points[by_yx, 1 - axis]) for axis in (0,)"),
    Mutant("mirror-layout-any-count", "src/stokesrbf/collocation.py",
           "swap = None if len(x) % 4 else swap_index(x)", "swap = swap_index(x)"),
    Mutant("distinct-by-value", "src/stokesrbf/radial.py",
           "keys = [key.view(np.int64) for key in keys]", "keys = list(keys)"),
    Mutant("call-tables-on-a-copy", "src/stokesrbf/collocation.py",
           "x, of_set.keys,", "x + 0.0, of_set.keys,",
           killer="tests/test_collocation.py::test_call_tables_keep_the_signed_zeros_of_the_batch"),
    Mutant("call-tables-of-any-size", "src/stokesrbf/radial.py",
           "if 2 * len(distinct) * len(cols) > block_rows * len(self.points):", "if False:"),
    Mutant("lattice-stride-2n+1", "src/stokesrbf/collocation.py",
           "ij[:, 0] * (2 * n - 1)", "ij[:, 0] * (2 * n + 1)"),
    Mutant("slab-offset-dropped", "src/stokesrbf/collocation.py",
           "plan.points(slice(at.start + start, at.start + start + len(values)))",
           "plan.points(slice(start, start + len(values)))"),
    Mutant("off-lattice-rows-unpermuted", "src/stokesrbf/collocation.py",
           "[plan.points(at), cols]", "[at, cols]"),
    # the system's tile sources: the factor's lower fill and the gathered A
    Mutant("fill-skips-diagonal-tiles", "src/stokesrbf/collocation.py",
           "range(start if lower else 0, n, _SLAB)", "range(start + _SLAB if lower else 0, n, _SLAB)"),
    Mutant("gathered-a-transposed", "src/stokesrbf/collocation.py",
           "_tiles(self, float), lower=False)\n", "_tiles(self, float), lower=False).T\n"),
    # the functional table, the kernel's block sharing, the system's order
    Mutant("vanishes-never", "src/stokesrbf/stokes_kernel.py",
           "return not _parts(cfg, row, col)", "return False"),
    Mutant("momentum-nu-squared", "src/stokesrbf/stokes_kernel.py",
           "((i, -1, 1, _LAP), (3, 1, 0, _D[i]))", "((i, -1, 2, _LAP), (3, 1, 0, _D[i]))"),
    Mutant("pressure-gradient-sign", "src/stokesrbf/stokes_kernel.py",
           '("pressure_grad", i): ((3, 1, 0, _D[i]),)', '("pressure_grad", i): ((3, -1, 0, _D[i]),)'),
    Mutant("last-block-any-parts", "src/stokesrbf/stokes_kernel.py",
           "if xa.last_block is not None and xa.last_block[0] == parts:",
           "if xa.last_block is not None:"),
    Mutant("rhs-point-major", "src/stokesrbf/collocation.py",
           "rhs = np.concatenate([vals.T.ravel() for vals in values])",
           "rhs = np.concatenate([vals.ravel() for vals in values])"),
    Mutant("schedule-exponent-2", "src/stokesrbf/multiscale.py",
           "exponent = 1.0 - 3.0 / (config.tau + 1.0)", "exponent = 1.0 - 2.0 / (config.tau + 1.0)"),
    # the input rules and memory guards of the library's entries and the CLI
    Mutant("positive-finite-takes-bool", "src/stokesrbf/geometry.py",
           "if isinstance(value, bool) or not isinstance(value, numbers.Real)",
           "if not isinstance(value, numbers.Real)"),
    Mutant("wendland-d-without-integer-count", "src/stokesrbf/wendland.py",
           'd, k = integer_count(d, "d", 1), integer_count(k, "k", 1)',
           'd, k = d, integer_count(k, "k", 1)'),
    Mutant("assemble-unguarded", "src/stokesrbf/collocation.py",
           'check_dense(pointset, 1, "the system")', "None"),
    Mutant("run-unguarded", "src/stokesrbf/multiscale.py",
           'check_dense(make_level_pointset(config.n_levels), 1, f"levels up to {config.n_levels}")',
           "None"),
    Mutant("experiment-counts-one-copy", "src/stokesrbf/analysis.py",
           "2 if eigen_levels >= config.n_levels else 1", "1"),
    Mutant("cli-output-directory-unchecked", "src/stokesrbf/cli.py",
           "if not os.path.isdir(folder):", "if False:"),
    Mutant("cli-flag-values-unconverted", "src/stokesrbf/cli.py",
           "setattr(config, field.name, kind(value))",
           "setattr(config, field.name, value if value is getattr(args, field.name, None) "
           "else kind(value))",
           killer="tests/test_cli.py::TestConfigParsing::test_flag_and_file_values_are_read_alike"),
    # the published quantities
    Mutant("norms-without-root", "src/stokesrbf/analysis.py",
           "return float(np.sqrt(np.sum(w * sq))), float(np.max(np.sqrt(sq)))",
           "return float(np.sum(w * sq)), float(np.max(np.sqrt(sq)))"),
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


def run_tests(tree: Path, args: list[str]) -> tuple[int | None, str, float]:
    """(exit status or None on a timeout, first failing test or "", seconds)
    of pytest ``args`` on ``tree``; pytest exits 1 when a test failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"),
                                                      env.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *args], cwd=tree, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    last = (done.stdout.strip().splitlines() or [f"exit status {done.returncode}"])[-1]
    first = failed[0].split(" - ")[0] if failed else ("" if done.returncode == 0 else last)
    return done.returncode, first, time.perf_counter() - start


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
        code, first, seconds = run_tests(base, TIER1)
        print(f"unmutated  {'passed' if code == 0 else 'FAILED: ' + first}  ({seconds:.0f} s)",
              flush=True)
        if code != 0:
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
            code, first, seconds = run_tests(tree, TIER1)
            if code != 0:
                print(f"killed     {mutant.name}  by {first}  ({seconds:.0f} s)", flush=True)
            elif mutant.equivalent:
                print(f"equivalent {mutant.name}: {mutant.equivalent}", flush=True)
            else:
                print(f"SURVIVED   {mutant.name}  ({seconds:.0f} s)", flush=True)
                status = 1
            if mutant.killer:
                code, _, seconds = run_tests(tree, [*PYTEST, mutant.killer])
                if code != 1:  # passed, or found no such test
                    print(f"MISSED     {mutant.name}  by its killer {mutant.killer} "
                          f"(pytest exit status {code})", flush=True)
                    status = 1
                else:
                    print(f"           and by its killer alone  ({seconds:.0f} s)", flush=True)
            shutil.rmtree(tree)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
