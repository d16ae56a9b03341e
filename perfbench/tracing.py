"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces a name in the namespace that calls it, for example
``stokesrbf.collocation.kernel_block`` or ``stokesrbf.analysis.run``, with a
wrapper that records a span around each call.  The package itself is not
changed, and `uninstall` restores every replaced name.

A span carries a name, start, end, parent and run id.  Spans stay in memory
until `write` dumps them as JSON lines.  A span's self time is its duration
minus the time its child spans cover; the self times of one span tree add up
to the duration of its root, which is how the per-module times account for a
workload's wall time.

Functions called from many layers (``kernel_block``, ``evaluate``,
``evaluate_fields``) are not spans of the tree.  They are timed as
cross-cutting totals instead, so their time stays in the self time of the
layer that called them.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from dataclasses import asdict, dataclass

_clock = time.perf_counter

# functional groups in the order `collocation.assemble` lays out the system;
# a kernel_block call with row group < column group fills an upper block
_ROW_GROUP = {("pde", 1): 0, ("pde", 2): 1, ("velocity", 1): 2, ("velocity", 2): 3}
_COL_GROUP = {("pde", 1): 0, ("pde", 2): 1, ("dirichlet", 1): 2, ("dirichlet", 2): 3}

KERNEL_ROWS = ("pde", "velocity", "pressure", "pressure_grad")
KERNEL_COLS = ("pde", "dirichlet")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: str


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Stat:
    """Accumulated seconds, calls and a work count for one timed name."""

    __slots__ = ("seconds", "calls", "work")

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self.work = 0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self.stats: dict[str, _Stat] = {}
        self.rss_rise: dict[str, float] = {}
        self.solve_residuals: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, _clock(), 0.0, parent, self.run_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = _clock()
        self._stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def stat(self, name: str) -> _Stat:
        if name not in self.stats:
            self.stats[name] = _Stat()
        return self.stats[name]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for span, cover in zip(self.spans, covered):
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start - cover)
        return out

    # --- wrapping -------------------------------------------------------

    def wrap(self, namespace, attr: str, span: str | None = None,
             timer: str | None = None, work=None, rss: str | None = None,
             after=None):
        """Replace ``namespace.attr`` by a traced wrapper.

        ``span`` names the span opened around each call; ``timer`` names a
        cross-cutting total that also gets ``work(args, kwargs)`` added to
        its work count; ``rss`` names a resident-memory rise to record;
        ``after(args, result)`` sees each successful result.
        """
        original = getattr(namespace, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            index = tracer.open(span) if span else None
            if rss:
                rss_before, peak_before = current_rss_mb(), peak_rss_mb()
            t1 = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t2 = _clock()
                if index is not None:
                    tracer.close(index)
            if timer:
                stat = tracer.stat(timer)
                stat.seconds += t2 - t1
                stat.calls += 1
                if work is not None:
                    stat.work += work(args, kwargs)
            if rss:
                peak_after = peak_rss_mb()
                # only a call that set a new process peak shows its own rise
                if peak_after > peak_before:
                    rise = peak_after - rss_before
                    tracer.rss_rise[rss] = max(tracer.rss_rise.get(rss, 0.0), rise)
            if after is not None:
                after(args, result)
            tracer.overhead_s += (t1 - t0) + (_clock() - t2)
            return result

        setattr(namespace, attr, wrapper)
        self._patches.append((namespace, attr, original))

    def wrap_kernel_block(self, namespace) -> None:
        """Time every kernel_block call by (row kind, column kind).

        Entries are counted as not useful when no caller reads them: every
        pressure row (`evaluate` returns it, and all callers in these
        workloads discard it) and the upper group blocks that `assemble`
        fills although the Cholesky factorization reads only the lower
        triangle (the refinement residual reads them, but could use the
        symmetry instead).
        """
        original = namespace.kernel_block
        tracer = self

        @functools.wraps(original)
        def wrapper(cfg, row, col, xa, xb):
            t1 = _clock()
            result = original(cfg, row, col, xa, xb)
            t2 = _clock()
            entries = result.size
            pair = tracer.stat(f"kernel.{row[0]}x{col[0]}")
            pair.seconds += t2 - t1
            pair.calls += 1
            pair.work += entries
            wasted = row[0] == "pressure" or (
                tracer.innermost() == "collocation.assemble"
                and _ROW_GROUP[tuple(row)] < _COL_GROUP[tuple(col)]
            )
            if wasted:
                tracer.stat("kernel.wasted").work += entries
            if tracer.inside("multiscale.evaluate_model"):
                tracer.stat("kernel.query").calls += 1
            tracer.overhead_s += _clock() - t2
            return result

        namespace.kernel_block = wrapper
        self._patches.append((namespace, "kernel_block", original))

    def wrap_factory(self, namespace, attr: str, span: str) -> None:
        """Wrap a function that returns a closure, so each closure call is a span."""
        original = getattr(namespace, attr)
        tracer = self

        @functools.wraps(original)
        def factory(*args, **kwargs):
            closure = original(*args, **kwargs)

            def traced(*cargs, **ckwargs):
                t0 = _clock()
                index = tracer.open(span)
                t1 = _clock()
                try:
                    return closure(*cargs, **ckwargs)
                finally:
                    t2 = _clock()
                    tracer.close(index)
                    tracer.overhead_s += (t1 - t0) + (_clock() - t2)

            return traced

        setattr(namespace, attr, factory)
        self._patches.append((namespace, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
