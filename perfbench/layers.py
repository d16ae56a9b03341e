"""Where the traced run hooks into stokesrbf, and the per-module metrics.

Each hook replaces a name in the namespace that calls it.  Functions that
the benchmark calls directly are also wrapped in their own module.  Span
metrics (``<module>.<function>_s``) are self times; ``kernel_block``,
``evaluate`` and ``evaluate_fields`` are cross-cutting totals over all
callers, whose time also lies inside their callers' self times.
"""

from __future__ import annotations

from tracing import KERNEL_COLS, KERNEL_ROWS, Tracer

# span names that belong to the package; the rest of a traced run is the
# benchmark's own time ("bench." spans)
PACKAGE_SPANS = {
    "cli.main": "cli.report_s",
    "analysis.run_experiment": "analysis.run_experiment_s",
    "multiscale.run": "multiscale.run_s",
    "geometry.make_level_pointset": "geometry.make_level_pointset_s",
    "collocation.assemble": "collocation.assemble_s",
    "multiscale.residual": "multiscale.residual_s",
    "collocation.solve": "collocation.refine_s",
    "collocation.cholesky": "collocation.cholesky_s",
    "analysis.grid_eval": "analysis.grid_eval_s",
    "analysis.eigen": "analysis.eigen_s",
    "collocation.evaluate": None,  # direct calls; reported through the timers
    "collocation.evaluate_fields": None,
    "multiscale.save_model": "multiscale.save_model_s",
    "multiscale.load_model": "multiscale.load_model_s",
    "multiscale.evaluate_model": "multiscale.evaluate_model_s",
}


def _eval_work(args, kwargs):
    solution, x = args[0], args[1]
    return len(x) * len(solution.coefficients)


def _assemble_work(args, kwargs):
    return args[0].n_functionals ** 2


def _cholesky_work(args, kwargs):
    return len(args[0]) ** 3 // 3


def install(tracer: Tracer) -> None:
    from stokesrbf import analysis, cli, collocation, geometry, multiscale

    def residual(args, result):
        tracer.solve_residuals.append(result.solve_residual)

    tracer.wrap_kernel_block(collocation)
    tracer.wrap(collocation, "cho_factor", span="collocation.cholesky",
                timer="collocation.cholesky", work=_cholesky_work)
    tracer.wrap(collocation, "cho_solve", timer="collocation.cho_solve")
    for ns in (multiscale, collocation):
        tracer.wrap(ns, "assemble", span="collocation.assemble",
                    timer="collocation.assemble", work=_assemble_work,
                    rss="collocation.assemble")
        tracer.wrap(ns, "solve", span="collocation.solve",
                    timer="collocation.solve", rss="collocation.solve",
                    after=residual)
    for ns in (multiscale, geometry):
        tracer.wrap(ns, "make_level_pointset", span="geometry.make_level_pointset")
    for name in ("evaluate", "evaluate_fields"):
        timer = f"collocation.{name}"
        tracer.wrap(analysis, name, span="analysis.grid_eval", timer=timer,
                    work=_eval_work)
        tracer.wrap(multiscale, name, timer=timer, work=_eval_work)
        tracer.wrap(collocation, name, span=timer, timer=timer, work=_eval_work)
    tracer.wrap_factory(multiscale, "_residual_f", "multiscale.residual")
    tracer.wrap_factory(multiscale, "_residual_g", "multiscale.residual")
    tracer.wrap(analysis, "run", span="multiscale.run")
    tracer.wrap(analysis, "extreme_eigenvalues", span="analysis.eigen")
    tracer.wrap(cli, "run_experiment", span="analysis.run_experiment")
    tracer.wrap(cli, "main", span="cli.main")
    for name in ("run", "save_model", "load_model", "evaluate_model"):
        tracer.wrap(multiscale, name, span=f"multiscale.{name}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, probe: dict, queries: int) -> dict[str, tuple[float, str]]:
    """Per-module metrics of one traced run, as name -> (value, unit)."""
    selfs = tracer.self_times()
    stat = tracer.stat
    out: dict[str, tuple[float, str]] = {
        "setup.import_s": (probe["import_s"], "s"),
        "radial.compile_s": (probe["compile_s"], "s"),
    }
    for span, metric in PACKAGE_SPANS.items():
        if metric:
            out[metric] = (selfs.get(span, 0.0), "s")

    pairs = [stat(f"kernel.{r}x{c}") for r in KERNEL_ROWS for c in KERNEL_COLS]
    kernel_s = sum(p.seconds for p in pairs)
    calls = sum(p.calls for p in pairs)
    entries = sum(p.work for p in pairs)
    out["stokes_kernel.kernel_block_s"] = (kernel_s, "s")
    out["stokes_kernel.calls"] = (calls, "count")
    out["stokes_kernel.entries"] = (entries, "count")
    out["stokes_kernel.ns_per_entry"] = (_ratio(1e9 * kernel_s, entries), "ns")
    for r in KERNEL_ROWS:
        for c in KERNEL_COLS:
            p = stat(f"kernel.{r}x{c}")
            out[f"stokes_kernel.ns_per_entry.{r}x{c}"] = (
                _ratio(1e9 * p.seconds, p.work), "ns")
    out["stokes_kernel.calls_per_query"] = (
        _ratio(stat("kernel.query").calls, queries), "count")
    out["stokes_kernel.useful_entry_ratio"] = (
        _ratio(entries - stat("kernel.wasted").work, entries), "ratio")

    out["collocation.assemble_ns_per_entry"] = (
        _ratio(1e9 * selfs.get("collocation.assemble", 0.0),
               stat("collocation.assemble").work), "ns")
    out["collocation.assemble_rss_rise_mb"] = (
        tracer.rss_rise.get("collocation.assemble", 0.0), "MB")
    chol = stat("collocation.cholesky")
    out["collocation.cholesky_gflop_per_s"] = (
        _ratio(chol.work / 1e9, chol.seconds), "GFLOP/s")
    out["collocation.refine_steps"] = (
        stat("collocation.cho_solve").calls - stat("collocation.solve").calls, "count")
    out["collocation.solve_rss_rise_mb"] = (
        tracer.rss_rise.get("collocation.solve", 0.0), "MB")
    out["collocation.solve_residual_max"] = (
        max(tracer.solve_residuals, default=0.0), "ratio")
    ev, evf = stat("collocation.evaluate"), stat("collocation.evaluate_fields")
    out["collocation.evaluate_s"] = (ev.seconds, "s")
    out["collocation.evaluate_fields_s"] = (evf.seconds, "s")
    out["collocation.eval_ns_per_point_centre"] = (
        _ratio(1e9 * (ev.seconds + evf.seconds), ev.work + evf.work), "ns")

    roots = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    package = sum(t for name, t in selfs.items() if name in PACKAGE_SPANS)
    out["trace.attributed_share"] = (_ratio(package, roots), "ratio")
    out["trace.overhead_s"] = (tracer.overhead_s, "s")
    return out
