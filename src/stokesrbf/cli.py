"""Command-line experiment runner and inspection commands.

Subcommands: run, verify-lemmas, kernel-info, dump-points, dump-matrix.
Configuration is a flat ``key=value`` file (UTF-8, ``#`` comments); every
key can be overridden with a ``--key value`` flag.  Output is deterministic
for a fixed configuration.  Arguments a command cannot handle, an output
path whose directory does not exist (found before any work) and a failed
read or write end in ``error: ...`` on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from .analysis import run_experiment, slope_check, trig_stokes_problem
from .collocation import NotPositiveDefinite, assemble, write_matrix
from .geometry import export_points_csv, grid_spacing, make_level_pointset
from .multiscale import PROFILE, MultiscaleConfig, scale_schedule
from .radial import mixed_partial
from .stokes_kernel import StokesKernelConfig
from .wendland import wendland_c8, wendland_from_integral

# reference results of the original published experiment (five levels);
# printed next to our measurements for comparison
REFERENCE_DELTAS = (10.0, 7.29, 5.33, 3.89, 2.84)
REFERENCE_VELOCITY_L2 = (1.592e-02, 6.498e-04, 3.274e-05, 1.650e-06, 1.028e-07)
REFERENCE_VELOCITY_LINF = (2.740e-02, 2.233e-03, 1.462e-04, 8.268e-06, 4.579e-07)
REFERENCE_PRESSURE_GRAD_L2 = (1.112e00, 1.222e-01, 1.235e-02, 2.561e-03, 5.612e-04)
REFERENCE_PRESSURE_GRAD_LINF = (4.209e00, 3.338e-01, 1.048e-01, 3.650e-02, 1.211e-02)


def check_output_paths(*paths) -> None:
    """Raise ValueError unless the directory of each path exists, so that a
    command stops before its work rather than at its first write."""
    for path in paths:
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            raise ValueError(f"cannot write {path}: no directory {folder}")


_EXPERIMENT = inspect.signature(run_experiment).parameters


@dataclass
class RunConfig:
    """Settings of ``run``, each a config key and a flag read through the
    type of its default; the defaults are `MultiscaleConfig`'s and `run_experiment`'s."""

    levels: int = 5
    beta: float = MultiscaleConfig.beta
    nu: float = MultiscaleConfig.nu
    tau: float = MultiscaleConfig.tau
    quad_points: int = _EXPERIMENT["quad_points"].default
    eigen_levels: int = _EXPERIMENT["eigen_levels"].default
    out_csv: str = "report.csv"
    out_summary: str = "summary.txt"


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value pairs; blank lines and ``#`` comments ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def build_run_config(args) -> RunConfig:
    """Defaults < file values < flags; ValueError, naming the key, for an
    unknown key or a value that its type does not read."""
    values = parse_config_file(args.config) if args.config else {}
    unknown = set(values) - {field.name for field in fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    config = RunConfig()
    for field in fields(RunConfig):
        value = getattr(args, field.name, None)  # a flag overrides the file
        value = values.get(field.name) if value is None else value
        if value is not None:
            kind = type(field.default)
            try:
                setattr(config, field.name, kind(value))
            except ValueError:
                raise ValueError(f"{field.name}: cannot read {value!r} "
                                 f"as {kind.__name__}") from None
    return config


def cmd_run(args) -> int:
    config = build_run_config(args)
    check_output_paths(config.out_csv, config.out_summary)
    ms_config = MultiscaleConfig(
        n_levels=config.levels,
        beta=config.beta,
        tau=config.tau,
        nu=config.nu,
    )
    _, report = run_experiment(
        ms_config,
        quad_points=config.quad_points,
        eigen_levels=config.eigen_levels,
    )
    report.to_csv(config.out_csv)
    summary = _summary_text(config, report)
    with open(config.out_summary, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary)
    print(summary, end="")
    return 0


def _summary_text(config: RunConfig, report) -> str:
    lines = []
    lines.append("multiscale symmetric collocation, unit square")
    # mu is the fixed mesh ratio of the `geometry` grids, not a setting
    lines.append(
        f"levels={config.levels} beta={config.beta} mu=0.5 "
        f"nu={config.nu} tau={config.tau} quad={config.quad_points}^2"
    )
    lines.append(
        "note: u2 = 5 sin(5 x1) sin(2 x2) (the divergence-free field "
        "consistent with the forcing; a published variant prints sin(x2))"
    )
    is_reference_setup = (abs(config.beta - MultiscaleConfig.beta) < 1e-12 and
                          (config.nu, config.tau) == (MultiscaleConfig.nu, MultiscaleConfig.tau))
    rows = [
        ("delta", report.deltas, REFERENCE_DELTAS, "{:.4g}"),
        ("velocity L2", report.velocity_l2, REFERENCE_VELOCITY_L2, "{:.3e}"),
        ("velocity Linf", report.velocity_linf, REFERENCE_VELOCITY_LINF, "{:.3e}"),
        ("grad-p L2", report.pressure_grad_l2, REFERENCE_PRESSURE_GRAD_L2, "{:.3e}"),
        ("grad-p Linf", report.pressure_grad_linf, REFERENCE_PRESSURE_GRAD_LINF, "{:.3e}"),
    ]
    for name, ours, ref, fmt in rows:
        lines.append(f"{name}:")
        lines.append("  computed : " + "  ".join(fmt.format(v) for v in ours))
        if is_reference_setup:
            lines.append(
                "  published: "
                + "  ".join(fmt.format(v) for v in ref[: len(ours)])
            )
    if report.condition_numbers:
        pairs = sorted(report.condition_numbers.items())
        lines.append(
            "condition numbers: "
            + "  ".join(f"level {j}: {k:.3e}" for j, k in pairs)
        )
        if len(pairs) >= 2:
            hs = [grid_spacing(j) for j, _ in pairs]
            slope = slope_check(list(zip(hs, [k for _, k in pairs])))
            lines.append(f"conditioning growth exponent: {slope:.3f}")
    return "\n".join(lines) + "\n"


def cmd_verify_lemmas(args) -> int:
    k = args.k
    psi = wendland_c8() if k == 4 else wendland_from_integral(2, k)
    checks = []
    d12 = mixed_partial(psi, 1, 1).origin
    d11 = mixed_partial(psi, 2, 0).origin
    checks.append(("d12 psi(0) == 0 (cross term vanishes)", d12, d12 == 0))
    checks.append(("d11 psi(0) < 0 (value 2 b2)", d11, d11 < 0))
    if k >= 3:
        from .radial import RadialTermEvaluator, diff_x, diff_y, laplacian, terms_from_profile

        t4 = laplacian(laplacian(terms_from_profile(psi.coeffs)))
        d12b = RadialTermEvaluator(diff_y(diff_x(t4))).origin
        d11b = RadialTermEvaluator(diff_x(diff_x(t4))).origin
        checks.append(("d12 bilap psi(0) == 0 (cross term vanishes)", d12b, d12b == 0))
        checks.append(("d11 bilap psi(0) < 0 (value 1152 b6)", d11b, d11b < 0))
    else:
        print(f"note: bilaplacian checks skipped (require smoothness k >= 3, got k={k})")
    ok = True
    for label, value, passed in checks:
        value = value if isinstance(value, Fraction) else Fraction(value)
        shown = str(value.numerator) if value.denominator == 1 else str(value)
        print(f"{'PASS' if passed else 'FAIL'}  {label}: computed {shown}")
        ok &= bool(passed)
    return 0 if ok else 1


def cmd_kernel_info(args) -> int:
    integral = wendland_from_integral(args.d, args.k)
    closed = wendland_c8() if (args.d, args.k) == (2, 4) else None
    print(f"# d={args.d} k={args.k} ell={integral.ell} degree={integral.degree}")
    if closed is None:
        print("degree,integral_form")
        for i, c in enumerate(integral.coeffs):
            print(f"{i},{c}")
    else:
        print("degree,integral_form,closed_form,ratio")
        for i in range(max(len(integral.coeffs), len(closed.coeffs))):
            ci, cc = integral.coefficient(i), closed.coefficient(i)
            ratio = str(ci / cc) if cc != 0 else ""
            print(f"{i},{ci},{cc},{ratio}")
    return 0


def cmd_dump_points(args) -> int:
    check_output_paths(args.out)
    pointset = make_level_pointset(args.level)
    export_points_csv(pointset, args.out)
    print(
        f"level {args.level}: {pointset.n_interior} interior, "
        f"{pointset.n_boundary} boundary -> {args.out}"
    )
    return 0


def cmd_dump_matrix(args) -> int:
    check_output_paths(args.out)
    pointset = make_level_pointset(args.level)
    config = MultiscaleConfig(n_levels=args.level, beta=args.beta,
                              tau=args.tau, nu=args.nu)
    # an explicit --delta, even a bad one, is passed on for the kernel to check
    delta = scale_schedule(config)[-1] if args.delta is None else args.delta
    kernel = StokesKernelConfig(PROFILE, PROFILE, nu=args.nu, delta=delta)
    problem = trig_stokes_problem(nu=args.nu)
    system = assemble(pointset, kernel, problem.f, problem.g)
    write_matrix(system.matrix, args.out)
    print(f"level {args.level} (delta={delta:.4g}): {system.size}x{system.size} -> {args.out}")
    return 0


def _add_run_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key=value config file")
    for field in fields(RunConfig):  # strings, read by `build_run_config`
        parser.add_argument("--" + field.name.replace("_", "-"), dest=field.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stokesrbf",
        description="multiscale divergence-free RBF collocation for Stokes flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the level loop and report errors")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_lem = sub.add_parser(
        "verify-lemmas", help="check the kernel derivative values at the origin"
    )
    p_lem.add_argument("--k", type=int, default=4, help="smoothness parameter")
    p_lem.set_defaults(func=cmd_verify_lemmas)

    p_info = sub.add_parser("kernel-info", help="print expanded kernel coefficients")
    p_info.add_argument("--d", type=int, default=2)
    p_info.add_argument("--k", type=int, default=4)
    p_info.set_defaults(func=cmd_kernel_info)

    p_pts = sub.add_parser("dump-points", help="export level centres as CSV")
    p_pts.add_argument("--level", type=int, required=True)
    p_pts.add_argument("--out", required=True)
    p_pts.set_defaults(func=cmd_dump_points)

    p_mat = sub.add_parser("dump-matrix", help="export one collocation matrix")
    p_mat.add_argument("--level", type=int, required=True)
    p_mat.add_argument("--out", required=True)
    p_mat.add_argument("--delta", type=float, default=None)
    for name in ("beta", "tau", "nu"):
        p_mat.add_argument(f"--{name}", type=float, default=getattr(MultiscaleConfig, name))
    p_mat.set_defaults(func=cmd_dump_matrix)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotPositiveDefinite as exc:
        print(f"error: not-positive-definite pivot={exc.pivot} detail={exc}",
              file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # arguments the commands cannot handle
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
