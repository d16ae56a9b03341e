"""Correctness gates of the benchmark workloads.

Every gate returns a list of failure messages; an empty list passes.  A
failed gate counts the operation it checked as failed.  The published
reference values come from `stokesrbf.cli`, so the table exists in one place.
"""

from __future__ import annotations

import numpy as np

# acceptance criterion 1: largest allowed factor between computed and
# published errors, in either direction
REPORT_FACTORS = {
    "velocity_l2": 2.0,
    "velocity_linf": 3.0,
    "pressure_grad_l2": 3.0,
    "pressure_grad_linf": 3.0,
}

# acceptance criterion 5: relative residual of each level's solve
SOLVE_RESIDUAL_MAX = 1e-8


def published_reference() -> dict[str, tuple[float, ...]]:
    from stokesrbf import cli

    return {
        "velocity_l2": cli.REFERENCE_VELOCITY_L2,
        "velocity_linf": cli.REFERENCE_VELOCITY_LINF,
        "pressure_grad_l2": cli.REFERENCE_PRESSURE_GRAD_L2,
        "pressure_grad_linf": cli.REFERENCE_PRESSURE_GRAD_LINF,
    }


def linf_bound(reference, fieldname: str, levels: int) -> float:
    """Pointwise error bound after ``levels`` levels: the criterion 1 factor
    times the published sup-norm error, which no sample of points can exceed
    unless the sup-norm criterion fails too."""
    return REPORT_FACTORS[fieldname] * reference[fieldname][levels - 1]


def parse_report_csv(text: str) -> dict[str, list[float]]:
    """Rows of the `run` report: quantity name -> one value per level."""
    rows = {}
    for line in text.strip().splitlines()[1:]:
        name, *values = line.split(",")
        rows[name] = [float(v) for v in values]
    return rows


def report_failures(rows: dict[str, list[float]], reference, levels: int) -> list[str]:
    failures = []
    for name, factor in REPORT_FACTORS.items():
        ours = rows.get(name, [])
        if len(ours) != levels:
            failures.append(f"{name}: {len(ours)} levels in the report, expected {levels}")
            continue
        for level, (got, ref) in enumerate(zip(ours, reference[name]), 1):
            if not (got > 0 and max(got / ref, ref / got) <= factor):
                failures.append(
                    f"{name} level {level}: {got:.3e} vs published {ref:.3e} "
                    f"(allowed factor {factor})"
                )
    return failures


def solve_failures(residual: float) -> list[str]:
    if not residual <= SOLVE_RESIDUAL_MAX:
        return [f"solve residual {residual:.2e} above {SOLVE_RESIDUAL_MAX:.0e}"]
    return []


def field_errors(values, expected) -> np.ndarray:
    """Pointwise Euclidean error of an (n, 2) field."""
    diff = np.asarray(values, dtype=float) - expected
    return np.sqrt(np.sum(diff * diff, axis=1))


def field_failures(label: str, points, values, expected, bound: float) -> list[str]:
    """Shape, finiteness and pointwise error bound of one (n, 2) output."""
    values = np.asarray(values)
    if values.shape != (len(points), 2):
        return [f"{label}: shape {values.shape}, expected ({len(points)}, 2)"]
    if not np.all(np.isfinite(values)):
        return [f"{label}: non-finite values"]
    worst = float(field_errors(values, expected).max())
    if not worst <= bound:
        return [f"{label}: error {worst:.3e} above bound {bound:.3e}"]
    return []
