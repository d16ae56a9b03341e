"""Level point sets on the unit square and point-set quality metrics.

Level j uses the full tensor grid of spacing 2^-(j+1) as interior centres --
perimeter gridpoints included, which is what makes the counts come out as
(2^(j+1)+1)^2 interior and 4*2^(j+1) boundary -- and the perimeter gridpoints
again as boundary centres.  Boundary centres therefore coincide in location
with some interior centres; the attached functionals differ (momentum
operator vs velocity evaluation), so the collocation system stays
nonsingular.

The fill distance (`mesh_norm`) and separation distance enter only the
convergence and stability analysis; the level loop never reads them, so
they are measured on demand rather than stored with each level.

The input rules of every public entry live here, in the one module that
imports nothing from the package: `real_finite`, `positive_finite`,
`point_batch`, `integer_count`, `check_memory` and `check_dense`.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmptyPointSet",
    "SinglePoint",
    "LevelPointSet",
    "check_dense",
    "check_memory",
    "grid_spacing",
    "integer_count",
    "make_level_pointset",
    "mesh_norm",
    "point_batch",
    "positive_finite",
    "real_finite",
    "separation_distance",
]


class EmptyPointSet(ValueError):
    """Operation requires at least one point."""


class SinglePoint(ValueError):
    """Operation requires at least two points."""


def real_finite(values, name: str) -> np.ndarray:
    """``values`` as a float64 array (the same object if one); ValueError
    unless all are real and finite: a float cast drops imaginary parts."""
    if np.iscomplexobj(values):
        raise ValueError(f"{name} must be real")
    try:
        values = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be real numbers") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{name} with a value that is not finite")
    return values


def positive_finite(**values) -> None:
    """ValueError unless each value is a real number (numpy's too, no bool),
    positive and finite; the values keep their types (an np.float32 too)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite")


def point_batch(points, name: str = "points") -> np.ndarray:
    """``points`` as an (n, 2) batch (the same object if a float64 one);
    ValueError unless they are `real_finite`, (2,) or (n, 2), n >= 0."""
    points = real_finite(points, name)
    if points.ndim not in (1, 2) or points.shape[-1] != 2:
        raise ValueError(f"{name} must be of shape (2,) or (n, 2), not {points.shape}")
    return points if points.ndim == 2 else points[None]


def integer_count(n, name: str, least: int) -> int:
    """``n`` as an int; ValueError unless an integer (numpy's too, no bool) >= least."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(n)


def check_memory(need: float, what: str) -> None:
    """ValueError, naming ``what``, when ``need`` bytes exceed physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"{what} needs {need / 1e9:.3g} GB, more than the "
                         f"{have / 1e9:.1f} GB of memory")


@dataclass(frozen=True)
class LevelPointSet:
    """Interior and boundary centres of one level, each an (n, 2) array.

    Each is stored as a read-only float64 copy, so that one point set always
    holds the same centres: an evaluation keeps what it derives from them
    for the next call of the same point sets (`collocation._ColumnPlan`).
    Raises ValueError unless each is a `point_batch`."""

    interior: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        for name in ("interior", "boundary"):
            centres = point_batch(getattr(self, name), f"{name} centres").copy()
            centres.flags.writeable = False
            object.__setattr__(self, name, centres)

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary)

    @property
    def n_functionals(self) -> int:
        return 2 * (len(self.interior) + len(self.boundary))


def check_dense(pointset: LevelPointSet, copies: int, what: str) -> None:
    """`check_memory` for ``copies`` dense n x n float64 matrices, 8 n^2
    bytes each, n being the point set's `n_functionals`."""
    n = pointset.n_functionals
    check_memory(8 * n * n * copies, f"{what}, in {copies} dense {n} x {n} matrices,")


def mesh_norm(points, probe_density: int) -> float:
    """Fill distance sup_x min_j ||x - x_j|| estimated on a probe grid.

    Brute force over a probe_density x probe_density grid covering the unit
    square.  The estimate approaches the true supremum from below as the
    probe grid refines (more probes can only raise the maximum).  Raises
    ValueError unless the points are a `point_batch` and ``probe_density``
    an `integer_count` >= 2.
    """
    points = point_batch(points)
    probe_density = integer_count(probe_density, "probe_density", 2)
    if points.size == 0:
        raise EmptyPointSet("mesh norm of an empty point set")
    ticks = np.linspace(0.0, 1.0, probe_density)
    gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
    probes = np.column_stack([gx.ravel(), gy.ravel()])
    from scipy.spatial import cKDTree  # here: `import stokesrbf` skips ~10 MB
    dist, _ = cKDTree(points).query(probes, k=1)
    return float(dist.max())


def separation_distance(points) -> float:
    """Half the minimal pairwise distance of a `point_batch`."""
    points = point_batch(points)
    if points.size == 0:
        raise EmptyPointSet("separation distance of an empty point set")
    if len(points) < 2:
        raise SinglePoint("separation distance needs at least two points")
    from scipy.spatial import cKDTree
    dist, _ = cKDTree(points).query(points, k=2)
    return float(dist[:, 1].min()) / 2.0


def grid_spacing(level: int) -> float:
    """Spacing 2^-(level+1) of the level's tensor grid (an exact power of 2)."""
    return 1.0 / 2 ** (level + 1)


def make_level_pointset(level: int) -> LevelPointSet:
    """Tensor-grid centres for one level of the refinement hierarchy.

    Interior: the (2^(level+1)+1)^2 gridpoints of spacing 2^-(level+1) over
    the closed unit square.  Boundary: the 4*2^(level+1) perimeter
    gridpoints of the same grid.  Raises ValueError unless ``level`` is an
    `integer_count` >= 1 whose centres fit in memory while they are built,
    at 34 bytes a centre (two grids, the centres, the edge masks).
    """
    level = integer_count(level, "level", 1)
    check_memory(34 * (2 ** (level + 1) + 1) ** 2, f"level {level}")
    spacing = grid_spacing(level)
    n = int(1 / spacing)  # cells per side
    ticks = np.arange(n + 1) * spacing
    gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
    interior = np.column_stack([gx.ravel(), gy.ravel()])
    on_edge = (
        (interior[:, 0] == 0.0)
        | (interior[:, 0] == 1.0)
        | (interior[:, 1] == 0.0)
        | (interior[:, 1] == 1.0)
    )
    return LevelPointSet(interior=interior, boundary=interior[on_edge])


def export_points_csv(pointset: LevelPointSet, path) -> None:
    """Write centres as ``x,y,kind`` rows (kind: interior / boundary)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,kind\n")
        for x, y in pointset.interior:
            fh.write(f"{float(x)!r},{float(y)!r},interior\n")
        for x, y in pointset.boundary:
            fh.write(f"{float(x)!r},{float(y)!r},boundary\n")
