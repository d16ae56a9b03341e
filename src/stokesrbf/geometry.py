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
    "grid_spacing",
    "make_level_pointset",
    "mesh_norm",
    "separation_distance",
]


class EmptyPointSet(ValueError):
    """Operation requires at least one point."""


class SinglePoint(ValueError):
    """Operation requires at least two points."""


@dataclass(frozen=True)
class LevelPointSet:
    """Interior and boundary centres of one level, each an (n, 2) array.

    Each is stored as a read-only float64 copy, so that one point set always
    holds the same centres: an evaluation keeps what it derives from them
    for the next call of the same point sets (`collocation._ColumnPlan`).
    Raises ValueError unless each is a real, finite (n, 2) array (n = 0
    allowed)."""

    interior: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        for name in ("interior", "boundary"):
            object.__setattr__(self, name, _centres(getattr(self, name), name))

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary)

    @property
    def n_functionals(self) -> int:
        return 2 * (len(self.interior) + len(self.boundary))


def _centres(points, name: str) -> np.ndarray:
    """``points`` as a read-only float64 (n, 2) copy; raises ValueError
    unless they are a real, finite (n, 2) array: a cast to float would
    drop the imaginary part of a complex centre."""
    if np.iscomplexobj(points):
        raise ValueError(f"{name} centres must be real")
    try:
        points = np.array(points, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{name} centres must be real numbers") from None
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"{name} centres must be an (n, 2) array, not of shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError(f"level with {name} centres that are not finite")
    points.flags.writeable = False
    return points


def mesh_norm(points, probe_density: int) -> float:
    """Fill distance sup_x min_j ||x - x_j|| estimated on a probe grid.

    Brute force over a probe_density x probe_density grid covering the unit
    square.  The estimate approaches the true supremum from below as the
    probe grid refines (more probes can only raise the maximum).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        raise EmptyPointSet("mesh norm of an empty point set")
    if probe_density < 2:
        raise ValueError("probe_density must be >= 2")
    ticks = np.linspace(0.0, 1.0, probe_density)
    gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
    probes = np.column_stack([gx.ravel(), gy.ravel()])
    from scipy.spatial import cKDTree  # here: `import stokesrbf` skips ~10 MB
    dist, _ = cKDTree(points).query(probes, k=1)
    return float(dist.max())


def separation_distance(points) -> float:
    """Half the minimal pairwise distance."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
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
    integer >= 1 (not a bool) whose centres fit in memory while they are
    built, at 34 bytes a centre (two grids, the centres, the edge masks).
    """
    if isinstance(level, bool) or not isinstance(level, numbers.Integral) or level < 1:
        raise ValueError("level must be an integer >= 1")
    need = 34 * (2 ** (int(level) + 1) + 1) ** 2
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"level {level} needs {need / 1e9:.3g} GB to build its centres, "
                         f"more than the {have / 1e9:.1f} GB of memory")
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
