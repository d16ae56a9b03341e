"""Scaled divergence-free matrix-valued Stokes kernel in two dimensions.

The (d+1) x (d+1) kernel K acts on (u1, u2, p) and is block diagonal: a
velocity block Psi = (-lap I + grad grad^T) psi_vel whose columns are
solenoidal fields, and a scalar pressure block psi_pre.  In 2-D the velocity
block reads

    Psi_11 = -d22 psi,   Psi_22 = -d11 psi,   Psi_12 = Psi_21 = d12 psi.

Every matrix entry and every evaluated field is a pair of functionals
applied to K, one per argument.  `_FUNCTIONALS` writes each functional once,
as a short list of (component, sign, power of nu, derivative) terms on
(u1, u2, p): the momentum operator (L v)_i = -nu lap v_i + d_i p at an
interior centre, velocity evaluation at a boundary centre, and the point
values and derivatives of (u, p) that evaluation asks for.  `kernel_block`
applies the row terms to the first argument and the column terms to the
second.  Since K depends on x - y only, a derivative of odd order on the
second argument flips the sign.  The parts of equal order and power of nu
are summed exactly in the term algebra of `radial` (the divergence rows
cancel to nothing), compiled once, and checked against finite differences
in the tests.

Scaling: psi_delta(x) = delta^-d psi(||x||/delta), so an order-m derivative
evaluates as delta^-(d+m) times the unit-scale derivative at x/delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import point_batch, positive_finite
from .radial import (Columns, Displacements, RadialTermEvaluator, combine, laplacian,
                     mixed_partial_terms)
from .wendland import WendlandPolynomial

__all__ = ["PDE", "DIRICHLET", "StokesKernelConfig", "columns", "displacements",
           "evaluator_keys", "kernel_block", "vanishes"]

DIM = 2

PDE = "pde"
DIRICHLET = "dirichlet"

# derivatives lap^l d1^nx d2^ny as (l, nx, ny); components 1, 2 are the
# velocity, 3 the pressure
_ID, _LAP, _D = (0, 0, 0), (1, 0, 0), {1: (0, 1, 0), 2: (0, 0, 1)}

# functional label -> (component, sign, power of nu, derivative) terms
_FUNCTIONALS = {
    **{(PDE, i): ((i, -1, 1, _LAP), (3, 1, 0, _D[i])) for i in (1, 2)},
    **{("velocity", i): ((i, 1, 0, _ID),) for i in (1, 2)},
    **{("pressure_grad", i): ((3, 1, 0, _D[i]),) for i in (1, 2)},
    ("pressure", 0): ((3, 1, 0, _ID),),
    ("divergence", 0): ((1, 1, 0, _D[1]), (2, 1, 0, _D[2])),
}
# the collocation columns: the momentum operator, or velocity evaluation at
# a boundary centre
_COLUMNS = {
    **{(PDE, j): _FUNCTIONALS[PDE, j] for j in (1, 2)},
    **{(DIRICHLET, j): _FUNCTIONALS["velocity", j] for j in (1, 2)},
}
# Psi_ab = sign * d1^nx d2^ny psi_vel
_PSI = {(1, 1): (-1, 0, 2), (2, 2): (-1, 2, 0), (1, 2): (1, 1, 1), (2, 1): (1, 1, 1)}


@dataclass(frozen=True)
class StokesKernelConfig:
    """Kernel data for one level: the two radial profiles, viscosity, scale.

    ``psi_vel`` feeds the velocity block, ``psi_pre`` the pressure block; the
    reproduction experiment uses the same C^8 function for both.  Immutable
    and safe to share across threads; the compiled derivative tables live in
    a module-level cache keyed by the profiles, and each config
    keeps its scaled parts per functional pair.
    """

    psi_vel: WendlandPolynomial
    psi_pre: WendlandPolynomial
    nu: float = 1.0
    delta: float = 1.0
    _parts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # an infinite nu or delta turns entries into nan, which the Cholesky
        # solve (check_finite=False) would pass on silently
        positive_finite(delta=self.delta, nu=self.nu)

    def rescaled(self, delta: float) -> "StokesKernelConfig":
        return StokesKernelConfig(self.psi_vel, self.psi_pre, self.nu, delta)


@lru_cache(maxsize=None)
def _compiled_parts(vel: WendlandPolynomial, pre: WendlandPolynomial,
                    row: tuple, col: tuple) -> tuple:
    """(power of nu, derivative order, evaluator) per part of row x col, in
    order of first appearance; terms of equal power and order are summed
    exactly, and a part that cancels to nothing (divergence rows) is dropped."""
    groups: dict[tuple[int, int], list] = {}
    for a, sa, pa, (la, ax, ay) in _FUNCTIONALS[row]:
        for b, sb, pb, (lb, bx, by) in _COLUMNS[col]:
            if (a == 3) != (b == 3):
                continue  # the kernel is block diagonal
            sign, nx, ny = (1, 0, 0) if a == 3 else _PSI[a, b]
            nx, ny, laps = nx + ax + bx, ny + ay + by, la + lb
            terms = mixed_partial_terms(pre if a == 3 else vel, nx, ny)
            for _ in range(laps):
                terms = laplacian(terms)
            # K depends on x - y, so each d/dy_i acts as -d/dx_i
            sign *= sa * sb * (-1) ** (bx + by)
            groups.setdefault((pa + pb, 2 * laps + nx + ny), []).append((sign, terms))
    parts = ((p, m, combine(*weighted)) for (p, m), weighted in groups.items())
    return tuple((p, m, RadialTermEvaluator(t)) for p, m, t in parts if t)


def _parts(cfg: StokesKernelConfig, row: tuple, col: tuple) -> list:
    """(scale, evaluator) per part of row x col at cfg's scale; any label
    pair outside the tables raises ValueError."""
    parts = cfg._parts.get((row, col))
    if parts is None:
        if row not in _FUNCTIONALS or col not in _COLUMNS:
            raise ValueError(f"unsupported functional pair {row} x {col}")
        inv = 1.0 / cfg.delta
        # nu^2 as nu * nu: pow(nu, 2) differs from it in the last bit for some nu
        parts = cfg._parts[row, col] = [
            (math.prod((cfg.nu,) * p) * inv ** (DIM + m), evaluator)
            for p, m, evaluator in _compiled_parts(cfg.psi_vel, cfg.psi_pre, row, col)
        ]
    return parts


def vanishes(cfg: StokesKernelConfig, row: tuple, col: tuple) -> bool:
    """Whether every entry of row x col is zero by construction, as for a
    pressure row against a Dirichlet column: the kernel is block diagonal."""
    return not _parts(cfg, row, col)


def columns(cfg, xb) -> Columns:
    """The points xb as the columns of displacement sets at cfg's scale,
    given to `displacements` as xb: the sets against one such object share
    what depends on the columns alone.  ``cfg`` and ``xb`` may be sequences,
    as for `displacements`.  Each point set must be a `geometry.point_batch`,
    and there must be a point set and one config per point set (or
    ValueError)."""
    if isinstance(cfg, StokesKernelConfig):
        return Columns(point_batch(xb, "column points"), 1.0 / cfg.delta)
    return Columns([point_batch(b, "column points") for b in xb], [1.0 / c.delta for c in cfg])


def displacements(cfg, xa, xb) -> Displacements:
    """The displacement set of the points xa against the points xb at cfg's
    scale: give it to `kernel_block` as xa, with this very cfg and xb, for
    any label pairs.  Their blocks then share the displacements, r, the
    powers, the radials and the evaluator sums, which the set keeps as long
    as it lives.  Raises ValueError unless xa and each point set of xb are
    a `geometry.point_batch`.

    ``cfg`` may also be a sequence of configs of the same profiles -- the
    levels of a model -- and ``xb`` a sequence of point sets, one per
    config: the set is then of xa against their concatenation, each run of
    columns at its own config's scale."""
    return Displacements(point_batch(xa, "row points"), columns(cfg, xb))


def evaluator_keys(cfg: StokesKernelConfig, pairs) -> frozenset:
    """The keys of the evaluators that the blocks of the label ``pairs``
    read at cfg's profiles, as `radial.Columns.power_tables` takes them."""
    return frozenset(evaluator.key for row, col in pairs for _, evaluator in _parts(cfg, row, col))


def kernel_block(cfg, row: tuple, col: tuple, xa, xb) -> np.ndarray:
    """Pairwise entries (row functional at xa[p]) x (col functional at xb[q]).

    ``row`` is a label of `_FUNCTIONALS`, ``col`` one of `_COLUMNS`; any
    other label raises ValueError.  xa has shape (P, 2), xb has shape
    (Q, 2); returns (P, Q); any other `geometry.point_batch` is taken as
    well, and anything else raises ValueError.  xa may also be the
    `displacements` of the rows against this xb at cfg's scale: the calls
    given one set share its values, and its pool holds the block; any
    other set raises ValueError.
    Entries with ||xa - xb|| >= delta vanish by compact support (the
    evaluators cut off at unit radius in scaled coordinates).

    A call whose parts -- evaluators, each with its scale per level -- equal
    those of the last block made on its set (velocity_1 x pde_2 and then
    velocity_2 x pde_1) returns that block, which the set holds until it
    makes another: a block with parts is read-only.

    ``cfg`` and ``xb`` may also be sequences, as for `displacements`: the
    block is then against the concatenated point sets, and each column
    holds the bits of its own config's block.  The only level-dependent
    factor, a part's scale nu^p delta^-(2+m), is then a vector over the
    columns.  Configs of other profiles raise ValueError.
    """
    cfgs, xbs = ((cfg,), (xb,)) if isinstance(cfg, StokesKernelConfig) else (cfg, xb)
    own = None if isinstance(xa, Displacements) else columns(cfg, xb)
    if own is None and (len(xa.runs) != len(cfgs) or any(
            points is not b or scale != 1.0 / c.delta
            for (points, scale), b, c in zip(xa.runs, xbs, cfgs))):
        raise ValueError("displacement set of other columns or another scale")
    levels = [_parts(c, row, col) for c in cfgs]
    # evaluators compiled apart for equal profiles are equal: compare keys
    keys = [evaluator.key for _, evaluator in levels[0]]
    if any([evaluator.key for _, evaluator in parts] != keys for parts in levels[1:]):
        raise ValueError("configs of other profiles")
    if own is not None:  # a set of this pair alone, made with the pair's power tables
        xa = point_batch(xa, "row points")
        xa = Displacements(xa, own, tables=own.power_tables(xa, frozenset(keys), len(xa)))
    parts = [(tuple(level[k][0] for level in levels), key) for k, key in enumerate(keys)]
    if xa.last_block is not None and xa.last_block[0] == parts:
        return xa.last_block[1]
    xa.last_block = out = None
    for scales, key in parts:
        values = np.multiply(xa.per_column(scales), xa.read(key), out=xa.pool.empty(xa.shape))
        if out is None:  # 0.0 + values, as summed into zeros: -0.0 becomes 0.0
            out = np.add(values, 0.0, out=values)
        else:
            out += values
    # no parts: the kernel is block diagonal (e.g. pressure_grad x
    # dirichlet), and the set computes nothing that is not read
    if out is None:
        return np.zeros(xa.shape)
    out.flags.writeable = False
    xa.last_block = (parts, out)
    return out
