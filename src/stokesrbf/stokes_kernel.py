"""Scaled divergence-free matrix-valued Stokes kernel in two dimensions.

The (d+1) x (d+1) kernel is block diagonal: a velocity block
Psi = (-lap I + grad grad^T) psi_vel whose columns are solenoidal fields, and
a scalar pressure block psi_pre.  In 2-D the velocity block reads

    Psi_11 = -d22 psi,   Psi_22 = -d11 psi,   Psi_12 = Psi_21 = d12 psi.

Collocation functionals are either the momentum operator
(L v)_i = -nu lap v_i + d_i v_3 at an interior point or velocity evaluation
at a boundary point.  Applying a functional pair to the kernel (one per
argument) lands on a fixed catalogue of radial derivative combinations:
second derivatives of Psi and psi_pre, plus one and two Laplacians of Psi.
Those are generated mechanically from the term algebra in `radial` instead
of hand-derived entry formulas, and are checked against finite differences
in the tests.

Scaling: psi_delta(x) = delta^-d psi(||x||/delta), so an order-m derivative
evaluates as delta^-(d+m) times the unit-scale derivative at x/delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .radial import (
    RadialTermEvaluator,
    Terms,
    combine,
    diff_x,
    diff_y,
    laplacian,
    mixed_partial,
    terms_from_profile,
)
from .wendland import WendlandPolynomial

__all__ = ["PDE", "DIRICHLET", "StokesKernelConfig", "kernel_block"]

DIM = 2

PDE = "pde"
DIRICHLET = "dirichlet"

# every (kind, component) label kernel_block accepts: rows are evaluation
# functionals applied to the first kernel argument ("pde" and "velocity"
# double as the collocation rows), columns are the collocation functionals
_ROWS = frozenset({
    (PDE, 1), (PDE, 2), ("velocity", 1), ("velocity", 2),
    ("pressure_grad", 1), ("pressure_grad", 2),
    ("pressure", 0), ("divergence", 0),
})
_COLS = frozenset({(PDE, 1), (PDE, 2), (DIRICHLET, 1), (DIRICHLET, 2)})


@dataclass(frozen=True)
class StokesKernelConfig:
    """Kernel data for one level: the two radial profiles, viscosity, scale.

    ``psi_vel`` feeds the velocity block, ``psi_pre`` the pressure block; the
    reproduction experiment uses the same C^8 function for both.  Immutable
    and safe to share across threads; the compiled derivative tables live in
    module-level caches keyed by the coefficient tuples.
    """

    psi_vel: WendlandPolynomial
    psi_pre: WendlandPolynomial
    nu: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not self.nu > 0:
            raise ValueError("nu must be positive")

    def rescaled(self, delta: float) -> "StokesKernelConfig":
        return StokesKernelConfig(self.psi_vel, self.psi_pre, self.nu, delta)


# --- compiled derivative tables -------------------------------------------

def _velocity_terms(coeffs: tuple, i: int, j: int) -> Terms:
    """Term dict of Psi_ij for the unit-scale profile."""
    profile = terms_from_profile(coeffs)
    if i == j:
        other = 3 - i
        t = profile
        for _ in range(2):
            t = diff_x(t) if other == 1 else diff_y(t)
        return combine((-1, t))
    return diff_y(diff_x(profile))


@lru_cache(maxsize=None)
def _vel_evaluator(coeffs: tuple, i: int, j: int, laps: int) -> RadialTermEvaluator:
    t = _velocity_terms(coeffs, i, j)
    for _ in range(laps):
        t = laplacian(t)
    return RadialTermEvaluator(t)


@lru_cache(maxsize=None)
def _vel_div_evaluator(coeffs: tuple, j: int, laps: int) -> RadialTermEvaluator:
    # divergence of column j of Psi: cancels to the empty term dict exactly
    t = combine(
        (1, diff_x(_velocity_terms(coeffs, 1, j))),
        (1, diff_y(_velocity_terms(coeffs, 2, j))),
    )
    for _ in range(laps):
        t = laplacian(t)
    return RadialTermEvaluator(t)


def _pre_grad(pre: WendlandPolynomial, i: int) -> RadialTermEvaluator:
    """d_i psi_pre for i in {1, 2}."""
    return mixed_partial(pre, 2 - i, i - 1)


def _pre_hess(pre: WendlandPolynomial, i: int, j: int) -> RadialTermEvaluator:
    """d_i d_j psi_pre for i, j in {1, 2}."""
    return mixed_partial(pre, 4 - i - j, i + j - 2)


def _entry_parts(cfg: StokesKernelConfig, row: tuple, col: tuple):
    """(factor, evaluator, derivative order) triples for a row/column pair.

    ``row`` and ``col`` are (kind, component) labels from _ROWS and _COLS;
    any other label raises ValueError.  The y-side functional is folded
    into the signs: odd-order derivatives acting on the second argument
    flip sign, which is how the -d_j psi_pre pressure columns and the nu^2
    momentum-momentum entries below arise.
    """
    if row not in _ROWS or col not in _COLS:
        raise ValueError(f"unsupported functional pair {row} x {col}")
    vel, pre = cfg.psi_vel.coeffs, cfg.psi_pre
    nu = cfg.nu
    rk, ri = row
    ck, cj = col
    if ck == PDE:
        if rk == "velocity":
            return ((-nu, _vel_evaluator(vel, ri, cj, 1), 4),)
        if rk == PDE:
            return (
                (nu * nu, _vel_evaluator(vel, ri, cj, 2), 6),
                (-1.0, _pre_hess(pre, ri, cj), 2),
            )
        if rk == "pressure":
            return ((-1.0, _pre_grad(pre, cj), 1),)
        if rk == "pressure_grad":
            return ((-1.0, _pre_hess(pre, ri, cj), 2),)
        return ((-nu, _vel_div_evaluator(vel, cj, 1), 5),)  # divergence
    if rk == "velocity":
        return ((1.0, _vel_evaluator(vel, ri, cj, 0), 2),)
    if rk == PDE:
        return ((-nu, _vel_evaluator(vel, ri, cj, 1), 4),)
    if rk in ("pressure", "pressure_grad"):
        return ()  # boundary columns have no pressure component
    return ((1.0, _vel_div_evaluator(vel, cj, 0), 3),)  # divergence


def kernel_block(cfg: StokesKernelConfig, row: tuple, col: tuple, xa, xb) -> np.ndarray:
    """Pairwise entries (row functional at xa[p]) x (col functional at xb[q]).

    xa has shape (P, 2), xb has shape (Q, 2); returns (P, Q).  Entries with
    ||xa - xb|| >= delta vanish by compact support (the evaluators cut off
    at unit radius in scaled coordinates).
    """
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    inv = 1.0 / cfg.delta
    dx = (xa[:, 0][:, None] - xb[None, :, 0]) * inv
    dy = (xa[:, 1][:, None] - xb[None, :, 1]) * inv
    out = np.zeros(dx.shape)
    for factor, evaluator, order in _entry_parts(cfg, row, col):
        out += (factor * inv ** (DIM + order)) * evaluator(dx, dy)
    return out
