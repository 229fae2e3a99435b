"""Variational geometry of the PSD cone.

Tangent, normal, and critical cone membership with graded violations,
projection onto the critical cone and its polar, graph-tangent membership
through both the block characterization and the projection derivative,
and the polyhedrality / strict complementarity structure flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputDataError
from .symmat import (
    SpectralDecomp,
    SymMat,
    as_symmat,
    dir_deriv_from_decomp,
    eig_range,
    eigh,
    moreau_split,
)

DEFAULT_MEMBERSHIP_TOL = 1e-7


@dataclass(frozen=True)
class ConeContext:
    """A complementary PSD/NSD pair (X, Y) with the decomposition of X + Y.

    X is the PSD part, Y the NSD part, and decomp carries the alpha/beta/
    gamma partition of A = X + Y that every cone formula reads.
    """

    X: SymMat
    Y: SymMat
    decomp: SpectralDecomp

    @property
    def p(self) -> int:
        return self.X.p


class Membership(NamedTuple):
    member: bool
    violation: float


class GraphMembership(NamedTuple):
    member_blocks: bool
    member_deriv: bool
    violation: float


def cone_context_from_matrix(A, tol_zero=None) -> ConeContext:
    """Split A into its complementary PSD/NSD pair and wrap the context."""
    X, Y, d = moreau_split(as_symmat(A), tol_zero)
    return ConeContext(X, Y, d)


def cone_context(X, Y, tol_zero=None, tol=1e-8) -> ConeContext:
    """Build a context from a candidate pair, validating complementarity."""
    X = as_symmat(X)
    Y = as_symmat(Y)
    if X.p != Y.p:
        raise InputDataError(f"matrix orders differ: {X.p} vs {Y.p}")
    ctx = cone_context_from_matrix(X + Y, tol_zero)
    check_complementary(ctx, X, Y, tol)
    return ctx


def check_complementary(ctx: ConeContext, X: SymMat, Y: SymMat, tol=1e-8) -> None:
    """Raise InputDataError unless ctx, the split of X + Y, gives back
    (X, Y) within tol relative to max(1, |X + Y|)."""
    scale = max(1.0, ctx.decomp.source.norm())
    gap = max((ctx.X - X).norm(), (ctx.Y - Y).norm())
    if gap > tol * scale:
        raise InputDataError(
            f"pair is not a complementary PSD/NSD split (defect {gap:.3e})"
        )


def _block_slices(d: SpectralDecomp):
    ka, kb = d.alpha.size, d.beta.size
    return slice(0, ka), slice(ka, ka + kb), slice(ka + kb, d.p)


def tangent_membership(ctx: ConeContext, H, tol=DEFAULT_MEMBERSHIP_TOL) -> Membership:
    """Tangent cone to the PSD cone at X: compressed (beta+gamma) block PSD."""
    d = ctx.decomp
    _, sb, sg = _block_slices(d)
    Ht = d.rotate(H)
    comp = Ht[sb.start : d.p, sb.start : d.p]
    lo, _ = eig_range(comp)
    violation = max(0.0, -float(lo))
    return Membership(violation <= tol, violation)


def normal_membership(ctx: ConeContext, H, tol=DEFAULT_MEMBERSHIP_TOL) -> Membership:
    """Normal cone at X: compressed (beta+gamma) block NSD, alpha rows zero."""
    d = ctx.decomp
    sa, sb, sg = _block_slices(d)
    Ht = d.rotate(H)
    eq = float(np.linalg.norm(Ht[sa, :]))
    comp = Ht[sb.start : d.p, sb.start : d.p]
    _, hi = eig_range(comp)
    violation = max(eq, max(0.0, float(hi)))
    return Membership(violation <= tol, violation)


def critical_cone_psd_membership(ctx: ConeContext, H, tol=DEFAULT_MEMBERSHIP_TOL) -> Membership:
    """Critical cone of the PSD cone at (X, Y): gamma rows vanish, beta block PSD."""
    d = ctx.decomp
    sa, sb, sg = _block_slices(d)
    Ht = d.rotate(H)
    eq = float(np.linalg.norm(Ht[sg, sb.start : d.p]))
    lo, _ = eig_range(Ht[sb, sb])
    violation = max(eq, max(0.0, -float(lo)))
    return Membership(violation <= tol, violation)


def critical_cone_nsd_membership(ctx: ConeContext, H, tol=DEFAULT_MEMBERSHIP_TOL) -> Membership:
    """Critical cone of the NSD cone at (Y, X): alpha rows vanish, beta block NSD."""
    d = ctx.decomp
    sa, sb, sg = _block_slices(d)
    Ht = d.rotate(H)
    eq = float(np.linalg.norm(Ht[sa, 0 : sb.stop]))
    _, hi = eig_range(Ht[sb, sb])
    violation = max(eq, max(0.0, float(hi)))
    return Membership(violation <= tol, violation)


def graph_tangent_membership(ctx: ConeContext, H1, H2, tol=DEFAULT_MEMBERSHIP_TOL) -> GraphMembership:
    """Tangent directions (H1, H2) to the graph of the PSD normal cone map.

    member_blocks evaluates the block conditions in the eigenbasis of
    A = X + Y; member_deriv evaluates the equivalent fixed-point test
    H1 = dPi(A; H1 + H2). Both flags are returned so the equivalence is
    testable from outside.
    """
    d = ctx.decomp
    sa, sb, sg = _block_slices(d)
    H1 = as_symmat(H1)
    H2 = as_symmat(H2)
    H1t = d.rotate(H1)
    H2t = d.rotate(H2)

    viols = [
        float(np.linalg.norm(H1t[sb, sg])),
        float(np.linalg.norm(H1t[sg, sg])),
        float(np.linalg.norm(H2t[sa, sa])),
        float(np.linalg.norm(H2t[sa, sb])),
    ]
    S = d.sigma[sa, sg]
    viols.append(float(np.linalg.norm((S - 1.0) * H1t[sa, sg] + S * H2t[sa, sg])))
    B1 = H1t[sb, sb]
    B2 = H2t[sb, sb]
    lo1, _ = eig_range(B1)
    _, hi2 = eig_range(B2)
    viols.append(max(0.0, -float(lo1)))
    viols.append(max(0.0, float(hi2)))
    n1 = float(np.linalg.norm(B1))
    n2 = float(np.linalg.norm(B2))
    viols.append(abs(float(np.sum(B1 * B2))) / max(1.0, n1 * n2))
    violation = max(viols)

    deriv_gap = (H1 - dir_deriv_from_decomp(d, H1 + H2)).norm()
    return GraphMembership(violation <= tol, deriv_gap <= tol, violation)


def project_critical_cone(ctx: ConeContext, Z) -> SymMat:
    """Metric projection onto the critical cone of the PSD cone at (X, Y).

    Blockwise in the eigenbasis: alpha rows pass through, the beta block
    is projected onto its small PSD cone, gamma rows are zeroed.
    """
    d = ctx.decomp
    sa, sb, sg = _block_slices(d)
    Zt = d.rotate(Z)
    R = np.zeros_like(Zt)
    R[sa, sa] = Zt[sa, sa]
    R[sa, sb] = Zt[sa, sb]
    R[sb, sa] = Zt[sb, sa]
    R[sa, sg] = Zt[sa, sg]
    R[sg, sa] = Zt[sg, sa]
    if d.beta.size:
        lam_b, V_b = eigh(Zt[sb, sb])
        R[sb, sb] = (V_b * np.maximum(lam_b, 0.0)) @ V_b.T
    return SymMat(d.P @ R @ d.P.T)


def project_critical_cone_polar(ctx: ConeContext, Z) -> SymMat:
    """Projection onto the polar of the critical cone, via the Moreau split."""
    Z = as_symmat(Z)
    return Z - project_critical_cone(ctx, Z)


def is_normal_cone_polyhedral(ctx: ConeContext) -> bool:
    """The normal-cone graph is polyhedral near (X, Y) iff |alpha| >= p - 1."""
    return ctx.decomp.alpha.size >= ctx.p - 1


def strict_complementarity(ctx: ConeContext) -> bool:
    """rank(X) + rank(Y) = p, i.e. the beta block is empty."""
    return ctx.decomp.beta.size == 0
