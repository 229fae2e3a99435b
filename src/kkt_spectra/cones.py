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
    frame_projection,
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


def cone_context(X, Y) -> ConeContext:
    """Build a context from a candidate pair at the default partition,
    validating complementarity (check_complementary at 1e-8)."""
    X = as_symmat(X)
    Y = as_symmat(Y)
    if X.p != Y.p:
        raise InputDataError(f"matrix orders differ: {X.p} vs {Y.p}")
    ctx = cone_context_from_matrix(X + Y)
    check_complementary(ctx, X, Y)
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


def _block_rule(Ht: np.ndarray, tol, vanish, block, psd: bool) -> Membership:
    """The one membership rule of the eigenframe: the block Ht[vanish] of
    the rotated direction Ht must vanish and its diagonal block
    Ht[block, block] lie in S+ (psd) or S- (not psd). The violation is
    the larger of the vanishing block's norm and that diagonal block's
    spectral distance from its cone."""
    lo, hi = eig_range(Ht[block, block])
    violation = max(float(np.linalg.norm(Ht[vanish])), max(0.0, -float(lo) if psd else float(hi)))
    return Membership(violation <= tol, violation)


def tangent_membership(ctx: ConeContext, H) -> Membership:
    """Tangent cone to the PSD cone at X: compressed (beta+gamma) block PSD."""
    _, sb, _ = ctx.decomp.slices
    return _block_rule(ctx.decomp.rotate(H), DEFAULT_MEMBERSHIP_TOL, (slice(0), slice(0)), slice(sb.start, None), True)


def normal_membership(ctx: ConeContext, H) -> Membership:
    """Normal cone at X: compressed (beta+gamma) block NSD, alpha rows zero."""
    sa, sb, _ = ctx.decomp.slices
    return _block_rule(ctx.decomp.rotate(H), DEFAULT_MEMBERSHIP_TOL, (sa, slice(None)), slice(sb.start, None), False)


def _critical_rules(d: SpectralDecomp):
    """The (vanish, block, psd) rules of the critical cones of the PSD cone
    (gamma x (beta u gamma) vanishes, beta block PSD) and of the NSD cone
    (alpha x (alpha u beta) vanishes, beta block NSD)."""
    sa, sb, sg = d.slices
    return ((sg, slice(sb.start, None)), sb, True), ((sa, slice(0, sb.stop)), sb, False)


def critical_cone_psd_membership(ctx: ConeContext, H, tol=DEFAULT_MEMBERSHIP_TOL) -> Membership:
    """Critical cone of the PSD cone at (X, Y): gamma rows vanish, beta block PSD."""
    return _block_rule(ctx.decomp.rotate(H), tol, *_critical_rules(ctx.decomp)[0])


def critical_cone_nsd_membership(ctx: ConeContext, H, tol=DEFAULT_MEMBERSHIP_TOL) -> Membership:
    """Critical cone of the NSD cone at (Y, X): alpha rows vanish, beta block NSD."""
    return _block_rule(ctx.decomp.rotate(H), tol, *_critical_rules(ctx.decomp)[1])


def graph_tangent_membership(ctx: ConeContext, H1, H2) -> GraphMembership:
    """Tangent directions (H1, H2) to the graph of the PSD normal cone map.

    member_blocks evaluates the block conditions in the eigenbasis of
    A = X + Y: H1 in the critical cone of the PSD cone, H2 in that of
    the NSD cone, the Sigma coupling of their alpha x gamma blocks and
    the orthogonality of their beta blocks. member_deriv evaluates the
    equivalent fixed-point test H1 = dPi(A; H1 + H2). Both flags are
    returned so the equivalence is testable from outside. The violation
    is the largest of the four conditions' violations; each critical
    cone reads the norm of its whole vanishing block.
    """
    d = ctx.decomp
    sa, sb, sg = d.slices
    H1, H2 = as_symmat(H1), as_symmat(H2)
    H1t, H2t = d.rotate(H1), d.rotate(H2)
    S, B1, B2 = d.sigma[sa, sg], H1t[sb, sb], H2t[sb, sb]
    psd_rule, nsd_rule = _critical_rules(d)
    violation = max(
        _block_rule(H1t, DEFAULT_MEMBERSHIP_TOL, *psd_rule).violation,
        _block_rule(H2t, DEFAULT_MEMBERSHIP_TOL, *nsd_rule).violation,
        float(np.linalg.norm((S - 1.0) * H1t[sa, sg] + S * H2t[sa, sg])),
        abs(float(np.sum(B1 * B2))) / max(1.0, float(np.linalg.norm(B1)) * float(np.linalg.norm(B2))),
    )
    deriv_gap = (H1 - dir_deriv_from_decomp(d, H1 + H2)).norm()
    return GraphMembership(violation <= DEFAULT_MEMBERSHIP_TOL, deriv_gap <= DEFAULT_MEMBERSHIP_TOL, violation)


def project_critical_cone(ctx: ConeContext, Z) -> SymMat:
    """Metric projection onto the critical cone of the PSD cone at (X, Y):
    the blockwise rule of frame_projection with weight 1."""
    return SymMat(frame_projection(ctx.decomp, ctx.decomp.rotate(Z), 1.0))


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
