"""Cone geometry: memberships, critical-cone projections, complementarity flags."""

import numpy as np

from conftest import random_cone_context, random_symmetric
from kkt_spectra.cones import (
    cone_context,
    cone_context_from_matrix,
    critical_cone_nsd_membership,
    critical_cone_psd_membership,
    graph_tangent_membership,
    is_normal_cone_polyhedral,
    normal_membership,
    project_critical_cone,
    project_critical_cone_polar,
    strict_complementarity,
    tangent_membership,
)
from kkt_spectra.symmat import SymMat, project_psd


def test_tangent_membership_examples():
    ctx = cone_context(SymMat.diag([2, 0]), SymMat.zeros(2))
    assert tangent_membership(ctx, SymMat.diag([-1, 5])).member
    m = tangent_membership(ctx, SymMat.diag([1, -1]))
    assert not m.member and abs(m.violation - 1) < 1e-12
    assert tangent_membership(ctx, SymMat.zeros(2)).member


def test_critical_cone_memberships():
    ctx = cone_context(SymMat.diag([2, 0]), SymMat.diag([0, -3]))
    assert critical_cone_psd_membership(ctx, SymMat([[5, 7], [7, 0]])).member
    assert not critical_cone_psd_membership(ctx, SymMat.diag([0, 1])).member
    assert critical_cone_nsd_membership(ctx, SymMat.diag([0, -4])).member
    assert not critical_cone_nsd_membership(ctx, SymMat.diag([1, 0])).member


def test_normal_membership_examples():
    ctx = cone_context(SymMat.diag([2, 0]), SymMat.diag([0, -3]))
    assert normal_membership(ctx, SymMat.diag([0, -1])).member
    assert not normal_membership(ctx, SymMat.diag([1, 0])).member


def test_graph_membership_examples():
    ctx = cone_context(SymMat.diag([2, 0]), SymMat.diag([0, -3]))
    g = graph_tangent_membership(ctx, SymMat.diag([1, 0]), SymMat.diag([0, 1]))
    assert g.member_blocks and g.member_deriv
    g2 = graph_tangent_membership(ctx, SymMat.diag([0, 1]), SymMat.zeros(2))
    assert not g2.member_blocks and not g2.member_deriv
    g3 = graph_tangent_membership(ctx, SymMat.zeros(2), SymMat.zeros(2))
    assert g3.member_blocks and g3.member_deriv


def test_critical_cone_projection_examples():
    ctx = cone_context(SymMat.diag([2, 0]), SymMat.diag([0, -3]))
    PC = project_critical_cone(ctx, SymMat([[1, 2], [2, 9]]))
    assert PC.allclose([[1, 2], [2, 0]])
    # fully degenerate point: the critical cone is the PSD cone itself
    ctx0 = cone_context(SymMat.zeros(2), SymMat.zeros(2))
    Z = SymMat([[0, 1], [1, 0]])
    assert project_critical_cone(ctx0, Z).allclose(project_psd(Z).full())


def test_complementarity_flags():
    assert is_normal_cone_polyhedral(cone_context_from_matrix(SymMat.diag([2, 1, -3])))
    assert not is_normal_cone_polyhedral(cone_context_from_matrix(SymMat.zeros(3)))
    assert is_normal_cone_polyhedral(cone_context_from_matrix(SymMat.diag([0.0])))
    ctx = cone_context(SymMat.diag([2, 0]), SymMat.diag([0, -3]))
    assert strict_complementarity(ctx)
    assert not strict_complementarity(cone_context_from_matrix(SymMat.zeros(2)))
    assert not strict_complementarity(cone_context(SymMat.diag([1, 0]), SymMat.zeros(2)))


def constructed_graph_member(rng, ctx):
    """Build (H1, H2) satisfying the block conditions exactly."""
    d = ctx.decomp
    p = d.p
    ka, kb = d.alpha.size, d.beta.size
    kg = p - ka - kb
    sa, sb, sg = slice(0, ka), slice(ka, ka + kb), slice(ka + kb, p)
    H1t = np.zeros((p, p))
    H2t = np.zeros((p, p))

    def sym(M):
        return 0.5 * (M + M.T)

    H1t[sa, sa] = sym(rng.normal(size=(ka, ka)))
    H1t[sa, sb] = rng.normal(size=(ka, kb))
    H1t[sb, sa] = H1t[sa, sb].T
    H1t[sa, sg] = rng.normal(size=(ka, kg))
    H1t[sg, sa] = H1t[sa, sg].T
    S = d.sigma
    H2t[sa, sg] = (1.0 - S) / S * H1t[sa, sg]
    H2t[sg, sa] = H2t[sa, sg].T
    H2t[sb, sg] = rng.normal(size=(kb, kg))
    H2t[sg, sb] = H2t[sb, sg].T
    H2t[sg, sg] = sym(rng.normal(size=(kg, kg)))
    if kb:
        # complementary PSD/NSD pair sharing an eigenframe
        Qb = np.linalg.qr(rng.normal(size=(kb, kb)))[0]
        r = rng.integers(0, kb + 1)
        pos = np.concatenate([np.abs(rng.normal(size=r)), np.zeros(kb - r)])
        neg = np.concatenate([np.zeros(r), -np.abs(rng.normal(size=kb - r))])
        H1t[sb, sb] = (Qb * pos) @ Qb.T
        H2t[sb, sb] = (Qb * neg) @ Qb.T
    P = d.P
    return SymMat(P @ H1t @ P.T), SymMat(P @ H2t @ P.T)


def test_blocks_vs_derivative_fuzz():
    rng = np.random.default_rng(1)
    for trial in range(300):
        p = int(rng.integers(1, 7))
        ctx = random_cone_context(rng, p)
        if trial % 2 == 0:
            H1, H2 = constructed_graph_member(rng, ctx)
            expect_member = True
        else:
            H1 = random_symmetric(rng, p)
            H2 = random_symmetric(rng, p)
            expect_member = None
        g = graph_tangent_membership(ctx, H1, H2)
        assert g.member_blocks == g.member_deriv, (trial, g)
        if expect_member:
            assert g.member_blocks, (trial, g)


def test_critical_cone_vs_tangent_and_orthogonality():
    rng = np.random.default_rng(1)
    for trial in range(300):
        p = int(rng.integers(1, 6))
        ctx = random_cone_context(rng, p)
        H = random_symmetric(rng, p)
        c = critical_cone_psd_membership(ctx, H, 1e-7)
        if c.member:
            t = tangent_membership(ctx, H)
            ortho = abs(ctx.Y.inner(H)) <= 1e-7 * max(1.0, ctx.Y.norm() * H.norm())
            assert t.member and ortho, (trial, c, t)


def test_critical_cone_moreau_identity():
    rng = np.random.default_rng(1)
    for trial in range(300):
        p = int(rng.integers(1, 6))
        ctx = random_cone_context(rng, p)
        Z = random_symmetric(rng, p)
        Hc = project_critical_cone(ctx, Z)
        Hp = project_critical_cone_polar(ctx, Z)
        assert (Hc + Hp).allclose(Z.full(), atol=1e-10)
        assert abs(Hc.inner(Hp)) <= 1e-8 * max(1.0, Z.norm() ** 2)
        assert critical_cone_psd_membership(ctx, Hc, 1e-7).member
        assert tangent_membership(ctx, Hc).member
        assert abs(ctx.Y.inner(Hc)) <= 1e-7 * max(1.0, ctx.Y.norm() * Hc.norm())
