"""Multiplier classification, qualification checks, diagonal reduction."""

import importlib.util
import json
import math
import os
import re

import numpy as np
import pytest

from conftest import context, coupled_block_pair, planted_block_pair, planted_pair, sample_diag_problem
from kkt_spectra import criticality, lpkernel
from kkt_spectra.criticality import (
    CRITICAL,
    NONCRITICAL,
    TOL_POS,
    UNDETERMINED,
    _mixed_rows,
    _refine_angle,
    _supergradient_bound,
    analysis_context,
    build_system,
    check_rcq,
    check_srcq,
    classify_multiplier,
    classify_nlp,
    common_rows,
    diagonal_reduction,
    entry_rows,
    rcq_holds,
    rotated_beta_rows,
    srcq_holds,
    witness_residual,
    xpart_condition,
)
from kkt_spectra.cones import cone_context_from_matrix
from kkt_spectra.errors import InputDataError, NumericError
from kkt_spectra.lpkernel import nontrivial_in_span, null_space
from kkt_spectra.problem import ProblemKernels, eval_grad_f, kkt_point, make_problem, problem_from_dict
from kkt_spectra.sosc import SOSCY_HOLDS, check_soscy, evaluate_second_order_form, sigma_term
from kkt_spectra.symmat import (
    SymMat,
    as_symmat,
    dir_deriv_from_decomp,
    project_psd,
    pseudoinverse,
    spectral_decompose,
    sym_mat,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def scalar_system():
    """f = 0, G(x) = [x], reference (0, [0]): every direction is a witness."""
    pd = make_problem([0.0], [[0.0]], SymMat.zeros(1), [SymMat.eye(1)])
    return pd, build_system(pd, kkt_point(pd, [0.0], SymMat.zeros(1)))


def test_witness_residual_fixtures(scalar_system, fam3):
    _, sys1 = scalar_system
    assert witness_residual(sys1, [0.0], SymMat.zeros(1)) == 0.0
    assert witness_residual(sys1, [1.0], SymMat.zeros(1)) <= 1e-15
    sys3 = build_system(fam3.problem, kkt_point(fam3.problem, fam3.xbar, fam3.ybar))
    r = witness_residual(sys3, [1.0, 0.0], SymMat.zeros(2))
    assert abs(r - math.sqrt(5.0)) <= 1e-12


def test_build_system_partitions(fam2, fam3):
    d2 = build_system(fam2.problem, kkt_point(fam2.problem, fam2.xbar, fam2.ybar)).ctx.decomp
    assert list(d2.beta) == [0] and list(d2.gamma) == [1] and d2.alpha.size == 0
    d3 = build_system(fam3.problem, kkt_point(fam3.problem, fam3.xbar, fam3.ybar)).ctx.decomp
    assert d3.beta.size == 2 and d3.alpha.size == 0 and d3.gamma.size == 0


def test_uncertified_point_rejected():
    pd = make_problem([0.0], [[0.0]], SymMat.zeros(1), [SymMat.eye(1)])
    bad = kkt_point(pd, [1.0], SymMat.diag([5.0]))
    assert not bad.certified
    with pytest.raises(InputDataError):
        build_system(pd, bad)


def test_classify_scalar_critical(scalar_system):
    _, sys1 = scalar_system
    v = classify_multiplier(sys1)
    assert v.tag == CRITICAL
    xi, _ = v.witness
    assert abs(abs(xi[0]) - 1.0) <= 1e-12 and v.residual <= 1e-7


def test_classify_reference_examples(fam2, fam3):
    sys3 = build_system(fam3.problem, kkt_point(fam3.problem, fam3.xbar, fam3.ybar))
    assert classify_multiplier(sys3).tag == NONCRITICAL
    sys2 = build_system(fam2.problem, kkt_point(fam2.problem, fam2.xbar, fam2.ybar))
    assert classify_multiplier(sys2).tag == NONCRITICAL


def test_classify_linear_forcing_tier():
    pd = make_problem([0.0], [[1.0]], SymMat.zeros(2), [SymMat.zeros(2)])
    v = classify_multiplier(build_system(pd, kkt_point(pd, [0.0], SymMat.zeros(2))))
    assert v.tag == NONCRITICAL and "linear rows alone" in v.certificate


def test_classify_common_eigenframe_tier():
    pd = make_problem([0.0], [[0.0]], SymMat.zeros(2), [SymMat([[1.0, 1.0], [1.0, 1.0]])])
    v = classify_multiplier(build_system(pd, kkt_point(pd, [0.0], SymMat.zeros(2))))
    assert v.tag == CRITICAL and "common-eigenframe" in v.certificate
    assert v.residual <= 1e-7


def test_classify_two_block_tier():
    pd = make_problem(
        [0.0, 0.0],
        [[0.0, 2.0], [2.0, 0.0]],
        SymMat.zeros(2),
        [SymMat.diag([1.0, 0.0]), SymMat([[0.0, 1.0], [1.0, 2.0]])],
    )
    sysm = build_system(pd, kkt_point(pd, [0.0, 0.0], SymMat.zeros(2)))
    v = classify_multiplier(sysm)
    assert v.tag == CRITICAL and v.residual <= 1e-7
    assert v.certificate.startswith("exact: 2x2 beta block")
    with pytest.raises(TypeError, match="grid_points"):
        classify_multiplier(sysm, grid_points=181)


def test_classify_undetermined_semidecision():
    # |beta| = 2: e = 0 is forced and det h = -xi1^2 / 2 - xi2^2 < 0, so
    # the exact 2x2 tier excludes every support
    pd = make_problem(
        [0.0, 0.0],
        [[0.0, 0.0], [0.0, 0.0]],
        SymMat.zeros(2),
        [SymMat.diag([1.0, -0.5]), SymMat([[0.0, 1.0], [1.0, 0.0]])],
    )
    v = classify_multiplier(build_system(pd, kkt_point(pd, [0.0, 0.0], SymMat.zeros(2))))
    assert v.tag == NONCRITICAL and v.certificate.startswith("exact: 2x2 beta block")
    # |beta| = 3 with non-commuting data: entry (3, 3) of xi1 D1 + xi2 D2
    # is 0, so a PSD beta block forces xi2 = 0 and then xi1 = 0. C(xbar)
    # is {0}, and the S-procedure bound certifies it
    pd3 = make_problem(
        [0.0, 0.0],
        [[0.0, 0.0], [0.0, 0.0]],
        SymMat.zeros(3),
        [
            SymMat.diag([1.0, -0.5, 0.0]),
            SymMat([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        ],
    )
    v3 = classify_multiplier(build_system(pd3, kkt_point(pd3, [0.0, 0.0], SymMat.zeros(3))))
    assert v3.tag == NONCRITICAL and "S-procedure bound" in v3.certificate
    # an open draw of the coupled probe: the bound is not positive and
    # neither pure support nor the deterministic frames hold a witness
    rng = np.random.default_rng(0)
    pdo, xo, Yo = coupled_block_pair(rng, int(rng.integers(6, 8)), 3)
    vo = classify_multiplier(context(pdo, xo, Yo))
    assert vo.tag == UNDETERMINED and vo.witness is None
    assert vo.certificate.startswith("semi-decision: beta block of order 3, second-order bound not positive")
    assert vo.certificate.endswith("open: the mixed supports")


def test_classify_two_block_mixed_support_off_grid():
    # witness xi = e1, h = u u^T and eta = -v v^T for the frame (u, v) at
    # angle 0.3; f_quad is back-solved so the adjoint row holds, and it is
    # nonsingular, so neither pure support has a nonzero xi
    theta = 0.3
    u = np.array([math.cos(theta), math.sin(theta)])
    s2 = math.sin(2.0 * theta)
    pd = make_problem(
        [0.0, 0.0],
        [[0.0, -s2], [-s2, 1.0]],
        SymMat.zeros(2),
        [SymMat(np.outer(u, u)), SymMat([[0.0, 1.0], [1.0, 0.0]])],
    )
    sysm = build_system(pd, kkt_point(pd, [0.0, 0.0], SymMat.zeros(2)))
    v = classify_multiplier(sysm)
    assert v.tag == CRITICAL and "mixed support" in v.certificate
    assert witness_residual(sysm, *v.witness) <= 1e-7
    # the angle is measured in the eigenframe of G + Y; it is off the
    # 181-point grid pi i / 181 by more than a fifth of its spacing
    found = float(v.certificate.split("theta=")[1])
    assert min(abs(found - math.pi * i / 181) for i in range(182)) > 0.2 * math.pi / 181
    xi, _ = v.witness
    h = xi[0] * np.outer(u, u) + xi[1] * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(h, np.outer(u, u) * np.trace(h), atol=1e-9)


def test_classify_two_block_pure_support(monkeypatch):
    # f_quad has kernel e1 and the first Jacobian is positive definite, so
    # xi = e1, eta = 0 is a witness with h PSD and e = 0
    pd = make_problem(
        [0.0, 0.0],
        [[0.0, 0.0], [0.0, 1.0]],
        SymMat.zeros(2),
        [SymMat([[2.0, 0.5], [0.5, 1.0]]), SymMat([[0.0, 1.0], [1.0, -1.0]])],
    )
    sysm = build_system(pd, kkt_point(pd, [0.0, 0.0], SymMat.zeros(2)))
    v = classify_multiplier(sysm)
    assert v.tag == CRITICAL and v.certificate == "exact: 2x2 beta block, pure support 'h psd, e = 0'"
    assert witness_residual(sysm, *v.witness) <= 1e-7
    assert abs(abs(v.witness[0][0]) - 1.0) <= 1e-9
    # an eta off by 1e-5 fails re-verification; like every tier, the pure
    # support polishes it (eta re-solved at fixed xi) and accepts the result
    point = criticality._psd_point_with_xi

    def perturbed(Z, block, xi_dim):
        z = point(Z, block, xi_dim)
        return None if z is None else np.concatenate([z[:xi_dim], z[xi_dim:] + 1e-5])

    monkeypatch.setattr(criticality, "_psd_point_with_xi", perturbed)
    v = classify_multiplier(sysm)
    assert v.tag == CRITICAL and v.certificate == "exact: 2x2 beta block, pure support 'h psd, e = 0'"
    assert v.residual <= 1e-12 and witness_residual(sysm, *v.witness) == v.residual
    monkeypatch.undo()
    # the third Jacobian is the sum of the first two, so xi = (1, 1, -1)
    # gives h = 0; f_quad maps it to (v' D_k v)_k for v = (0.6, 0.8), so
    # eta = -v v^T closes the adjoint row. f_quad is nonsingular, so the
    # h PSD, e = 0 support has no nonzero xi and h = 0, e NSD decides
    D1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    D2 = np.array([[0.0, 1.0], [1.0, 0.5]])
    pd = make_problem(
        [0.0, 0.0, 0.0],
        [[0.48, 0.0, 0.76], [0.0, 1.52, 0.24], [0.76, 0.24, 0.0]],
        SymMat.zeros(2),
        [SymMat(D1), SymMat(D2), SymMat(D1 + D2)],
    )
    sysm = build_system(pd, kkt_point(pd, [0.0, 0.0, 0.0], SymMat.zeros(2)))
    v = classify_multiplier(sysm)
    assert v.tag == CRITICAL and v.certificate == "exact: 2x2 beta block, pure support 'h = 0, e nsd'"
    assert witness_residual(sysm, *v.witness) <= 1e-7
    assert np.allclose(np.abs(v.witness[0]), 1.0 / math.sqrt(3.0), atol=1e-9)


def _rotated_partition_pair(rng, ka, kb, kg, n):
    """Certified pair at x = 0 with |alpha|, |beta|, |gamma| = ka, kb, kg,
    dense Jacobians, all seen in a random orthogonal frame."""
    p = ka + kb + kg
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    d = np.concatenate([rng.uniform(0.5, 2.0, ka), np.zeros(kb + kg)])
    w = np.concatenate([np.zeros(ka + kb), rng.uniform(0.5, 2.0, kg)])
    A = [Q @ (M + M.T) @ Q.T for M in rng.standard_normal((n, p, p))]
    Y = -(Q * w) @ Q.T
    F = rng.standard_normal((n, n))
    flin = [-float(np.sum(M * Y)) for M in A]
    pd = make_problem(flin, F + F.T, SymMat((Q * d) @ Q.T), [SymMat(M) for M in A])
    return build_system(pd, kkt_point(pd, np.zeros(n), SymMat(Y)))


def test_entry_rows_match_definition():
    rng = np.random.default_rng(11)
    for ka, kb, kg, n in [(1, 2, 1, 2), (2, 3, 1, 3), (1, 2, 2, 1)]:
        sysm = _rotated_partition_pair(rng, ka, kb, kg, n)
        d = sysm.ctx.decomp
        assert (d.alpha.size, d.beta.size, d.gamma.size) == (ka, kb, kg)
        assert np.abs(np.abs(d.P) - np.eye(d.p)).max() > 0.1
        H, E = entry_rows(sysm)
        p = sysm.p
        assert H.shape == E.shape == (p, p, n + p * (p + 1) // 2)
        Qb, _ = np.linalg.qr(rng.standard_normal((kb, kb)))
        h, e = rotated_beta_rows(sysm, H, E, Qb)
        for _ in range(5):
            z = rng.standard_normal(H.shape[-1])
            Gxi = sum(z[k] * sysm.Ds[k] for k in range(n))
            Ht = d.P.T @ Gxi @ d.P
            Et = d.P.T @ sym_mat(z[n:], p).full() @ d.P
            assert np.allclose(H @ z, Ht, rtol=0.0, atol=1e-12)
            assert np.allclose(E @ z, Et, rtol=0.0, atol=1e-12)
            bb = np.ix_(d.beta, d.beta)
            assert np.allclose(h @ z, Qb.T @ Ht[bb] @ Qb, rtol=0.0, atol=1e-12)
            assert np.allclose(e @ z, Qb.T @ Et[bb] @ Qb, rtol=0.0, atol=1e-12)


def test_refine_angle_recovers_a_rank_drop():
    # the mixed rows of the planted fixture lose rank at one angle; a
    # perturbed estimate (as a double root of a minor yields) is pulled
    # back onto it, and an angle far from any rank drop is dropped
    theta = 0.3
    u = np.array([math.cos(theta), math.sin(theta)])
    s2 = math.sin(2.0 * theta)
    pd = make_problem(
        [0.0, 0.0],
        [[0.0, -s2], [-s2, 1.0]],
        SymMat.zeros(2),
        [SymMat(np.outer(u, u)), SymMat([[0.0, 1.0], [1.0, 0.0]])],
    )
    sysm = build_system(pd, kkt_point(pd, [0.0, 0.0], SymMat.zeros(2)))
    H, E = entry_rows(sysm)
    N = null_space(common_rows(sysm, H, E))
    H = H[[0, 0, 1], [0, 1, 1]] @ N
    E = E[[0, 0, 1], [0, 1, 1]] @ N
    C = _mixed_rows(H / np.abs(H).max(), E / np.abs(E).max())
    # the angle of u, measured in the eigenframe of G + Y
    uP = sysm.ctx.decomp.P.T @ u
    target = math.atan2(uP[1], uP[0]) % math.pi
    assert abs(_refine_angle(C, target + 1e-6) - target) <= 1e-12
    assert _refine_angle(C, target + 0.5) is None


def test_classify_pd_pd_noncritical():
    # the sufficiency fixture of acceptance criterion 8: SOSC holds there,
    # and the classifier reaches Noncritical on its own
    pd = make_problem(
        [0.0, 0.0],
        [[2.0, 0.0], [0.0, 2.0]],
        SymMat.zeros(2),
        [SymMat.diag([1.0, 0.0]), SymMat([[0.0, 1.0], [1.0, 2.0]])],
    )
    v = classify_multiplier(build_system(pd, kkt_point(pd, [0.0, 0.0], SymMat.zeros(2))))
    assert v.tag == NONCRITICAL and v.certificate.startswith("exact: 2x2 beta block")


def _two_block_problem(rng, kind):
    """p = 2 at xbar = 0, Y = 0 with non-commuting Jacobians.

    kind 0: generic data; kind 1: f_quad of rank one in n = 3, so the
    h PSD, e = 0 support has a two-dimensional family; kind 2: a planted
    mixed-support witness at a random angle.
    """
    n = 3 if kind == 1 else int(rng.integers(2, 4))
    D = [rng.standard_normal((2, 2)) for _ in range(n)]
    D = [M + M.T for M in D]
    F = rng.standard_normal((n, n))
    F = F + F.T
    if kind == 1:
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        F = (w @ F @ w) * np.outer(w, w)
    if kind == 2:
        theta = rng.uniform(0.0, math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        v = np.array([-u[1], u[0]])
        D[0] = np.outer(u, u)
        col = np.array([np.sum(M * np.outer(v, v)) for M in D])
        F[:, 0] = col
        F[0, :] = col
    pd = make_problem([0.0] * n, F, SymMat.zeros(2), [SymMat(M) for M in D])
    return build_system(pd, kkt_point(pd, np.zeros(n), SymMat.zeros(2)))


def _angle_grid_oracle(sysm, angles):
    """Any re-verified witness of the four supports in frames pi i / angles."""
    H, E = entry_rows(sysm)
    common = list(common_rows(sysm, H, E))
    for i in range(angles):
        c, s = math.cos(math.pi * i / angles), math.sin(math.pi * i / angles)
        h, e = rotated_beta_rows(sysm, H, E, np.array([[c, -s], [s, c]]))
        for mask in range(4):
            eqs = common + [h[(0, 1)], e[(0, 1)]]
            ineqs = []
            for j in range(2):
                if (mask >> j) & 1:
                    eqs.append(e[(j, j)])
                    ineqs.append(h[(j, j)])
                else:
                    eqs.append(h[(j, j)])
                    ineqs.append(-e[(j, j)])
            z = nontrivial_in_span(null_space(np.stack(eqs)), sysm.n, ineqs)
            if z is not None:
                nx = np.linalg.norm(z[: sysm.n])
                if witness_residual(sysm, z[: sysm.n] / nx, sym_mat(z[sysm.n :] / nx, sysm.p)) <= 1e-7:
                    return True
    return False


def test_classify_two_block_agrees_with_angle_grid_oracle():
    rng = np.random.default_rng(2)
    counts = {"oracle": 0, CRITICAL: 0, NONCRITICAL: 0}
    for trial in range(30):
        kind = trial % 3
        sysm = _two_block_problem(rng, kind)
        v = classify_multiplier(sysm)
        assert v.certificate.startswith("exact: 2x2 beta block"), (trial, v)
        counts[v.tag] += 1
        if v.tag == CRITICAL:
            assert witness_residual(sysm, *v.witness) <= 1e-7, trial
        if kind == 2:
            assert v.tag == CRITICAL, (trial, v)
        if _angle_grid_oracle(sysm, 240):
            counts["oracle"] += 1
            assert v.tag == CRITICAL, (trial, v)
    assert counts["oracle"] >= 3 and counts[NONCRITICAL] >= 5, counts


def test_classify_beta3_and_determinism():
    pd = make_problem(
        [0.0, 0.0],
        [[0.0, 1.0], [1.0, 0.0]],
        SymMat.zeros(3),
        [
            SymMat.diag([1.0, 0.0, 0.0]),
            SymMat([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        ],
    )
    sysm = build_system(pd, kkt_point(pd, [0.0, 0.0], SymMat.zeros(3)))
    v = classify_multiplier(sysm)
    assert v.tag == CRITICAL and v.residual <= 1e-7
    v2 = classify_multiplier(sysm)
    assert v2.certificate == v.certificate
    assert np.array_equal(v2.witness[0], v.witness[0])


def planted_critical_pair(rng, q):
    """A pair with a planted witness (xi0, e0) and a non-commuting beta
    block of order q.

    x = 0, G(0) = 0 of order q, Y = 0 and f_lin = 0, so every index is
    in beta. h0 = U diag(a) U^T and e0 = -U diag(b) U^T with
    complementary supports, U random orthogonal or the eigenvectors of
    D_2; D_1 makes G'(0) xi0 = h0 and f_quad maps xi0 to
    v = -(<D_k, e0>)_k, which closes the adjoint equation.
    """
    n = int(rng.integers(3, 6))
    xi0 = rng.standard_normal(n)
    xi0 /= np.linalg.norm(xi0)
    D = [None] + [M + M.T for M in rng.standard_normal((n - 1, q, q))]
    U = np.linalg.qr(rng.standard_normal((q, q)))[0] if rng.integers(2) else np.linalg.eigh(D[1])[1]
    r1 = int(rng.integers(0, q + 1))
    r2 = int(rng.integers(0, q - r1 + 1))
    a = np.concatenate([rng.uniform(0.5, 2.0, r1), np.zeros(q - r1)])
    b = np.concatenate([np.zeros(r1), rng.uniform(0.5, 2.0, r2), np.zeros(q - r1 - r2)])
    h0, e0 = (U * a) @ U.T, -(U * b) @ U.T
    D[0] = (h0 - sum(xi0[k] * D[k] for k in range(1, n))) / xi0[0]
    v = -np.array([np.sum(Dk * e0) for Dk in D])
    P = np.eye(n) - np.outer(xi0, xi0)
    R = rng.standard_normal((n, n))
    fq = np.outer(v, xi0) + np.outer(xi0, v) - (xi0 @ v) * np.outer(xi0, xi0) + P @ (R + R.T) @ P
    pd = make_problem(np.zeros(n), fq, SymMat.zeros(q), [SymMat(Dk) for Dk in D])
    return context(pd, np.zeros(n), SymMat.zeros(q)), xi0, SymMat(e0)


def test_classify_planted_critical_pairs():
    # a planted witness rules out Noncritical; every Critical found is
    # re-verified, and both witness tiers of the |beta| >= 3 path fire
    rng = np.random.default_rng(21)
    tiers = {"pure support": 0, "frame": 0, UNDETERMINED: 0}
    for trial in range(48):
        q = 3 + trial % 2
        sysm, xi0, e0 = planted_critical_pair(rng, q)
        assert sysm.ctx.decomp.beta.size == q and witness_residual(sysm, xi0, e0) <= 1e-9
        v = classify_multiplier(sysm)
        assert v.tag != NONCRITICAL, (trial, v.certificate)
        if v.tag == CRITICAL:
            assert witness_residual(sysm, *v.witness) <= 1e-7 and v.residual <= 1e-7
            tiers["pure support" if "pure support" in v.certificate else "frame"] += 1
        else:
            tiers[UNDETERMINED] += 1
            assert v.certificate.startswith(f"semi-decision: beta block of order {q}") and v.witness is None
    assert tiers["pure support"] >= 10 and tiers["frame"] >= 5, tiers


def test_classify_coupled_probe_bounds():
    # the 60 coupled pairs of ROADMAP item 2: at most 20 stay Undetermined,
    # and each Noncritical carries an S-procedure bound above TOL_POS that
    # the bound recomputed from the pair reproduces
    rng = np.random.default_rng(0)
    tags = {CRITICAL: 0, NONCRITICAL: 0, UNDETERMINED: 0}
    for _ in range(60):
        pd, x, Y = coupled_block_pair(rng, int(rng.integers(6, 8)), 3)
        sysm = context(pd, x, Y)
        v = classify_multiplier(sysm)
        tags[v.tag] += 1
        if v.tag == NONCRITICAL:
            printed, form = re.search(r"S-procedure bound (\S+) > 0 of (-?Q) ", v.certificate).groups()
            Qh, blocks = sysm.second_order
            bound, _ = _supergradient_bound(-Qh if form == "-Q" else Qh, blocks)
            assert bound > TOL_POS and f"{bound:.6e}" == printed
    assert tags[UNDETERMINED] <= 20, tags


def test_classifier_and_soscy_share_one_ascent_of_q(monkeypatch):
    # coupled pairs of order 3 reach both the classifier's bound tier and
    # the S-procedure tier of check_soscy; the ascent of +Q runs once per
    # context, so a pair runs it at most twice (+Q and -Q), one run fewer
    # than when check_soscy ran its own ascent of +Q
    ascent = criticality._supergradient_bound
    runs = []

    def counted(*args):
        runs.append(args)
        return ascent(*args)

    monkeypatch.setattr(criticality, "_supergradient_bound", counted)
    rng = np.random.default_rng(0)
    reached = 0
    for _ in range(8):
        sysm = context(*coupled_block_pair(rng, int(rng.integers(6, 8)), 3))
        classify_multiplier(sysm)
        in_classifier = len(runs)
        report = check_soscy(sysm)
        total = len(runs)
        # the unshared pipeline: the classifier's runs and one for check_soscy
        unshared = in_classifier + (report.search_stats["path"] == "S-procedure")
        assert total <= 2
        if in_classifier:
            reached += 1
            assert total == unshared - 1, (in_classifier, total)
        bound, cands = sysm.s_procedure
        fresh_bound, fresh_cands = ascent(*sysm.second_order)
        assert bound == fresh_bound and len(cands) == len(fresh_cands)
        assert all(np.array_equal(c, f) for c, f in zip(cands, fresh_cands))
        runs.clear()
    assert reached >= 6


@pytest.fixture(scope="module")
def planted_block_verdicts():
    """(context, classifier verdict, SOSC report) of 400 planted_block_pairs
    per seed 0, 1 and 2."""
    out = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for _ in range(400):
            pd, x, Y, xi0, eta0 = planted_block_pair(rng)
            sysm = context(pd, x, Y)
            assert witness_residual(sysm, xi0, eta0) <= 1e-9
            out.append((sysm, classify_multiplier(sysm), check_soscy(sysm)))
    return out


def test_planted_block_pairs_are_never_noncritical_and_never_hold_sosc(planted_block_verdicts):
    for sysm, v, report in planted_block_verdicts:
        assert v.tag != NONCRITICAL, v.certificate
        assert report.verdict != SOSCY_HOLDS, report.search_stats


def test_planted_block_witnesses_have_a_zero_form_with_nonzero_curvature(planted_block_verdicts):
    # FINDINGS.md: xi^T hessL xi = sigma(xi) at every witness, so the
    # second-order form vanishes on it while its curvature term does not
    checked = 0
    for sysm, v, _ in planted_block_verdicts:
        if v.tag != CRITICAL:
            continue
        xi = v.witness[0]
        form = evaluate_second_order_form(sysm.pd, sysm.kkt.x, sysm.kkt.Y, xi)
        curvature = sigma_term(sysm.ctx, SymMat(np.tensordot(xi, sysm.Ds, 1)))
        assert abs(form) <= 1e-9 and abs(curvature) >= 1e-6, (form, curvature)
        checked += 1
    assert checked >= 1000


def test_pure_supports_quotient_out_their_xi_zero_directions(planted_block_verdicts):
    # before the pure supports of a block of order >= 3 were solved on the
    # quotient by their xi = 0 directions, 387 of these pairs ended
    # Undetermined (nearly all naming a pure support whose solution had
    # xi = 0); the quotient must remove at least 80 % of them
    before = 387
    large = [v for sysm, v, _ in planted_block_verdicts if sysm.ctx.decomp.beta.size >= 3]
    after = sum(v.tag == UNDETERMINED for v in large)
    print(f"|beta| >= 3 Undetermined on {len(large)} planted pairs: {before} before, {after} now")
    assert after <= 0.2 * before


def test_classify_multiplier_takes_no_options():
    pd, x, Y = coupled_block_pair(np.random.default_rng(0), 6, 3)
    sysm = context(pd, x, Y)
    for option in ("samples", "seed"):
        with pytest.raises(TypeError, match=option):
            classify_multiplier(sysm, **{option: 1})


def test_classify_unverifiable_witness_is_undetermined():
    # nearly rank-one Jacobian (eigenvalues -1.21 and 1.2e-5): the support
    # LP accepts a xi about 1e-6 the size of its eta, and no eta repairs
    # the normalized witness; this used to raise NumericError
    J = SymMat(
        [[-0.8619863704042148, 0.5498779740333893], [0.5498779740333893, -0.35076154978635793]]
    )
    pd = make_problem([0.0], [[-9.073675883084164]], SymMat.zeros(2), [J])
    v = classify_multiplier(build_system(pd, kkt_point(pd, [0.0], SymMat.zeros(2))))
    assert v.tag == UNDETERMINED and v.witness is None
    assert v.certificate == (
        "semi-decision: common-eigenframe enumeration over 2^2 supports, witness re-verification failed"
    )


def test_classify_undecided_support_lp_is_undetermined():
    # nearly rank-one Jacobian: the phase-1 simplex of the support LP meets
    # a column it cannot pivot on; this used to raise NumericError
    J = SymMat(
        [[0.1918335591520085, 0.09061665335719286], [0.09061665335719286, 0.04280465503210568]]
    )
    pd = make_problem([0.0], [[-5.852713175501513]], SymMat.zeros(2), [J])
    v = classify_multiplier(build_system(pd, kkt_point(pd, [0.0], SymMat.zeros(2))))
    assert v.tag == UNDETERMINED and v.witness is None
    assert v.certificate == (
        "semi-decision: common-eigenframe enumeration over 2^2 supports, support LP numerically undecided"
    )


def test_classify_large_block_with_trivial_critical_cone():
    # the objective scaled by 1e6 leaves the linear rows a nonzero solution
    # at their rank tolerance while the critical cone is {0}: a witness lies
    # in that cone, so the block of order 3 is noncritical; the bound tier
    # used to raise IndexError on the empty cone basis
    rng = np.random.default_rng(11)
    pd, x, Y = coupled_block_pair(rng, int(rng.integers(3, 8)), 3)
    v = classify_multiplier(context(pd, x, Y))
    assert (v.tag, v.certificate) == (NONCRITICAL, "exact: linear rows alone force xi = 0")
    pd6 = make_problem(1e6 * pd.f_lin, 1e6 * pd.f_quad, pd.G_const, pd.G_lin, pd.G_quad)
    sys6 = context(pd6, x, SymMat(1e6 * Y.full()))
    assert sys6.ctx.decomp.beta.size == 3 and sys6.cone_null.shape[1] == 0
    assert check_soscy(sys6).search_stats["path"] == "trivial cone"
    v6 = classify_multiplier(sys6)
    assert (v6.tag, v6.witness) == (NONCRITICAL, None)
    assert v6.certificate == "exact: beta block of order 3, critical cone is {0}, which holds no witness"


def test_xpart_condition(scalar_system, fam3):
    _, sys1 = scalar_system
    sys3 = build_system(fam3.problem, kkt_point(fam3.problem, fam3.xbar, fam3.ybar))
    assert xpart_condition(sys3)["holds"] is True
    xp1 = xpart_condition(sys1)
    assert xp1["holds"] is False
    assert abs(abs(xp1["witness"][0]) - 1.0) <= 1e-12
    pd_lf = make_problem([0.0], [[1.0]], SymMat.zeros(2), [SymMat.zeros(2)])
    sys_lf = build_system(pd_lf, kkt_point(pd_lf, [0.0], SymMat.zeros(2)))
    assert xpart_condition(sys_lf)["holds"] is True


def test_check_rcq(fam2):
    assert check_rcq(fam2.problem, fam2.xbar) is True
    pd_flat = make_problem([0.0], [[1.0]], SymMat.diag([1.0, 0.0, 0.0]), [SymMat.zeros(3)])
    assert check_rcq(pd_flat, [0.0]) is False
    pd1 = make_problem([0.0], [[0.0]], SymMat.zeros(1), [SymMat.eye(1)])
    assert check_rcq(pd1, [0.0]) is True
    with pytest.raises(InputDataError):
        check_rcq(pd_flat, [float("nan")])
    pd_infeas = make_problem([0.0], [[1.0]], SymMat.diag([-1.0]), [SymMat.zeros(1)])
    with pytest.raises(InputDataError):
        check_rcq(pd_infeas, [0.0])


def test_check_srcq(fam2, fam3):
    assert check_srcq(fam2.problem, fam2.xbar, fam2.ybar) is False
    assert check_srcq(fam3.problem, fam3.xbar, fam3.ybar) is False
    pd_s = make_problem([1.0], [[0.0]], SymMat.zeros(1), [SymMat.eye(1)])
    assert check_srcq(pd_s, [0.0], SymMat.diag([-1.0])) is True


def test_diagonal_reduction_detection(fam2, fam3):
    assert diagonal_reduction(fam2.problem) is not None
    assert diagonal_reduction(fam3.problem) is not None
    pd_off = make_problem(
        [0.0], [[0.0]], SymMat([[0.0, 1.0], [1.0, 0.0]]), [SymMat.zeros(2)]
    )
    assert diagonal_reduction(pd_off) is None


def test_classify_nlp_fixtures(fam2, fam3):
    pd1 = make_problem([0.0], [[0.0]], SymMat.zeros(1), [SymMat.eye(1)])
    v1 = classify_nlp(diagonal_reduction(pd1), [0.0], [0.0])
    assert v1.tag == CRITICAL and abs(abs(v1.witness[0][0]) - 1.0) <= 1e-12
    assert classify_nlp(diagonal_reduction(fam2.problem), fam2.xbar, [-1.0, 0.0]).tag == NONCRITICAL
    assert classify_nlp(diagonal_reduction(fam3.problem), fam3.xbar, [0.0, 0.0]).tag == NONCRITICAL
    with pytest.raises(InputDataError):
        classify_nlp(diagonal_reduction(fam2.problem), fam2.xbar, [1.0, 0.0])
    with pytest.raises(InputDataError):
        classify_nlp(diagonal_reduction(fam2.problem), [1.0, 1.0], [-1.0, 0.0])


def test_diagonal_oracle_agreement():
    rng = np.random.default_rng(7)
    tags = {CRITICAL: 0, NONCRITICAL: 0}
    for trial in range(60):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 5))
        pd, xbar, Y, mu = sample_diag_problem(rng, n, p)
        kkt = kkt_point(pd, xbar, Y)
        assert kkt.certified, (trial, kkt.residuals)
        v_sdp = classify_multiplier(build_system(pd, kkt))
        v_nlp = classify_nlp(diagonal_reduction(pd), xbar, mu)
        assert v_sdp.tag == v_nlp.tag, (trial, v_sdp, v_nlp)
        tags[v_sdp.tag] += 1
        if v_sdp.tag == CRITICAL:
            assert v_sdp.residual <= 1e-7
            assert abs(np.linalg.norm(v_sdp.witness[0]) - 1.0) <= 1e-9
    assert min(tags.values()) > 0, tags


def test_classification_scale_invariance():
    rng = np.random.default_rng(77)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        pd, xbar, Y, _ = sample_diag_problem(rng, n, p)
        c = float(rng.uniform(0.2, 5.0))
        pd_s = make_problem(
            c * pd.f_lin,
            c * pd.f_quad,
            pd.G_const,
            pd.G_lin,
            pd.G_quad,
        )
        v_a = classify_multiplier(build_system(pd, kkt_point(pd, xbar, Y)))
        v_b = classify_multiplier(build_system(pd_s, kkt_point(pd_s, xbar, c * Y)))
        assert v_a.tag == v_b.tag, (trial, v_a.tag, v_b.tag)


def test_rotation_keeps_cone_sosc_and_tag():
    # a zero critical-cone row of a diagonal pair turns into rotation
    # round-off in a random orthogonal frame; read as rank, it would
    # collapse the cone to {0} and make the second-order condition hold
    # trivially. Both frames must agree.
    rng = np.random.default_rng(0)

    def rot(M, Q):
        return SymMat(Q @ as_symmat(M).full() @ Q.T)

    collapsible = 0
    for trial in range(100):
        n = int(rng.integers(1, 3))
        p = int(rng.integers(2, 6))
        pd, xbar, Y, _ = sample_diag_problem(rng, n, p)
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        pd_r = make_problem(
            pd.f_lin,
            pd.f_quad,
            rot(pd.G_const, Q),
            [rot(A, Q) for A in pd.G_lin],
            [[rot(B, Q) for B in row] for row in pd.G_quad],
        )
        answers = []
        for sysm in (context(pd, xbar, Y), context(pd_r, xbar, rot(Y, Q))):
            answers.append(
                (
                    sysm.cone_null.shape[1],
                    check_soscy(sysm).verdict,
                    classify_multiplier(sysm).tag,
                    xpart_condition(sysm)["holds"],
                )
            )
        assert answers[0] == answers[1], (trial, answers)
        base = context(pd, xbar, Y)
        collapsible += bool(base.cone_rows.size) and not np.any(base.cone_rows)
    # the draws do exercise the zero-row case
    assert collapsible >= 3


def test_noncritical_claims_survive_sampling():
    # on small noncritical cases, random directions in the linear-rows null
    # space never certify a witness
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(20):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        pd, xbar, Y, _ = sample_diag_problem(rng, n, p)
        sysm = build_system(pd, kkt_point(pd, xbar, Y))
        if sysm.ctx.decomp.beta.size > 1:
            continue
        if classify_multiplier(sysm).tag != NONCRITICAL:
            continue
        Z = null_space(common_rows(sysm, *entry_rows(sysm)))
        for _ in range(800):
            if Z.shape[1] == 0:
                break
            z = Z @ rng.standard_normal(Z.shape[1])
            nx = np.linalg.norm(z[: sysm.n])
            if nx <= 1e-9:
                continue
            z = z / nx
            assert witness_residual(sysm, z[: sysm.n], sym_mat(z[sysm.n :], sysm.p)) > 1e-7
        checked += 1
    assert checked > 0


def _outcome(check, *args):
    try:
        return check(*args)
    except NumericError as exc:
        return str(exc)


def _witness_residual_by_symmats(sysm, xi, eta):
    """witness_residual as SymMat arithmetic, one Jacobian at a time."""
    jac = [SymMat(Dk) for Dk in sysm.Ds]
    adj = sysm.hessL @ xi + np.array([Dk.inner(eta) for Dk in jac])
    H = SymMat(sum((xi[k] * jac[k].full() for k in range(sysm.n)), np.zeros((sysm.p, sysm.p))))
    fixed = H - dir_deriv_from_decomp(sysm.ctx.decomp, H + eta)
    return math.hypot(float(np.linalg.norm(adj)), fixed.norm())


@pytest.mark.parametrize("kind", ["diagonal", "rotated", "coupled"])
def test_analysis_context_matches_the_per_step_path_bit_for_bit(kind):
    # analysis_context evaluates G(x), the Jacobian stack and the split of
    # G(x) + Y once; everything it derives from them equals what
    # kkt_point, build_system, check_rcq, check_srcq and the SymMat form
    # of witness_residual compute one step at a time
    rng = np.random.default_rng({"diagonal": 61, "rotated": 62, "coupled": 63}[kind])
    same = lambda a, b: a.shape == b.shape and np.array_equal(a, b)  # noqa: E731
    for _ in range(30):
        n, p = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        pd, x, Y = planted_pair(rng, kind, n, p)
        kkt = kkt_point(pd, x, Y)
        sysm = analysis_context(pd, x, Y)
        ref = build_system(pd, kkt)
        assert kkt.certified
        kern = ProblemKernels(pd)
        assert same(sysm.ctx.X.full(), project_psd(SymMat(kern.G(x)) + Y).full())
        d = sysm.ctx.decomp
        rotated = np.array([d.rotate(Dk) for Dk in kern.jacobians(x).reshape(n, p, p)]).reshape(n, p, p)
        assert same(sysm.Dt, rotated)
        for field in ("hessL", "Ds", "Dt", "cone_rows", "cone_null"):
            assert same(getattr(sysm, field), getattr(ref, field)), field
        assert same(sysm.G.full(), ref.G.full()) and same(d.P, ref.ctx.decomp.P)
        assert _outcome(rcq_holds, sysm.G, sysm.Ds) == _outcome(check_rcq, pd, x)
        assert _outcome(srcq_holds, d, sysm.Dt) == _outcome(check_srcq, pd, x, Y)
        for _ in range(5):
            xi = rng.standard_normal(n)
            eta = SymMat(rng.standard_normal((p, p)))
            assert witness_residual(sysm, xi, eta) == _witness_residual_by_symmats(sysm, xi, eta)


def test_kkt_point_residuals_match_the_projection_formula_bit_for_bit():
    # the residuals kkt_point reads from its split of G(x) + Y equal the
    # formula on the PSD projection of G(x) + Y, at planted certified pairs
    # and at random pairs of the same problems
    rng = np.random.default_rng(64)
    for k in range(120):
        n, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        pd, x, Y = planted_pair(rng, ("diagonal", "rotated", "coupled")[k % 3], n, p)
        if k % 2:
            x, Y = rng.standard_normal(n), SymMat(rng.standard_normal((p, p)))
        kern = ProblemKernels(pd)
        G, D = SymMat(kern.G(x)), kern.jacobians(x)
        r1 = float(np.linalg.norm(eval_grad_f(pd, x) + D.reshape(n, p * p) @ Y.full().ravel()))
        assert kkt_point(pd, x, Y).residuals == (r1, (G - project_psd(G + Y)).norm())


def test_build_system_rejects_a_point_of_another_problem(fam2):
    twin = make_problem(fam2.problem.f_lin, fam2.problem.f_quad, fam2.problem.G_const, fam2.problem.G_lin)
    kkt = kkt_point(fam2.problem, fam2.xbar, fam2.ybar)
    with pytest.raises(InputDataError, match="different problem"):
        build_system(twin, kkt)
    assert build_system(fam2.problem, kkt).kkt is kkt


def test_build_system_at_a_given_tolerance_resplits_the_pair():
    # G(0) + Y = diag(2, 1e-7, -1e-7): a tolerance above 1e-7 moves the two
    # small eigenvalues to beta, so build_system re-splits G(x) + Y there,
    # as a fresh split and analysis_context at that tolerance do
    G_lin = [SymMat.diag([1.0, 0.0, 0.0]), SymMat.diag([0.0, 1.0, 0.0])]
    pd = make_problem([0.0, 0.0], np.eye(2), SymMat.diag([2.0, 1e-7, 0.0]), G_lin)
    x, Y = [0.0, 0.0], SymMat.diag([0.0, 0.0, -1e-7])
    kkt = kkt_point(pd, x, Y)
    assert kkt.certified and kkt.split.decomp.beta.size == 0
    for tol in (1e-6, 1e-3):
        sysm, ref = build_system(pd, kkt, tol), analysis_context(pd, x, Y, tol)
        Gx = SymMat(ProblemKernels(pd).G(np.asarray(x)))
        d, fresh = sysm.ctx.decomp, cone_context_from_matrix(Gx + Y, tol).decomp
        assert d.beta.size == 2 and d.tol_zero == tol
        assert np.array_equal(d.P, fresh.P) and np.array_equal(d.beta, fresh.beta)
        for field in ("hessL", "Ds", "Dt", "cone_rows", "cone_null"):
            assert np.array_equal(getattr(sysm, field), getattr(ref, field)), field
        for a, b in ((sysm.G, ref.G), (sysm.ctx.X, ref.ctx.X), (sysm.ctx.Y, ref.ctx.Y)):
            assert np.array_equal(a.full(), b.full())
        for name in ("P", "lam", "alpha", "beta", "gamma", "sigma"):
            assert np.array_equal(getattr(d, name), getattr(ref.ctx.decomp, name)), name


@pytest.mark.parametrize("order", [1, 3])
def test_every_pair_path_rejects_a_multiplier_of_the_wrong_order(fam2, order):
    pd, x, Y = fam2.problem, fam2.xbar, SymMat.eye(order)
    message = f"Y has order {order}, expected 2"
    for call in (kkt_point, analysis_context, check_srcq):
        with pytest.raises(InputDataError, match=message):
            call(pd, x, Y)


@pytest.mark.parametrize(
    "xi, eta, message",
    [
        ([1.0, 0.0, 0.0], SymMat.zeros(2), "xi has length 3, expected 2"),
        ([1.0], SymMat.zeros(2), "xi has length 1, expected 2"),
        ([1.0, 0.0], SymMat.zeros(3), "eta has order 3, expected 2"),
        ([1.0, 0.0], SymMat.zeros(1), "eta has order 1, expected 2"),
    ],
    ids=["xi-long", "xi-short", "eta-order-3", "eta-order-1"],
)
def test_witness_residual_rejects_misshapen_directions(fam2, xi, eta, message):
    sysm = build_system(fam2.problem, kkt_point(fam2.problem, fam2.xbar, fam2.ybar))
    with pytest.raises(InputDataError, match=message):
        witness_residual(sysm, xi, eta)


def test_analysis_context_certifies_before_the_complementarity_check():
    pd = make_problem([0.0], [[0.0]], SymMat.zeros(1), [SymMat.eye(1)])
    # neither stationary nor complementary: the certification error comes first
    with pytest.raises(InputDataError, match="exceed certification tolerance"):
        analysis_context(pd, [1.0], SymMat.diag([5.0]))
    sysm = analysis_context(pd, [0.0], SymMat.zeros(1))
    assert sysm.kkt.residuals == (0.0, 0.0) and not sysm.kkt.x.flags.writeable


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_tolerances_must_be_finite_and_nonnegative(fam2, tol):
    # a nan or infinite tol_zero put every eigenvalue in beta, and a nan
    # tol_feas passed the feasibility check at an infeasible point
    M = SymMat.diag([2.0, -4.0])
    for call in (
        lambda: spectral_decompose(M, tol),
        lambda: pseudoinverse(M, tol),
        lambda: analysis_context(fam2.problem, fam2.xbar, fam2.ybar, tol),
    ):
        with pytest.raises(InputDataError, match="tol_zero must be nonnegative and finite"):
            call()
    with pytest.raises(InputDataError, match="tol_feas must be nonnegative and finite"):
        check_rcq(fam2.problem, [-1.0, 0.0], tol_feas=tol)


def _benchmark_corpus():
    """The benchmark's seeded pair generators (perfbench/corpus.py)."""
    spec = importlib.util.spec_from_file_location("benchmark_corpus", os.path.join(ROOT, "perfbench", "corpus.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exactness_pairs():
    corpus, rng = _benchmark_corpus(), np.random.default_rng(31)
    for i in range(40):
        prob, point, _ = corpus.diag_pair(rng, 1 + i % 4, 1 + (i // 4) % 4, pd_quad=i % 2 == 0)
        yield problem_from_dict(prob), point["x"], point["Y"]
    for i in range(40):
        prob, point, *_ = corpus.rotated_pair(rng, 1 + i % 4, 2 + (i // 4) % 3)
        yield problem_from_dict(prob), point["x"], point["Y"]
    for i in range(12):
        yield coupled_block_pair(rng, 4 + i % 3, 3)


def test_supports_solved_on_n_span_the_stacked_null_space(monkeypatch):
    # every support the classifier tries is solved on N, the null space of
    # the common rows, cut by the support rows; that span must be the null
    # space of the common rows stacked with the support rows
    tried = []
    on_null = criticality._on_null

    def recording(N, cut, rows):
        Z = on_null(N, cut, rows)
        tried.append((rows, Z))
        return Z

    monkeypatch.setattr(criticality, "_on_null", recording)
    supports = 0
    for pd, x, Y in _exactness_pairs():
        sysm = analysis_context(pd, x, Y)
        common = common_rows(sysm, *entry_rows(sysm))
        tried.clear()
        classify_multiplier(sysm)
        for rows, Z in tried:
            S = null_space(np.vstack([common, rows]))
            assert Z.shape == S.shape
            assert np.abs(Z @ Z.T - S @ S.T).max() <= 1e-9
        supports += len(tried)
    assert supports >= 200


def test_classifier_takes_one_full_width_null_space(monkeypatch):
    # a Noncritical pair with a commuting beta block of order 2: its four
    # supports are solved on the null space of the common rows, so the only
    # null space of width n + p(p + 1)/2 is that one
    with open(os.path.join(ROOT, "tests", "golden", "pair_ref_rotated.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    pd = problem_from_dict(doc["problem"])
    sysm = analysis_context(pd, np.asarray(doc["point"]["x"]), np.asarray(doc["point"]["Y"]))
    assert sysm.ctx.decomp.beta.size == 2
    widths = []

    def counting(A, *args, **kwargs):
        widths.append(np.atleast_2d(np.asarray(A)).shape[1])
        return null_space(A, *args, **kwargs)

    for module in (criticality, lpkernel):
        monkeypatch.setattr(module, "null_space", counting)
    v = classify_multiplier(sysm)
    assert v.certificate == "exact: common-eigenframe data, all 2^2 complementarity supports exhausted"
    assert widths.count(sysm.n + sysm.p * (sysm.p + 1) // 2) == 1
