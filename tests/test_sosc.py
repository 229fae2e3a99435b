"""Second-order machinery: sigma term, sufficiency check, equivalences."""

import contextlib
import io
import json

import numpy as np
import pytest

from conftest import context, coupled_block_pair, planted_pair, random_symmetric, sample_diag_problem
from kkt_spectra import criticality, lpkernel, sosc
from kkt_spectra.cli import main
from kkt_spectra.cones import (
    cone_context,
    cone_context_from_matrix,
    critical_cone_nsd_membership,
    critical_cone_psd_membership,
    graph_tangent_membership,
    normal_membership,
    project_critical_cone,
    project_critical_cone_polar,
    tangent_membership,
)
from kkt_spectra.criticality import CRITICAL, TOL_POS, build_system, classify_multiplier
from kkt_spectra.errors import InputDataError, NumericError
from kkt_spectra.problem import ProblemKernels, builtin_family, kkt_point, make_problem, problem_to_dict
from kkt_spectra.sosc import (
    SOSCY_FAILS,
    SOSCY_HOLDS,
    UNDETERMINED,
    check_soscy,
    critical_cone_x_membership,
    evaluate_second_order_form,
    lemma4_check,
    multiplier_distance_estimate,
    sigma_term,
    theorem3_conditions,
)
from kkt_spectra.symmat import SymMat, as_symmat, project_psd, spectral_decompose, sym_mat, sym_vec


def test_sigma_term_fixtures():
    ctx = cone_context(SymMat.diag([2.0, 0.0]), SymMat.diag([0.0, -3.0]))
    v = sigma_term(ctx, SymMat([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(v - (-3.0)) <= 1e-12
    # zero multiplier: no curvature correction for any tangent direction
    ctx0 = cone_context(SymMat.diag([2.0, 1.0]), SymMat.zeros(2))
    rng = np.random.default_rng(11)
    for _ in range(5):
        assert sigma_term(ctx0, random_symmetric(rng, 2)) == 0.0
    ctx_x0 = cone_context(SymMat.zeros(2), SymMat.diag([-1.0, -2.0]))
    assert sigma_term(ctx_x0, SymMat.zeros(2)) == 0.0
    with pytest.raises(InputDataError):
        sigma_term(ctx, SymMat.diag([0.0, 1.0]))


def test_critical_cone_x_membership(fam2):
    pd = fam2.problem
    assert critical_cone_x_membership(pd, fam2.xbar, fam2.ybar, [0.0, 1.0])["member"]
    m = critical_cone_x_membership(pd, fam2.xbar, fam2.ybar, [1.0, 0.0])
    assert m["member"] is False and abs(m["violation"] - 1.0) <= 1e-9
    assert critical_cone_x_membership(pd, fam2.xbar, fam2.ybar, [0.0, 0.0])["member"]


def test_second_order_form_values(fam2, fam3):
    assert abs(evaluate_second_order_form(fam3.problem, fam3.xbar, fam3.ybar, [1.0, 0.0]) - 2.0) <= 1e-12
    assert abs(evaluate_second_order_form(fam2.problem, fam2.xbar, fam2.ybar, [0.0, 1.0]) - 2.0) <= 1e-12
    assert evaluate_second_order_form(fam2.problem, fam2.xbar, fam2.ybar, [0.0, 0.0]) == 0.0


def test_check_soscy_exact_tiers(fam2, fam3):
    r3 = check_soscy(context(fam3.problem, fam3.xbar, fam3.ybar))
    assert r3.verdict == SOSCY_HOLDS and abs(r3.min_value - 1.0) <= 1e-9
    assert r3.sonc_verdict == "holds"
    assert r3.search_stats["path"] == "exact subspace"

    r2 = check_soscy(context(fam2.problem, fam2.xbar, fam2.ybar))
    assert r2.verdict == SOSCY_HOLDS and abs(r2.min_value - 2.0) <= 1e-9
    assert r2.search_stats["path"] == "exact halfspace"
    assert np.allclose(np.abs(r2.minimizer), [0.0, 1.0])


def test_check_soscy_scalar_boundary_failure():
    pd = make_problem([0.0], [[0.0]], SymMat.zeros(1), [SymMat.eye(1)])
    r = check_soscy(context(pd, [0.0], SymMat.zeros(1)))
    assert r.verdict == SOSCY_FAILS and abs(r.min_value) <= 1e-12
    assert r.minimizer[0] > 0.0
    assert r.sonc_verdict == "holds"
    with pytest.raises(InputDataError):
        check_soscy(context(pd, [1.0], SymMat.diag([3.0])))


def test_check_soscy_s_procedure_tier():
    # indefinite form 4 d1 d2 with a boundary minimizer at a cone vertex
    pd = make_problem(
        [0.0, 0.0],
        [[0.0, 2.0], [2.0, 0.0]],
        SymMat.zeros(2),
        [SymMat.diag([1.0, 0.0]), SymMat([[0.0, 1.0], [1.0, 2.0]])],
    )
    r = check_soscy(context(pd, [0.0, 0.0], SymMat.zeros(2)))
    assert r.search_stats["path"] == "S-procedure"
    assert r.verdict == SOSCY_FAILS and r.min_value <= 1e-8
    assert r.search_stats["certified"] > 0

    pd_pd = make_problem(
        [0.0, 0.0],
        [[2.0, 0.0], [0.0, 2.0]],
        SymMat.zeros(2),
        [SymMat.diag([1.0, 0.0]), SymMat([[0.0, 1.0], [1.0, 2.0]])],
    )
    rp = check_soscy(context(pd_pd, [0.0, 0.0], SymMat.zeros(2)))
    assert rp.verdict == SOSCY_HOLDS and abs(rp.min_value - 2.0) <= 1e-6


def test_check_soscy_face_enumeration_zero_cone():
    # both diagonal entries degenerate with opposite Jacobian signs: the
    # critical cone {d : d >= 0, -d >= 0} is {0}, so sufficiency holds
    # vacuously even though the form itself is negative
    pd = make_problem([0.0], [[-2.0]], SymMat.zeros(2), [SymMat.diag([1.0, -1.0])])
    r = check_soscy(context(pd, [0.0], SymMat.zeros(2)))
    assert r.search_stats["path"] == "exact face enumeration"
    assert r.verdict == SOSCY_HOLDS and r.min_value == np.inf
    assert r.minimizer is None and r.sonc_verdict == "holds"


def cone_section_grid_minimum(pd, levels=3, points=20001):
    """Minimum of d^T f_quad d over unit d = (cos t, sin t) with G'd PSD.

    With G affine, G(xbar) = 0 and Y = 0 the critical cone is
    {d : sum_k d_k G_k PSD} and the second-order form is d^T f_quad d.
    The grid is refined around its best feasible angle at each level.
    """
    D1, D2 = pd.G_lin
    lo, hi = -np.pi, np.pi
    best_t = None
    for _ in range(levels):
        t = np.linspace(lo, hi, points)
        d = np.stack([np.cos(t), np.sin(t)], axis=1)
        M = d[:, 0, None, None] * D1 + d[:, 1, None, None] * D2
        feas = np.linalg.eigvalsh(M)[:, 0] >= -1e-12
        vals = np.where(feas, np.einsum("ti,ij,tj->t", d, pd.f_quad, d), np.inf)
        best_t = t[int(np.argmin(vals))]
        step = (hi - lo) / (points - 1)
        lo, hi = best_t - 2 * step, best_t + 2 * step
    return float(np.min(vals))


def test_check_soscy_face_enumeration_boundary_minimizer():
    # commuting but non-diagonal blocks: d1 I + d2 R diag(1, -1) R^T is
    # PSD exactly on the wedge |d2| <= d1, and the indefinite form dips
    # lowest on its edge d2 = -d1
    c, s = np.cos(0.3), np.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    pd = make_problem(
        [0.0, 0.0],
        [[1.0, 0.5], [0.5, -1.0]],
        SymMat.zeros(2),
        [SymMat(np.eye(2)), SymMat(R @ np.diag([1.0, -1.0]) @ R.T)],
    )
    r = check_soscy(context(pd, [0.0, 0.0], SymMat.zeros(2)))
    assert r.search_stats["path"] == "exact face enumeration"
    assert r.verdict == SOSCY_FAILS and r.sonc_verdict == "fails"
    assert abs(r.min_value - cone_section_grid_minimum(pd)) <= 1e-6
    assert critical_cone_x_membership(pd, [0.0, 0.0], SymMat.zeros(2), r.minimizer)["member"]
    form = evaluate_second_order_form(pd, [0.0, 0.0], SymMat.zeros(2), r.minimizer)
    assert abs(form - r.min_value) <= 1e-12


def test_s_procedure_exact_on_the_circle():
    # |beta| = 2 with dim C = 2: G = 0 and Y = 0, so the cone is the arc
    # of the plane where d1 G_1 + d2 G_2 is PSD and the form is f_quad;
    # random G_k do not commute, and some draws have the cone {0}
    rng = np.random.default_rng(3)
    for _ in range(16):
        G_lin = [random_symmetric(rng, 2), random_symmetric(rng, 2)]
        pd = make_problem([0.0, 0.0], random_symmetric(rng, 2).full(), SymMat.zeros(2), G_lin)
        r = check_soscy(context(pd, [0.0, 0.0], SymMat.zeros(2)))
        assert r.search_stats["path"] == "S-procedure"
        grid = cone_section_grid_minimum(pd)
        if np.isinf(grid):
            assert r.min_value == np.inf and r.verdict == SOSCY_HOLDS
        else:
            assert abs(r.min_value - grid) <= 1e-6


def test_s_procedure_verdicts_are_certified():
    rng = np.random.default_rng(5)
    seen = set()
    for trial in range(32):
        q = 2 + trial % 2
        pd, x, Y = coupled_block_pair(rng, int(rng.integers(q + 3, q + 5)), q)
        sys = context(pd, x, Y)
        r = check_soscy(sys)
        stats = r.search_stats
        assert stats["path"] == "S-procedure"
        seen.add((q, r.verdict))
        if r.verdict == SOSCY_HOLDS:
            assert stats["lower_bound"] > TOL_POS
        if r.minimizer is not None:
            assert critical_cone_x_membership(pd, x, Y, r.minimizer)["member"]
            form = evaluate_second_order_form(pd, x, Y, r.minimizer)
            assert abs(form - r.min_value) <= 1e-9 and r.min_value >= stats["lower_bound"] - 1e-9
        if r.verdict == SOSCY_FAILS:
            assert r.minimizer is not None and r.min_value <= TOL_POS
        if q == 2 and np.isfinite(r.min_value):
            # the S-lemma makes the bound the minimum
            scale = max(1.0, float(np.abs(sys.hessL).max()))
            assert abs(r.min_value - stats["lower_bound"]) <= 1e-9 * scale
    assert {(2, SOSCY_HOLDS), (2, SOSCY_FAILS), (3, SOSCY_HOLDS), (3, SOSCY_FAILS)} <= seen


def test_sonc_undetermined_without_a_witness():
    # the bound stays negative and no candidate restores into the cone,
    # so neither the sufficient nor the necessary condition is settled
    pd, x, Y = coupled_block_pair(np.random.default_rng(14), 7, 3)
    r = check_soscy(context(pd, x, Y))
    assert r.search_stats["path"] == "S-procedure"
    assert r.search_stats["lower_bound"] < -TOL_POS and r.search_stats["certified"] == 0
    assert r.verdict == UNDETERMINED and r.sonc_verdict == UNDETERMINED
    assert r.minimizer is None


def test_sufficiency_implies_noncritical_on_fixtures(fam2, fam3):
    pd_pd = make_problem(
        [0.0, 0.0],
        [[2.0, 0.0], [0.0, 2.0]],
        SymMat.zeros(2),
        [SymMat.diag([1.0, 0.0]), SymMat([[0.0, 1.0], [1.0, 2.0]])],
    )
    cases = (
        (fam3.problem, fam3.xbar, fam3.ybar),
        (fam2.problem, fam2.xbar, fam2.ybar),
        (pd_pd, [0.0, 0.0], SymMat.zeros(2)),
    )
    for pd, x, Y in cases:
        if check_soscy(context(pd, x, Y)).verdict == SOSCY_HOLDS:
            v = classify_multiplier(build_system(pd, kkt_point(pd, x, Y)))
            assert v.tag != CRITICAL


def test_lemma4_fixtures():
    C = SymMat.diag([2.0, -3.0])
    assert lemma4_check(C, SymMat.diag([1.0, 0.0]), SymMat.diag([0.0, 5.0])) == {
        "lhs": True,
        "rhs": True,
    }
    assert lemma4_check(C, SymMat.diag([0.0, 1.0]), SymMat.zeros(2)) == {
        "lhs": False,
        "rhs": False,
    }
    assert lemma4_check(C, SymMat.zeros(2), SymMat.zeros(2)) == {"lhs": True, "rhs": True}


@pytest.mark.parametrize("orders", [(2, 3, 2), (2, 2, 3), (3, 2, 2)])
def test_lemma4_rejects_mixed_orders(orders):
    # numpy's broadcast error used to escape for a mismatched pair
    with pytest.raises(InputDataError, match="matrix orders differ"):
        lemma4_check(*(SymMat.eye(p) for p in orders))


def constructed_lemma4_triple(rng, p):
    """A triple satisfying the equivalence's three conditions exactly."""
    C = random_symmetric(rng, p, 2.0)
    ctx = cone_context(project_psd(C), C - project_psd(C))
    dd = ctx.decomp
    At = rng.standard_normal((p, p))
    At = 0.5 * (At + At.T)
    for i in dd.gamma:
        At[i, :] = 0.0
        At[:, i] = 0.0
    if dd.beta.size:
        bb = At[np.ix_(dd.beta, dd.beta)]
        lam, V = np.linalg.eigh(bb)
        At[np.ix_(dd.beta, dd.beta)] = (V * np.maximum(lam, 0.0)) @ V.T
    for i in dd.alpha:
        for j in dd.gamma:
            At[i, j] = At[j, i] = rng.standard_normal()
    dA = SymMat(dd.P @ At @ dd.P.T)
    Ut = np.zeros((p, p))
    for i in dd.alpha:
        for j in dd.gamma:
            Ut[i, j] = Ut[j, i] = -(dd.lam[j] / dd.lam[i]) * At[i, j]
    Wt = rng.standard_normal((p, p))
    Wt = 0.5 * (Wt + Wt.T)
    for i in dd.alpha:
        Wt[i, :] = 0.0
        Wt[:, i] = 0.0
    if dd.beta.size:
        bb = At[np.ix_(dd.beta, dd.beta)]
        lam, V = np.linalg.eigh(bb)
        w = np.where(lam <= 1e-12, -np.abs(rng.standard_normal(lam.size)), 0.0)
        Wt[np.ix_(dd.beta, dd.beta)] = (V * w) @ V.T
    dB = SymMat(dd.P @ (Ut + Wt) @ dd.P.T)
    return C, dA, dB


def test_lemma4_equivalence_fuzz():
    rng = np.random.default_rng(11)
    true_cases = 0
    for trial in range(200):
        p = int(rng.integers(2, 5))
        if trial % 2 == 0:
            C, dA, dB = constructed_lemma4_triple(rng, p)
        else:
            C = random_symmetric(rng, p, 2.0)
            dA = random_symmetric(rng, p)
            dB = random_symmetric(rng, p)
        out = lemma4_check(C, dA, dB)
        assert out["lhs"] == out["rhs"], (trial, out)
        if out["lhs"]:
            true_cases += 1
    assert true_cases >= 50


def test_lemma4_rhs_matches_graph_tangent_blocks():
    # the same triples as acceptance criterion 10: both block tests agree
    rng = np.random.default_rng(11)
    for trial in range(500):
        p = int(rng.integers(2, 5))
        if trial % 2 == 0:
            C, dA, dB = constructed_lemma4_triple(rng, p)
        else:
            C = random_symmetric(rng, p, 2.0)
            dA = random_symmetric(rng, p)
            dB = random_symmetric(rng, p)
        blocks = graph_tangent_membership(cone_context_from_matrix(C), dA, dB).member_blocks
        assert lemma4_check(C, dA, dB)["rhs"] == blocks, trial


def test_sigma_quadratic_matches_sigma_term():
    # planted pairs with alpha and gamma both non-empty, so the curvature
    # term is not identically zero; d is drawn in the critical cone
    rng = np.random.default_rng(5)
    checks = nonzero = 0
    for trial in range(60):
        n, p = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        sys = context(*planted_pair(rng, ("diagonal", "rotated", "coupled")[trial % 3], n, p))
        if not (sys.ctx.decomp.alpha.size and sys.ctx.decomp.gamma.size):
            continue
        S = criticality._sigma_quadratic(sys)
        for _ in range(4):
            d = sys.cone_null @ rng.standard_normal(sys.cone_null.shape[1])
            H = sosc._pushed(sys.Ds, d)
            if not critical_cone_psd_membership(sys.ctx, H).member:
                continue
            s = sigma_term(sys.ctx, H)
            assert abs(d @ S @ d - s) <= 1e-12 * max(1.0, abs(s)), (trial, s)
            checks += 1
            nonzero += abs(s) > 1e-9
    assert checks >= 80 and nonzero >= 10


def test_theorem3_conditions(fam2, fam3):
    t3 = theorem3_conditions(context(fam3.problem, fam3.xbar, fam3.ybar))
    assert t3["cond_i"]["verdict"] == "holds"
    assert t3["cond_ii"]["verdict"] == "holds" and t3["cond_ii"]["evidence"].startswith("vacuous")

    t2 = theorem3_conditions(context(fam2.problem, fam2.xbar, fam2.ybar))
    assert t2["cond_i"]["verdict"] == "holds"
    assert t2["cond_ii"]["verdict"] == "holds" and t2["cond_ii"]["evidence"].startswith("identity")

    pd_nd = make_problem([0.0], [[1.0]], SymMat.diag([1.0]), [SymMat.eye(1)])
    t_nd = theorem3_conditions(context(pd_nd, [0.0], SymMat.zeros(1)))
    assert t_nd["cond_i"]["verdict"] == "holds" and "trivial" in t_nd["cond_i"]["evidence"]
    assert t_nd["cond_ii"]["verdict"] == "holds"

    pd_u = make_problem(
        [0.0, 0.0],
        [[0.0, 2.0], [2.0, 0.0]],
        SymMat.zeros(2),
        [SymMat.diag([1.0, 0.0]), SymMat([[0.0, 1.0], [1.0, 2.0]])],
    )
    t_u = theorem3_conditions(context(pd_u, [0.0, 0.0], SymMat.zeros(2)))
    assert t_u["cond_i"]["verdict"] in ("holds", "Undetermined")


def unit(p, i, j):
    """The symmetric p x p matrix with ones at (i, j) and (j, i)."""
    M = np.zeros((p, p))
    M[i, j] = M[j, i] = 1.0
    return M


def test_theorem3_closedness_kernel_tier():
    # all of a 2 x 2 block is beta and the Jacobian diag(1, -1) sends the
    # NSD matrix -I to 0: the Thm 9.1 test cannot conclude
    pd = make_problem([0.0], [[1.0]], SymMat.zeros(2), [SymMat.diag([1.0, -1.0])])
    t = theorem3_conditions(context(pd, [0.0], SymMat.zeros(2)))
    assert t["cond_i"] == {"verdict": UNDETERMINED, "evidence": "adjoint kernel meets a nonzero NSD beta block"}

    # with the Jacobian I the kernel is the traceless matrices, none NSD
    pd = make_problem([0.0], [[1.0]], SymMat.zeros(2), [SymMat.eye(2)])
    t = theorem3_conditions(context(pd, [0.0], SymMat.zeros(2)))
    assert t["cond_i"]["verdict"] == "holds" and "no nonzero NSD beta block" in t["cond_i"]["evidence"]

    # beta = {0, 1}, gamma = {2}: the Jacobians span the beta block, so the
    # kernel is the matrices with a zero beta block, a nonzero subspace
    Ds = [SymMat(unit(3, i, j)) for i, j in ((0, 0), (1, 1), (0, 1))]
    pd = make_problem(np.zeros(3), np.eye(3), SymMat.zeros(3), Ds)
    sys = context(pd, np.zeros(3), SymMat.diag([0.0, 0.0, -1.0]))
    assert sys.ctx.decomp.beta.size == 2
    t = theorem3_conditions(sys)
    assert t["cond_i"] == {"verdict": "holds", "evidence": "adjoint kernel has zero beta blocks (Rockafellar Thm 9.1)"}


@pytest.mark.parametrize("p", [2, 3])
def test_theorem3_injective_adjoint_has_an_empty_kernel(p):
    # G(0) = 0 and Y = 0, so all of the p x p block is beta, and the
    # Jacobians, seen in a random frame, span S^p: the adjoint is
    # injective, its kernel is {0}, and the general test says so
    Q, _ = np.linalg.qr(np.random.default_rng(p).standard_normal((p, p)))
    Ds = [SymMat(Q @ unit(p, i, j) @ Q.T) for i in range(p) for j in range(i, p)]
    pd = make_problem(np.zeros(len(Ds)), np.eye(len(Ds)), SymMat.zeros(p), Ds)
    sys = context(pd, np.zeros(len(Ds)), SymMat.zeros(p))
    assert sys.ctx.decomp.beta.size == p
    t = theorem3_conditions(sys)
    assert t["cond_i"] == {"verdict": "holds", "evidence": "adjoint kernel has zero beta blocks (Rockafellar Thm 9.1)"}


def kernel_tier_pair():
    """Pair with alpha = {0}, beta = {1, 2}, gamma = {3} on which both
    theorem-3 conditions reach subspace_psd_nontrivial, while SRCQ, the
    x-part condition and the classifier settle without it."""
    p = 4
    Ds = [unit(p, 1, 1) - unit(p, 0, 3), unit(p, 2, 2) - unit(p, 0, 3)]
    Ds += [unit(p, i, j) for i, j in ((1, 2), (1, 3), (2, 3), (3, 3))]
    Y = SymMat.diag([0.0, 0.0, 0.0, -1.0])
    flin = -np.array([np.sum(D * Y.full()) for D in Ds])
    pd = make_problem(flin, np.eye(len(Ds)), SymMat.diag([1.0, 0.0, 0.0, 0.0]), [SymMat(D) for D in Ds])
    return pd, np.zeros(len(Ds)), Y


def test_theorem3_survives_a_failing_psd_kernel(monkeypatch, tmp_path):
    pd, x, Y = kernel_tier_pair()
    sys = context(pd, x, Y)

    def undecided(*args, **kwargs):
        raise NumericError("planted failure")

    monkeypatch.setattr(lpkernel, "subspace_psd_nontrivial", undecided)
    monkeypatch.setattr(sosc, "subspace_psd_nontrivial", undecided)
    t3 = theorem3_conditions(sys)
    assert t3["cond_i"] == {"verdict": UNDETERMINED, "evidence": "adjoint kernel test undecided: planted failure"}
    assert t3["cond_ii"]["verdict"] == "holds"
    assert t3["cond_ii"]["evidence"].startswith("undecided: planted failure")

    ppath, xpath = tmp_path / "prob.json", tmp_path / "pt.json"
    ppath.write_text(json.dumps(problem_to_dict(pd)))
    xpath.write_text(json.dumps({"x": x.tolist(), "Y": Y.full().ravel().tolist()}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", "--problem", str(ppath), "--point", str(xpath), "--format", "json"])
    assert code == 0
    assert json.loads(out.getvalue())["local_bound_conditions"] == t3


def theorem3_sample_loop(sys, samples, seed):
    """Sampled orthogonality of projected pairs, one sample at a time.

    The check exact cond_ii replaced, kept as an independent oracle: it
    draws xi in the critical cone, solves hessL xi + G'(x)* eta = 0 for eta
    by least squares, and projects both onto the polar cone. Returns the
    number of samples that admit an eta and the largest |inner product|.
    """
    p = sys.p
    A = np.stack([sym_vec(Dk) for Dk in sys.Ds])
    Z = sys.cone_null
    rng = np.random.default_rng(seed + 1)
    accepted = 0
    max_violation = 0.0
    for _ in range(samples if Z.shape[1] else 0):
        xi = Z @ rng.standard_normal(Z.shape[1])
        xi /= np.linalg.norm(xi)
        H = SymMat((xi @ ProblemKernels(sys.pd).jacobians(sys.kkt.x)).reshape(p, p))
        if not critical_cone_psd_membership(sys.ctx, H).member:
            if critical_cone_psd_membership(sys.ctx, -H).member:
                xi, H = -xi, -H
            else:
                continue
        rhs = -(sys.hessL @ xi)
        eta_v, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        if np.linalg.norm(A @ eta_v - rhs) > 1e-9 * max(1.0, float(np.linalg.norm(rhs))):
            continue
        pk_h = project_critical_cone_polar(sys.ctx, H)
        pk_e = project_critical_cone_polar(sys.ctx, sym_mat(eta_v, p))
        max_violation = max(max_violation, abs(pk_h.inner(pk_e)))
        accepted += 1
    return accepted, max_violation


def rotated_context(pd, x, Y, Q):
    """Context of the pair seen in the orthogonal frame Q."""

    def rot(M):
        return SymMat(Q @ as_symmat(M).full() @ Q.T)

    rpd = make_problem(
        pd.f_lin, pd.f_quad, rot(pd.G_const), [rot(M) for M in pd.G_lin], [[rot(M) for M in row] for row in pd.G_quad]
    )
    return context(rpd, x, rot(Y))


def test_theorem3_orthogonality_identity_against_samples():
    # every sampled admissible pair is orthogonal after projection, and a
    # pair with one is reported as the identity, never as vacuous
    rng = np.random.default_rng(5)
    admissible = 0
    for trial in range(48):
        n, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        pd, x, Y, _ = sample_diag_problem(rng, n, p, pd_quad=bool(trial % 2))
        systems = [context(pd, x, Y)]
        if p > 1:
            systems.append(rotated_context(pd, x, Y, np.linalg.qr(rng.standard_normal((p, p)))[0]))
        for sys in systems:
            accepted, violation = theorem3_sample_loop(sys, 64, 42)
            if accepted:
                admissible += 1
                assert violation <= 1e-12
                assert theorem3_conditions(sys)["cond_ii"]["evidence"].startswith("identity")
    assert admissible >= 20


def test_multiplier_distance_estimate(fam2):
    tab = multiplier_distance_estimate(
        fam2.problem, fam2.xbar, [(fam2.ybar, np.zeros(2), SymMat.zeros(2))]
    )
    assert tab[0]["ratio"] == 0.0 and tab[0]["distance"] <= 1e-12


def test_multiplier_distance_estimate_evaluates_the_point_once(fam2, monkeypatch):
    # G(xbar), its Jacobian stack and the decomposition of G(xbar) do not
    # depend on a sample, so k samples cost one of each
    counts = {"G": 0, "jacobians": 0, "decompose": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ProblemKernels, "G", counted("G", ProblemKernels.G))
    monkeypatch.setattr(ProblemKernels, "jacobians", counted("jacobians", ProblemKernels.jacobians))
    monkeypatch.setattr(sosc, "spectral_decompose", counted("decompose", sosc.spectral_decompose))
    rng = np.random.default_rng(4)
    samples = [(random_symmetric(rng, 2), rng.standard_normal(2), random_symmetric(rng, 2)) for _ in range(5)]
    tab = multiplier_distance_estimate(fam2.problem, fam2.xbar, samples)
    assert len(tab) == 5
    assert counts == {"G": 1, "jacobians": 1, "decompose": 1}


@pytest.mark.parametrize(
    "sample",
    [
        (SymMat.zeros(3), np.zeros(2), SymMat.zeros(2)),  # Y of order 3 at p = 2
        (SymMat.zeros(2), np.array([1.0, 0.0, 0.0]), SymMat.zeros(2)),  # p1 of length 3 at n = 2
        (SymMat.zeros(2), np.zeros(2), SymMat.zeros(3)),  # p2 of order 3
    ],
    ids=["Y-order", "p1-length", "p2-order"],
)
def test_multiplier_distance_estimate_rejects_misshapen_samples(fam2, sample):
    with pytest.raises(InputDataError, match="sample 1"):
        multiplier_distance_estimate(fam2.problem, fam2.xbar, [(fam2.ybar, np.zeros(2), SymMat.zeros(2)), sample])


CONE_CTX = cone_context(SymMat.diag([2.0, 0.0]), SymMat.diag([0.0, -3.0]))
FAM2 = builtin_family("example2")


@pytest.mark.parametrize(
    "call",
    [
        lambda H, d: tangent_membership(CONE_CTX, H),
        lambda H, d: normal_membership(CONE_CTX, H),
        lambda H, d: critical_cone_psd_membership(CONE_CTX, H),
        lambda H, d: critical_cone_nsd_membership(CONE_CTX, H),
        lambda H, d: graph_tangent_membership(CONE_CTX, H, H),
        lambda H, d: project_critical_cone(CONE_CTX, H),
        lambda H, d: sigma_term(CONE_CTX, H),
        lambda H, d: critical_cone_x_membership(FAM2.problem, FAM2.xbar, FAM2.ybar, d),
        lambda H, d: evaluate_second_order_form(FAM2.problem, FAM2.xbar, FAM2.ybar, d),
    ],
    ids=["tangent", "normal", "critical-psd", "critical-nsd", "graph", "project", "sigma", "x-membership", "form"],
)
def test_wrong_size_directions_raise_input_data_error(call):
    # a direction of order 3 against a 2x2 split, or of length 3 at n = 2
    with pytest.raises(InputDataError, match="direction"):
        call(SymMat.eye(3), [1.0, 0.0, 0.0])


def grid_sigma_oracle(X, Y, H, coarse=61, fine=21):
    """Maximize <Y, W> over second-order feasible curvatures on a box grid.

    W parametrizes the curvature of a feasible arc x + tH + t^2 W / 2; the
    box radius comes from the closed form's natural scale. 2x2 only.
    """
    X, Y, H = X.full(), Y.full(), H.full()
    Xp = np.zeros_like(X)
    for i in range(2):
        if X[i, i] > 1e-12:
            Xp[i, i] = 1.0 / X[i, i]
    R = 4.0 * (1.0 + np.abs(H @ Xp @ H).max())
    ts = np.array([1e-2, 1e-3, 1e-4])

    def sweep(bounds, k):
        axes = [np.linspace(lo, hi, k) for lo, hi in bounds]
        A, B, C = np.meshgrid(*axes, indexing="ij")
        feas = np.ones(A.shape, dtype=bool)
        for t in ts:
            m11 = X[0, 0] + t * H[0, 0] + 0.5 * t * t * A
            m22 = X[1, 1] + t * H[1, 1] + 0.5 * t * t * B
            m12 = X[0, 1] + t * H[0, 1] + 0.5 * t * t * C
            lam_min = 0.5 * (m11 + m22) - np.sqrt(0.25 * (m11 - m22) ** 2 + m12**2)
            feas &= lam_min >= -1e-6 * t * t
        vals = np.where(feas, Y[0, 0] * A + Y[1, 1] * B + 2.0 * Y[0, 1] * C, -np.inf)
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        return vals[idx], (A[idx], B[idx], C[idx])

    best, w = sweep([(-R, R)] * 3, coarse)
    h = 2 * R / (coarse - 1)
    for _ in range(2):
        val, w = sweep([(wi - h, wi + h) for wi in w], fine)
        best = max(best, val)
        h = 2 * h / (fine - 1)
    return best


def sample_sigma_case(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        X = SymMat.diag([float(rng.uniform(0.5, 3.0)), 0.0])
        Y = SymMat.diag([0.0, -float(rng.uniform(0.5, 3.0))])
        c = float(rng.uniform(0.3, 1.2))
        H = SymMat([[float(rng.uniform(-1.0, 1.0)), c], [c, 0.0]])
    elif kind == 1:
        X = SymMat.diag([float(rng.uniform(0.5, 2.0)), 0.0])
        Y = SymMat.zeros(2)
        hb = float(rng.uniform(-1, 1))
        H = SymMat(
            [[float(rng.uniform(-1, 1)), hb], [hb, float(rng.uniform(0.0, 1.0))]]
        )
    else:
        X = SymMat.zeros(2)
        Y = SymMat.diag([-float(rng.uniform(0.5, 2)), -float(rng.uniform(0.5, 2))])
        H = SymMat.zeros(2)
    return X, Y, H


def test_sigma_term_against_grid_oracle():
    rng = np.random.default_rng(11)
    for _ in range(6):
        X, Y, H = sample_sigma_case(rng)
        s_closed = sigma_term(cone_context(X, Y), H)
        s_grid = grid_sigma_oracle(X, Y, H)
        tol = max(0.05 * abs(s_closed), 1e-6)
        assert abs(s_closed - s_grid) <= tol, (s_closed, s_grid)


def test_beta_blocks_of_the_second_order_form_match_the_loop_bit_for_bit():
    # the reference sums Z[k, c] D_k over the Jacobians in order, one
    # column of the cone basis at a time; the stacked sum keeps that order
    rng = np.random.default_rng(5)
    checked = 0
    for kind in ("rotated", "coupled"):
        for _ in range(40):
            sysm = context(*planted_pair(rng, kind, int(rng.integers(1, 5)), int(rng.integers(2, 6))))
            _, sb, _ = sysm.ctx.decomp.slices
            Z, Db = sysm.cone_null, sysm.Dt[:, sb, sb]
            if not (Z.shape[1] and Db.shape[1]):
                continue
            loop = np.array([sum(Z[k, c] * Db[k] for k in range(sysm.n)) for c in range(Z.shape[1])])
            assert np.array_equal(sysm.second_order[1], loop)
            checked += 1
    assert checked >= 20
