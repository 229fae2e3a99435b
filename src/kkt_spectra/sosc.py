"""Second-order analysis at a KKT pair: curvature term, sufficient and
necessary conditions over the critical cone, the directional-derivative
equivalence check, and the closedness/orthogonality conditions used by
the multiplier error bound. Those two are decided without sampling: the
orthogonality by Moreau's decomposition, the closedness by exact special
cases and a sufficient kernel test (Rockafellar, Thm 9.1)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import (
    ConeContext,
    cone_context_from_matrix,
    critical_cone_nsd_membership,
    critical_cone_psd_membership,
)
from .criticality import (
    BOUND_STEPS, TOL_POS, CriticalitySystem, _on_null, _supports, beta_block_rows, complementary_split
)
from .errors import InputDataError, NumericError
from .lpkernel import cone_kernel_nontrivial, null_space, subspace_psd_nontrivial
from .problem import ProblemData, ProblemKernels, _checked_order, _checked_vector, eval_grad_f, kkt_point
from .symmat import (
    SymMat,
    as_symmat,
    common_eigenframe,
    det_form,
    dir_deriv_from_decomp,
    eigh,
    psd_preimage_span,
    spectral_decompose,
    svec_indices,
    svec_stack,
)

SOSCY_HOLDS = "SOSCy_holds"
SOSCY_FAILS = "SOSCy_fails"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class SecondOrderReport:
    min_value: float
    minimizer: Optional[np.ndarray]
    verdict: str
    sonc_verdict: str
    search_stats: dict


def sigma_term(ctx: ConeContext, H) -> float:
    """Curvature correction 2<Y, H X^+ H> for H in the critical cone.

    In the eigenbasis of X + Y the value is a weighted sum of squared
    alpha-gamma couplings, so it is always nonpositive.
    """
    H = as_symmat(H)
    mem = critical_cone_psd_membership(ctx, H)
    if not mem.member:
        raise InputDataError(
            f"direction lies outside the critical cone (violation {mem.violation:.3e})"
        )
    d = ctx.decomp
    sa, _, sg = d.slices
    return 2.0 * float(np.sum(d.curvature * d.rotate(H)[sg, sa] ** 2))


def _pushed(Ds: np.ndarray, d) -> SymMat:
    """G'(x) d from the symmetric Jacobian stack Ds of shape (n, p, p) at x;
    InputDataError unless d has n entries."""
    n, p = Ds.shape[:2]
    d = np.asarray(d, dtype=float)
    if d.size != n:
        raise InputDataError(f"direction has length {d.size}, expected {n}")
    return SymMat((d.reshape(n) @ Ds.reshape(n, p * p)).reshape(p, p))


def critical_cone_x_membership(pd: ProblemData, xbar, ybar, d) -> dict:
    """Check G'(xbar) d against the matrix critical cone at (G(xbar), ybar)."""
    kkt = kkt_point(pd, xbar, ybar)
    mem = critical_cone_psd_membership(complementary_split(kkt), _pushed(kkt.Ds, d))
    return {"member": mem.member, "violation": mem.violation}


def evaluate_second_order_form(pd: ProblemData, xbar, ybar, d) -> float:
    """q(d) = <d, hessL d> - sigma_term along G'(xbar)d."""
    kkt = kkt_point(pd, xbar, ybar)
    ctx, H = complementary_split(kkt), _pushed(kkt.Ds, d)
    d = np.asarray(d, dtype=float)
    return float(d @ ProblemKernels(pd).hessians(kkt.Y.full()) @ d) - sigma_term(ctx, H)


def _report(bound: float, value: float, minimizer, stats: dict) -> SecondOrderReport:
    """Verdicts from a certified lower bound and the value at a direction
    verified in the cone (inf without one; a holds then reports its bound).
    An exact tier passes its minimum as both; inf means the cone is {0}."""
    verdict = SOSCY_FAILS if value <= TOL_POS else SOSCY_HOLDS if bound > TOL_POS else UNDETERMINED
    sonc = "holds" if bound >= -TOL_POS else "fails" if value < -TOL_POS else UNDETERMINED
    if minimizer is None:
        value = bound if verdict == SOSCY_HOLDS else math.nan
    return SecondOrderReport(value, minimizer, verdict, sonc, stats)


def _face_minimum(Qh: np.ndarray, A: np.ndarray, tol: float):
    """Minimum of c^T Qh c over unit c in the cone {c : A c >= -tol}.

    The minimizer lies in the relative interior of a face {A_S c = 0},
    where it is a smallest eigenvector of the form restricted to that
    face; when that eigenvalue is repeated, a larger face attains the
    same value. So the smallest eigenpair of every face, kept when it or
    its negative lies in the cone, gives the exact minimum. Returns
    (value, direction, feasible faces); (inf, None, 0) when the cone is
    {0}.
    """
    m = A.shape[1]
    best, best_c, feasible = math.inf, None, 0
    # the faces {A_S c = 0} are the supports of the row pairs (A_j, 0)
    for N, _ in _supports(np.eye(m), 0.0, np.zeros((0, m)), A, np.zeros_like(A)):
        if N.shape[1] == 0:
            continue
        R = N.T @ Qh @ N
        lam, V = eigh(0.5 * (R + R.T))
        lo = int(np.argmin(lam))
        v = N @ V[:, lo]
        for c in (v, -v):
            if float((A @ c).min()) >= -tol:
                feasible += 1
                if lam[lo] < best:
                    best, best_c = float(lam[lo]), c
                break
    return best, best_c, feasible


def _restore(blocks, c):
    """Descend the exterior penalty (squared negative eigenvalues of B(c))
    on the unit sphere until B(c) is PSD to 1e-11 or the descent stalls."""

    def penalty(c):
        lam, V = eigh(np.tensordot(c, blocks, 1))
        neg = np.minimum(lam, 0.0)
        return float(np.sum(neg**2)), 2.0 * np.einsum("i,ai,kab,bi->k", neg, V, blocks, V)

    for _ in range(50):
        pen, gp = penalty(c)
        g = gp - float(gp @ c) * c
        gn = float(np.linalg.norm(g))
        if pen <= 1e-22 or gn <= 1e-14:
            break
        for step in min(1.0, 4.0 * pen / gn**2) * 0.5 ** np.arange(15):
            cn = c - step * g
            cn /= np.linalg.norm(cn)
            pn, _ = penalty(cn)
            if pn <= 1e-22 or pn < pen * (1.0 - 1e-3):
                break
        else:
            break
        c = cn
    return c


def _s_lemma(Qh: np.ndarray, K: np.ndarray):
    """max over mu >= 0 of lambda_min(Qh - mu K), and candidate minimizers.

    A bottom eigenvector v gives the supergradient -v^T K v, so doubling
    and then bisection on its sign bracket the maximizer. Candidates are v
    at both ends and a K-isotropic combination of the two, which attains
    the maximum where the bottom eigenvalue is double.
    """
    lo, hi, ends = 0.0, None, [None, None]
    bound, mu = -math.inf, 0.0
    scale = max(1.0, float(np.abs(Qh).max())) / float(np.abs(K).max())
    for _ in range(BOUND_STEPS):
        lam, V = eigh(Qh - mu * K)
        bound = max(bound, float(lam[-1]))
        if V[:, -1] @ K @ V[:, -1] >= 0.0:
            hi, ends[1] = mu, V[:, -1]
        else:
            lo, ends[0] = mu, V[:, -1]
        if hi is not None and hi - lo <= 1e-15 * hi:
            break
        mu = max(2.0 * lo, scale) if hi is None else 0.5 * (lo + hi)
    cands = [v for v in ends if v is not None]
    if len(cands) == 2:
        (k_ll, k_lh), (_, k_hh) = np.array(ends) @ K @ np.array(ends).T
        if k_ll < 0.0 < k_hh:
            x = ends[0] + (math.sqrt(k_lh**2 - k_ll * k_hh) - k_lh) / k_hh * ends[1]
            cands.append(x / np.linalg.norm(x))
    return bound, cands


def check_soscy(sys: CriticalitySystem) -> SecondOrderReport:
    """Minimize the second-order form over the unit sphere in C(xbar).

    Exact when the cone is a subspace (empty or inactive beta block), a
    halfspace section (singleton beta block, settled by evenness of the
    form), or polyhedral (commuting beta blocks, settled by enumerating
    its faces; a cone that reduces to {0} holds with an infinite
    minimum). Non-commuting blocks take an S-procedure lower bound over
    C u -C, where the even form has the same minimum, exact at |beta| = 2
    by the S-lemma; `fails` there needs a direction re-verified in the
    cone (see _report). Q and the blocks are sys.second_order, and from
    |beta| = 3 on the bound is sys.s_procedure, shared with the classifier.
    """
    d = sys.ctx.decomp
    Z, (Qh, blocks) = sys.cone_null, sys.second_order
    stats = {"starts": 0, "certified": 0, "best_uncertified": None}

    if Z.shape[1] == 0:
        stats["path"] = "trivial cone"
        return _report(math.inf, math.inf, None, stats)

    block_scale = max((np.abs(B).max() for B in blocks), default=0.0)

    exact_subspace = d.beta.size == 0 or block_scale <= 1e-12
    if exact_subspace or d.beta.size == 1:
        lam, V = eigh(Qh)
        lo = int(np.argmin(lam))
        min_value = float(lam[lo])
        c = V[:, lo]
        if not exact_subspace:
            # singleton block: the form is even, so the halfspace section
            # attains the same minimum; flip the sign to land inside
            if sum(c[k] * B for k, B in enumerate(blocks))[0, 0] < 0.0:
                c = -c
        stats["path"] = "exact subspace" if exact_subspace else "exact halfspace"
        stats["certified"] = 1
        return _report(min_value, min_value, Z @ c, stats)

    frame = common_eigenframe(blocks, d.beta.size)
    if frame is not None:
        # commuting blocks: in their common frame the cone is polyhedral,
        # {c : A c >= 0} with one row per beta eigenvalue
        A = np.array([[u @ B @ u for B in blocks] for u in frame.T])
        min_value, c, faces = _face_minimum(Qh, A, 1e-9 * max(1.0, block_scale))
        stats["path"] = "exact face enumeration"
        stats["certified"] = faces
        return _report(min_value, min_value, None if c is None else Z @ c, stats)

    # non-commuting blocks: each pair form is nonnegative on C u -C, so
    # lambda_min(Qh - sum_i mu_i F_i) bounds the minimum for every mu >= 0
    stats["path"] = "S-procedure"
    if d.beta.size > 2:
        bound, cands = sys.s_procedure
    else:
        a, f, b = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
        span, _ = psd_preimage_span(a, f, b)
        if span.shape[1] < Z.shape[1]:
            # the det form has no positive eigenvalue: C u -C is its null space
            lam, V = eigh(span.T @ Qh @ span)
            bound, cands = float(lam.min(initial=math.inf)), list((span @ V[:, -1:]).T)
        else:
            bound, cands = _s_lemma(Qh, det_form(a, f, b))

    # a candidate counts once G'(x)(Z c) passes the critical-cone test
    tol = 1e-9 * max(1.0, block_scale)
    best_c, best_val, best_uncert = None, math.inf, math.inf
    for c in (s * v for v in cands for s in (1.0, -1.0)):
        c = _restore(blocks, c) if d.beta.size > 2 else c
        stats["starts"] += 1
        mem = critical_cone_psd_membership(sys.ctx, _pushed(sys.Ds, Z @ c), tol)
        val = float(c @ Qh @ c)
        if mem.member:
            stats["certified"] += 1
            if val < best_val:
                best_c, best_val = c, val
        elif mem.violation <= 1e-5:
            best_uncert = min(best_uncert, val)
    stats["best_uncertified"] = None if best_uncert == math.inf else best_uncert
    stats["lower_bound"] = bound
    return _report(bound, best_val, None if best_c is None else Z @ best_c, stats)


def lemma4_check(C, dA, dB) -> dict:
    """Equivalence of the projection-derivative equation with its three
    blockwise characterizing conditions at the split of C; InputDataError
    unless the three matrices share one order. The conditions are that dA
    lies in the critical cone of the PSD cone, that dB less the
    displacement U lies in that of the NSD cone (the norm of its whole
    alpha x (alpha u beta) block within tol) and the scalar identity,
    each within tol = 1e-7 max(1, |dA|, |dB|)."""
    C, dA, dB = as_symmat(C), as_symmat(dA), as_symmat(dB)
    if not C.p == dA.p == dB.p:
        raise InputDataError(f"matrix orders differ: C {C.p}, dA {dA.p}, dB {dB.p}")
    ctx = cone_context_from_matrix(C)
    d = ctx.decomp
    tol = 1e-7 * max(1.0, dA.norm(), dB.norm())

    lhs_res = (dA - dir_deriv_from_decomp(d, dA + dB)).norm()
    lhs = bool(lhs_res <= tol)

    rhs = critical_cone_psd_membership(ctx, dA, tol).member
    if rhs:
        # displacement U that absorbs the alpha-gamma coupling of dA; the
        # rest W = dB - U must lie in the critical cone of the NSD cone
        sa, _, sg = d.slices
        At = d.rotate(dA)
        Ut = np.zeros((d.p, d.p))
        Ut[sa, sg] = -d.curvature.T * At[sa, sg]
        Ut[sg, sa] = Ut[sa, sg].T
        W = dB - SymMat(d.P @ Ut @ d.P.T)
        rhs = critical_cone_nsd_membership(ctx, W, tol).member
        if rhs:
            st = float(np.sum(d.curvature * At[sg, sa] ** 2))
            rhs = abs(dA.inner(dB) + 2.0 * st) <= tol
    return {"lhs": lhs, "rhs": bool(rhs)}


def _closed_adjoint_image(sys: CriticalitySystem) -> dict:
    """Condition (i): the image of the polar cone K under the adjoint map
    W -> (<D_k, W>)_k is closed. In the eigenframe K holds the W whose
    alpha x (alpha u beta) entries vanish and whose beta block is NSD.

    Three exact special cases come first. Otherwise Rockafellar's Thm
    9.1 (Convex Analysis) gives a sufficient test: the image is closed
    when every W in K that the map sends to 0 lies in the lineality space
    of K (-W in K too), that is has a zero beta block. The beta blocks of
    that kernel span a subspace (cut at 1e-11), so the test passes iff
    it is {0}, as for an injective adjoint, or meets no nonzero PSD
    matrix. When it meets one the test is inconclusive.
    """
    d = sys.ctx.decomp
    p, k = sys.p, d.beta.size
    if d.alpha.size == p:
        return {"verdict": "holds", "evidence": "polar cone trivial (strict interior point)"}
    if float(np.abs(sys.Ds).max(initial=0.0)) <= 1e-14:
        return {"verdict": "holds", "evidence": "zero Jacobian: adjoint image is {0}"}
    if k <= 1:
        return {"verdict": "holds", "evidence": "polyhedral polar cone (beta block <= 1)"}
    # the entries of K outside alpha x (alpha u beta), packed row-major
    # from the upper triangle, so the beta x beta ones among them come in
    # svec_indices(k) order; <D_k, P W P^T> = <Dt_k, W>
    ka, kb = d.alpha.size, d.alpha.size + k
    rows, cols = svec_indices(p)
    free = (rows >= ka) | (cols >= kb)
    in_beta = (rows[free] >= ka) & (cols[free] < kb)
    kernel = null_space(svec_stack(sys.Dt)[:, free], atol=sys.rank_atol)
    U, s, _ = np.linalg.svd(kernel[in_beta], full_matrices=False)
    span = U[:, s > 1e-11]
    if not span.shape[1]:
        return {"verdict": "holds", "evidence": "adjoint kernel has zero beta blocks (Rockafellar Thm 9.1)"}
    try:
        W = subspace_psd_nontrivial(span, k)
    except NumericError as exc:
        return {"verdict": UNDETERMINED, "evidence": f"adjoint kernel test undecided: {exc}"}
    if W is None:
        return {"verdict": "holds", "evidence": "adjoint kernel meets no nonzero NSD beta block (Rockafellar Thm 9.1)"}
    return {"verdict": UNDETERMINED, "evidence": "adjoint kernel meets a nonzero NSD beta block"}


def _projected_orthogonality(sys: CriticalitySystem) -> dict:
    """Condition (ii): <Pi(G'(x) xi), Pi(eta)> = 0 for every xi in C(xbar)
    and every eta with hessL xi + G'(x)* eta = 0, where Pi projects onto
    the polar cone of the critical cone C.

    It holds identically: G'(x) xi lies in C, and Moreau's decomposition
    gives Pi(H) = 0 for every H in C. The evidence says whether it holds
    vacuously, decided by one cone-kernel call: a nonzero xi in C admits
    an eta iff hessL xi lies in the range of the adjoint, that is iff the
    part of hessL orthogonal to that range annihilates xi; that part
    cuts the span from sys.cone_null (_on_null) at the context's rank cut.
    """
    off_range = null_space(svec_stack(sys.Ds).T, atol=sys.rank_atol).T @ sys.hessL
    Z = _on_null(sys.cone_null, sys.rank_atol, off_range)
    try:
        xi = cone_kernel_nontrivial(Z, beta_block_rows(sys), sys.ctx.decomp.beta.size)
    except NumericError as exc:
        return {"verdict": "holds", "evidence": f"undecided: {exc}; holds by the identity"}
    if xi is None:
        return {"verdict": "holds", "evidence": "vacuous: no nonzero xi in C admits a multiplier direction"}
    return {"verdict": "holds", "evidence": "identity: G'(x) xi lies in C, so its projection onto the polar cone is 0"}


def theorem3_conditions(sys: CriticalitySystem) -> dict:
    """The two conditions under which noncriticality gives the KKT error
    bound, each as {"verdict", "evidence"}: closedness of the adjoint
    image of the polar cone (cond_i) and orthogonality of projected pairs
    (cond_ii). Both are decided without sampling."""
    return {"cond_i": _closed_adjoint_image(sys), "cond_ii": _projected_orthogonality(sys)}


def multiplier_distance_estimate(pd: ProblemData, xbar, samples) -> list:
    """Ratio table dist(y, multiplier set) / perturbation size.

    Each sample is a (Y, p1, p2) triple. The distance surrogate adds the
    distances from Y to the two sets whose intersection is Lambda(xbar):
    the stationarity gap, a least-norm correction (infinite when the
    stationarity equation is inconsistent), and the cone gap to the
    normal cone at G(xbar), by blockwise projection. A zero perturbation
    with an exact multiplier reports ratio 0. G(xbar), its Jacobians and
    the decomposition of G(xbar) are evaluated once per call.
    InputDataError unless xbar has n entries and each sample a Y and p2
    of order p and a p1 of n entries.
    """
    n, p = pd.n, pd.p
    x = _checked_vector(xbar, pd.n, "x")
    kern = ProblemKernels(pd)
    D = kern.jacobians(x)
    A = svec_stack(D.reshape(n, p, p))
    grad = eval_grad_f(pd, x)
    d = spectral_decompose(SymMat(kern.G(x)))
    ka = d.alpha.size
    table = []
    for k, (Y, p1, p2) in enumerate(samples):
        Y, p2 = _checked_order(pd, Y, f"Y of sample {k}"), _checked_order(pd, p2, f"p2 of sample {k}")
        p1 = _checked_vector(p1, pd.n, f"p1 of sample {k}")
        r = -(grad + D @ Y.full().ravel())
        delta, *_ = np.linalg.lstsq(A, r, rcond=None)
        if np.linalg.norm(A @ delta - r) > 1e-8 * max(1.0, np.linalg.norm(r)):
            d1 = math.inf
        else:
            d1 = float(np.linalg.norm(delta))
        Yt = d.rotate(Y)
        N = np.zeros_like(Yt)
        if ka < p:
            lam_b, V_b = eigh(Yt[ka:, ka:])
            N[ka:, ka:] = (V_b * np.minimum(lam_b, 0.0)) @ V_b.T
        d2 = (Y - SymMat(d.P @ N @ d.P.T)).norm()
        dist = d1 + d2
        denom = float(np.linalg.norm(p1)) + p2.norm()
        if denom == 0.0:
            ratio = 0.0 if dist <= 1e-12 else math.inf
        else:
            ratio = dist / denom
        table.append(
            {"p_norm": denom, "distance": dist, "ratio": ratio, "stationarity_gap": d1, "cone_gap": d2}
        )
    return table
