"""Multiplier criticality, x-part condition, and constraint qualifications.

A multiplier is critical when the linearized complementarity system
admits a nonzero primal direction. The system couples an adjoint
equation with blockwise conditions on the pushed-forward direction in
the eigenframe of G(x) + Y: hard zero blocks, a divided-difference
coupling between the positive and negative blocks, and a complementary
PSD/NSD pair on the degenerate block. Everything below reduces those
conditions to the feasibility kernels in lpkernel.

The rows of the system act on the stacked variable z = (xi, svec eta)
of length n + p(p + 1)/2. entry_rows builds them once per pair as two
(p, p, dim) arrays, H for the entries of P^T G'(x) xi P and E for those
of P^T eta P, and every tier reads its rows from them, cutting the
alpha, beta and gamma blocks from SpectralDecomp.slices: common_rows
stacks the rows valid in every branch, rotated_beta_rows turns the beta
block into a frame Q. Every support is solved on N, the one null space
of the common rows, which _on_null restricts by the support's rows. The
one walk of the 2^k complementarity supports (_supports), which
sosc._face_minimum shares, serves the enumeration (_branch_search) of
every beta block whose Jacobian blocks commute, an empty or singleton
block included; one rule (_verified_witness) accepts every witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cones import ConeContext, check_complementary, cone_context_from_matrix
from .errors import InputDataError, NumericError
from .lpkernel import cone_kernel_nontrivial, nontrivial_in_span, null_space, polish_in_span, subspace_psd_nontrivial
from .problem import (
    CERTIFICATION_TOL, KKTPoint, ProblemData, ProblemKernels, _checked_order, _checked_vector, kkt_point
)
from .symmat import (
    SpectralDecomp,
    SymMat,
    common_eigenframe,
    det_form,
    dir_deriv_dense,
    eig_range,
    eigh,
    psd_preimage_span,
    spectral_decompose,
    svec_indices,
    svec_scale,
    svec_stack,
    sym_mat,
    symmetrized,
)

CRITICAL = "Critical"
NONCRITICAL = "Noncritical"
UNDETERMINED = "Undetermined"

TOL_POS = 1e-8

# mu evaluations per S-procedure bound; the |beta| = 2 bisection needs about 60
BOUND_STEPS = 200


@dataclass(frozen=True)
class CriticalitySystem:
    """Analysis context of a certified KKT pair.

    Every analysis of the pair reads the one alpha/beta/gamma partition
    held in ctx, the split of G(x) + Y. G is G(x) and Ds the constraint
    Jacobians D_k(x) as one symmetric stack, shape (n, p, p); Dt holds
    them rotated into the eigenframe of G(x) + Y. cone_rows are the
    x-space equality rows of the critical cone, one per gamma x
    (beta u gamma) entry (H_ij = 0), and cone_null is an orthonormal
    basis of their null space, cut at rank_atol = 1e-11 max(1, max |Dt|),
    the pair's one absolute rank cut: rows at rotation round-off count as
    zero, and every span of the pair's analyses is cut at it.
    """

    pd: ProblemData
    kkt: KKTPoint
    hessL: np.ndarray
    G: SymMat
    Ds: np.ndarray
    ctx: ConeContext
    Dt: np.ndarray
    cone_rows: np.ndarray
    cone_null: np.ndarray
    rank_atol: float

    @property
    def n(self) -> int:
        return self.hessL.shape[0]

    @property
    def p(self) -> int:
        return self.ctx.p

    @cached_property
    def second_order(self):
        """(Qh, blocks), once per context: Q = hessL - sigma quadratic as
        Qh = Z^T Q Z on Z = cone_null, and the beta block of G'(x) Z[:, c]
        per column c ([] when beta is empty); C = {Z c : sum_i c_i blocks[i] PSD}."""
        Q = self.hessL - _sigma_quadratic(self)
        Q = 0.5 * (Q + Q.T)
        Z = self.cone_null
        Qh = Z.T @ Q @ Z
        Qh = 0.5 * (Qh + Qh.T)
        _, sb, _ = self.ctx.decomp.slices
        # blocks[c] = sum_k Z[k, c] Dt_k[beta, beta], summed over k in order
        blocks = (Z[:, :, None, None] * self.Dt[:, None, sb, sb]).sum(axis=0) if self.ctx.decomp.beta.size else []
        return Qh, blocks

    @cached_property
    def s_procedure(self):
        """_supergradient_bound of Q, once per context: the classifier and check_soscy share it."""
        return _supergradient_bound(*self.second_order)


@dataclass(frozen=True)
class CriticalityVerdict:
    tag: str
    witness: Optional[tuple]
    certificate: str
    residual: float


def complementary_split(kkt: KKTPoint, tol: Optional[float] = None) -> ConeContext:
    """The split of G(x) + Y that kkt holds, or a re-split at the partition's
    zero tolerance tol, checked to give back (G(x), Y) within 1e-6."""
    ctx = kkt.split if tol is None else cone_context_from_matrix(kkt.split.decomp.source, tol)
    check_complementary(ctx, kkt.G, kkt.Y, tol=1e-6)
    return ctx


def certified_split(pd: ProblemData, kkt: KKTPoint, tol: Optional[float] = None) -> ConeContext:
    """complementary_split of kkt; InputDataError first when kkt is not a
    kkt_point of pd, then when it is uncertified."""
    if kkt.pd is not pd:
        raise InputDataError("the KKT point was evaluated on a different problem")
    if not kkt.certified:
        raise InputDataError(
            f"KKT residuals {kkt.residuals} exceed certification tolerance"
        )
    return complementary_split(kkt, tol)


def analysis_context(pd: ProblemData, x, Y, tol: Optional[float] = None) -> CriticalitySystem:
    """build_system of the pair (x, Y) of pd."""
    return build_system(pd, kkt_point(pd, x, Y), tol)


def build_system(pd: ProblemData, kkt: KKTPoint, tol: Optional[float] = None) -> CriticalitySystem:
    """The analysis context of kkt, a certified kkt_point of pd, assembled
    from the evaluations it carries; tol as in complementary_split (None:
    the decomposition's default)."""
    ctx = certified_split(pd, kkt, tol)
    d = ctx.decomp
    Dt = _rotated(d, kkt.Ds)
    # gamma x (beta u gamma) entries on and below the diagonal, row-major
    _, sb, sg = d.slices
    kg, kr = d.gamma.size, d.p - sb.start
    cone_rows = Dt[:, sg, sb.start :][:, np.tri(kg, kr, kr - kg, dtype=bool)].T
    rank_atol = 1e-11 * max(1.0, float(np.abs(Dt).max(initial=0.0)))
    cone_null = null_space(cone_rows, atol=rank_atol)
    hessL = ProblemKernels(pd).hessians(kkt.Y.full())
    return CriticalitySystem(pd, kkt, hessL, kkt.G, kkt.Ds, ctx, Dt, cone_rows, cone_null, rank_atol)


def _rotated(d: SpectralDecomp, Ds: np.ndarray) -> np.ndarray:
    """P^T D P for every matrix D of the stack Ds, in one batched product."""
    return (d.P.T @ Ds) @ d.P


def _sigma_quadratic(sys: CriticalitySystem) -> np.ndarray:
    """Matrix S with d^T S d = sigma_term(G'(x)d), no membership gate."""
    d = sys.ctx.decomp
    sa, _, sg = d.slices
    V = sys.Dt[:, sg, sa].reshape(sys.n, -1)
    return (2.0 * d.curvature.ravel() * V) @ V.T


def _supergradient_bound(Qh: np.ndarray, blocks: np.ndarray):
    """Best bound lambda_min(Qh - sum_i mu_i F_i) of a projected
    supergradient ascent over mu >= 0 with normalized, diminishing steps,
    and the eigenvectors there, bottom first, as candidates. Each 2x2
    principal minor of B(c) gives two forms F_i, nonnegative wherever B(c)
    is PSD or NSD: its determinant and, with the coupling dropped, the
    product of its diagonal entries."""
    pairs = itertools.combinations(range(blocks.shape[1]), 2)
    minors = [(blocks[:, i, i], blocks[:, i, j], blocks[:, j, j]) for i, j in pairs]
    forms = np.array([det_form(a, w * f, b) for a, f, b in minors for w in (1.0, 0.0)])
    mu = np.zeros(len(forms))
    bound, best = -math.inf, None
    # when every form vanishes, mu stays 0 and the bound is lambda_min(Qh)
    scale = max(1.0, float(np.abs(Qh).max())) / max(float(np.abs(forms).max()), np.finfo(float).tiny)
    for k in range(BOUND_STEPS):
        lam, V = eigh(Qh - np.tensordot(mu, forms, 1))
        if lam[-1] > bound:
            bound, best = float(lam[-1]), V[:, ::-1]
        g = -np.einsum("i,kij,j->k", V[:, -1], forms, V[:, -1])
        if not g.any():
            break
        mu = np.maximum(mu + scale / math.sqrt(k + 1.0) * g / np.linalg.norm(g), 0.0)
    return bound, list(best.T)


def entry_rows(sys: CriticalitySystem):
    """Entry rows (H, E) of the rotated blocks, each of shape (p, p, dim).

    H[i, j] @ z is entry (i, j) of P^T G'(x) xi P and E[i, j] @ z is entry
    (i, j) of P^T eta P, for z = (xi, svec eta) of length dim.
    """
    n, p = sys.n, sys.p
    P = sys.ctx.decomp.P
    dim = n + p * (p + 1) // 2
    H = np.zeros((p, p, dim))
    H[:, :, :n] = np.moveaxis(sys.Dt, 0, -1)
    O = np.einsum("ai,bj->ijab", P, P)
    E = np.zeros((p, p, dim))
    E[:, :, n:] = svec_stack(0.5 * (O + O.transpose(1, 0, 2, 3)))
    return H, E


def common_rows(sys: CriticalitySystem, H: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Rows valid in every complementarity branch, shape (m, dim).

    In order: the adjoint rows, the critical-cone rows, then for each
    alpha index i the rows of eta over alpha (from i on) and beta and the
    divided-difference coupling over gamma.
    """
    d = sys.ctx.decomp
    sa, sb, sg = d.slices
    n, dim = sys.n, H.shape[-1]
    adjoint = np.hstack([sys.hessL, svec_stack(sys.Ds)])
    cone = np.hstack([sys.cone_rows, np.zeros((len(sys.cone_rows), dim - n))])
    blocks = [adjoint, cone]
    for i in range(sa.stop):
        s = d.sigma[i][:, None]
        blocks += [E[i, i : sa.stop], E[i, sb], (s - 1.0) * H[i, sg] + s * E[i, sg]]
    return np.vstack(blocks)


def rotated_beta_rows(sys: CriticalitySystem, H: np.ndarray, E: np.ndarray, Q: np.ndarray):
    """Entry rows of Q^T H_bb Q and Q^T eta_bb Q, each of shape (k, k, dim)."""
    _, sb, _ = sys.ctx.decomp.slices
    return tuple(np.einsum("ai,bj,abd->ijd", Q, Q, M[sb, sb]) for M in (H, E))


def witness_residual(sys: CriticalitySystem, xi, eta) -> float:
    """Aggregate residual of a candidate direction pair.

    It reads the unrotated Jacobians and the projection derivative at the
    split, not the rows a witness is solved from, so it checks those rows
    independently.
    """
    n, p = sys.n, sys.p
    xi = _checked_vector(xi, sys.pd.n, "xi")
    E = _checked_order(sys.pd, eta, "eta").full()
    Dflat = sys.Ds.reshape(n, p * p)
    adj = sys.hessL @ xi + (Dflat * E.ravel()).sum(axis=1)
    H = np.zeros(p * p)
    for k in range(n):
        H += xi[k] * Dflat[k]
    H = H.reshape(p, p)
    fixed = H - dir_deriv_dense(sys.ctx.decomp, H + E)
    return math.hypot(float(np.linalg.norm(adj)), float(np.linalg.norm(fixed)))


def _verified_witness(sys: CriticalitySystem, Z: np.ndarray, z: np.ndarray):
    """(xi, eta, residual) of a point z of the solution span Z, or None.

    The witness is z scaled to a unit xi. One that misses re-verification
    is polished once (the least-norm point of span(Z) at its unit xi, see
    polish_in_span) and checked again. Every tier accepts its witnesses
    by this one rule.
    """
    for polish in (False, True):
        v = polish_in_span(Z, z, sys.n) if polish else z
        nrm = np.linalg.norm(v[: sys.n])
        xi, eta = v[: sys.n] / nrm, (1.0 / nrm) * sym_mat(v[sys.n :], sys.p)
        res = witness_residual(sys, xi, eta)
        if res <= 1e-7:
            return xi, eta, res
    return None


def _noncritical(certificate: str) -> CriticalityVerdict:
    """Noncritical verdict of an exact tier."""
    return CriticalityVerdict(NONCRITICAL, None, certificate, 0.0)


def _critical(found, certificate: str) -> CriticalityVerdict:
    """Critical verdict of a re-verified witness (xi, eta, residual)."""
    xi, eta, res = found
    return CriticalityVerdict(CRITICAL, (xi, eta), certificate, res)


LP_UNDECIDED = "support LP numerically undecided"


def _unverified(tier: str, reason: str = "witness re-verification failed") -> CriticalityVerdict:
    """Undetermined verdict of an exact tier that could not certify its answer."""
    return CriticalityVerdict(UNDETERMINED, None, f"semi-decision: {tier}, {reason}", 0.0)


def _on_null(N: np.ndarray, cut: float, rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {N c : rows N c = 0} for a span N at an absolute
    rank cut: each classifier support is cut from its common null space,
    the x-part and cond_ii spans from cone_null at rank_atol."""
    return N @ null_space(rows @ N, atol=cut)


def _supports(N: np.ndarray, cut: float, fixed: np.ndarray, h: np.ndarray, e: np.ndarray):
    """The 2^k complementarity supports of the row pairs (h_j, e_j): support
    i pins e_j and keeps h_j >= 0 where bit j of i is set, and pins h_j and
    keeps -e_j >= 0 where it is clear. Yields, in order of i, the span cut
    from N by the fixed and pinned rows (_on_null) and the signed rows."""
    k = len(h)
    on = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(bool)[:, :, None]
    for pinned, signed in zip(np.where(on, e, h), np.where(on, h, -e)):
        yield _on_null(N, cut, np.vstack([fixed, pinned])), signed


def _branch_search(sys: CriticalitySystem, N: np.ndarray, cut: float, h: np.ndarray, e: np.ndarray):
    """Enumerate complementarity supports of a diagonalized beta block.

    h and e are the rotated beta rows (see rotated_beta_rows); the
    off-diagonal entries of both vanish in every support (see _supports).
    Returns (branch, undecided): branch is (solution span, solution) of
    the first support whose system has a nonzero xi, or None; undecided
    says whether the support LP raised NumericError on a support before it.
    """
    k, dim = h.shape[0], h.shape[-1]
    rows, cols = svec_indices(k)
    off = rows != cols
    offdiag = np.stack([h[rows[off], cols[off]], e[rows[off], cols[off]]], axis=1).reshape(-1, dim)
    diag = np.arange(k)
    undecided = False
    for Z, signed in _supports(N, cut, offdiag, h[diag, diag], e[diag, diag]):
        try:
            z = nontrivial_in_span(Z, sys.n, signed)
        except NumericError:
            undecided = True
            continue
        if z is not None:
            return (Z, z), undecided
    return None, undecided


def _psd_point_with_xi(Z: np.ndarray, block: np.ndarray, xi_dim: int):
    """A point z of span(Z) with xi(z) != 0 whose 2x2 block is PSD, or None.

    block holds the (00, 01, 11) rows of the block map in the coordinates
    of the orthonormal columns Z. The cone of such points spans the set
    psd_preimage_span returns, so xi is nonzero somewhere on the cone iff
    it is nonzero on that span.
    """
    span, anchor = psd_preimage_span(*block)
    if anchor is None:
        return None
    Zxi = Z[:xi_dim] @ span
    if np.abs(Zxi).max() <= 1e-12:
        return None

    def mat(c):
        x, y, w = block @ c
        return np.array([[x, y], [y, w]])

    _, _, vt = np.linalg.svd(Zxi)
    c = span @ vt[0]
    for cand in (c, -c):
        M = mat(cand)
        if eig_range(M)[0] >= -1e-8 * np.abs(M).max():
            return Z @ cand
    # c leaves the cone, so the cone has interior and the anchor lies in
    # it: a small step along c keeps the block PSD and makes xi nonzero
    eps = 0.5 * eig_range(mat(anchor))[0] / np.linalg.norm(mat(c), 2)
    u, w = Z[:xi_dim] @ anchor, eps * (Z[:xi_dim] @ c)
    return Z @ (anchor + eps * c if np.linalg.norm(u + w) >= np.linalg.norm(u - w) else anchor - eps * c)


def _mixed_rows(H: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Rows h_uv, e_uv, h_vv, e_uu in the frame u = (1, t), v = (-t, 1).

    H and E hold the (00, 01, 11) entry rows of the beta blocks of h and
    e. Returns the coefficients of t^0, t^1 and t^2, shape (3, 4, dim);
    at an angle theta the rows are c^2 C[0] + c s C[1] + s^2 C[2] with
    (c, s) = (cos theta, sin theta).
    """
    (H00, H01, H11), (E00, E01, E11) = H, E
    return np.array(
        [
            [H01, E01, H11, E00],
            [H11 - H00, E11 - E00, -2.0 * H01, 2.0 * E01],
            [-H01, -E01, H00, E11],
        ]
    )


def _at_angle(C: np.ndarray, theta: float) -> np.ndarray:
    """The mixed rows c^2 C[0] + c s C[1] + s^2 C[2] at the angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    return c * c * C[0] + c * s * C[1] + s * s * C[2]


def _refine_angle(C: np.ndarray, theta: float) -> Optional[float]:
    """Gauss-Newton on M(theta) x = 0 with |x| = 1, from a root estimate,
    at most 8 steps.

    A double root of the chosen minor is only known to about the square
    root of machine precision; the full 4-row system pins it down again.
    Returns theta in [0, pi), or None when M(theta) is far from losing
    rank (a root of the minor alone).
    """
    _, sv, vt = np.linalg.svd(_at_angle(C, theta))
    if sv[-1] > 1e-4:
        return None
    x = vt[-1]
    for _ in range(8):
        c, s = math.cos(theta), math.sin(theta)
        M = _at_angle(C, theta)
        r = M @ x
        if np.linalg.norm(r) <= 1e-15:
            break
        dM = 2.0 * c * s * (C[2] - C[0]) + (c * c - s * s) * C[1]
        J = np.vstack([np.column_stack([dM @ x, M]), np.append(0.0, x)])
        step = np.linalg.lstsq(J, np.append(r, 0.0), rcond=None)[0]
        theta -= step[0]
        x = x - step[1:]
        x /= np.linalg.norm(x)
    return theta % math.pi


def _mixed_support_angles(C: np.ndarray, d: int):
    """Candidate angles of the mixed support and the real-root count.

    C holds the mixed rows on N (see _mixed_rows), d = dim N <= 4. A
    nonzero solution needs rank M(theta) < d, so every such angle is
    pi/2 or a real root in t = tan(theta) of any d x d minor of M, a
    polynomial of degree 2d. Its coefficients come from its values at the
    m-th roots of unity. Along a mixed solution h_vv and e_uu vanish to
    second order in theta, so a minor holding both has a double root
    there: the minor used holds the fewest of those two rows, then is the
    largest. Returns None when every minor vanishes at every angle.
    Roots where M keeps full rank are dropped (see _refine_angle).
    """
    m = 2 * d + 1
    V = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m)  # V[k, j] = t_k^j
    t = V[:, 1, None, None]
    Mt = C[0] + t * C[1] + t * t * C[2]
    minors = []
    for S in itertools.combinations(range(4), d):
        poly = (V.conj().T @ np.linalg.det(Mt[:, S, :])).real / m
        top = np.abs(poly).max()
        if top > 1e-10:
            minors.append((len({2, 3}.intersection(S)), -top, poly))
    if not minors:
        return None
    _, neg_top, poly = min(minors, key=lambda entry: entry[:2])
    deg = int(np.flatnonzero(np.abs(poly) > -1e-12 * neg_top)[-1])
    # near-real roots, judged in angle: d theta = d t / (1 + t^2)
    roots = [r for r in np.roots(poly[deg::-1]) if abs(r.imag) <= 1e-6 * (1.0 + abs(r) ** 2)]
    refined = [_refine_angle(C, math.atan(r.real)) for r in roots]
    return [math.pi / 2.0] + [theta for theta in refined if theta is not None], len(roots)


def _classify_two_block(
    sys: CriticalitySystem, H: np.ndarray, E: np.ndarray, N: np.ndarray, cut: float
) -> CriticalityVerdict:
    """Exact tier for a non-commuting 2x2 beta block.

    On the block the pair (h, -e) = (H_bb, -eta_bb) must be complementary
    in S^2_+. That leaves three supports. The pure ones, h PSD with e = 0
    and h = 0 with e NSD, are frame-free and decided on the span of the
    PSD preimage of the det form within the part of N that the pinned
    block annihilates (_on_null; N is the null space of the common rows
    that classify_multiplier has computed, and cut its rank cut). In the
    mixed one both blocks have rank one in a frame u = (cos theta,
    sin theta), v = (-sin theta, cos theta): the rows h_uv, e_uv, h_vv
    and e_uu vanish on N, with h_uu >= 0 and e_vv <= 0. At each candidate
    angle of _mixed_support_angles the sign-row LP over the null space of
    those rows decides. N has dimension d >= 3 (the common rows leave exactly
    the three beta x beta entries free); d > 4, or a minor that vanishes
    at every angle, returns Undetermined.
    """
    _, sb, _ = sys.ctx.decomp.slices
    tier = "2x2 beta block"
    # (00, 01, 11) entry rows of the beta blocks of h and e
    H, E = H[sb, sb][svec_indices(2)], E[sb, sb][svec_indices(2)]
    unverified, undecided = [], []
    for label, pinned, block in (("h psd, e = 0", E, H), ("h = 0, e nsd", H, -E)):
        Z = _on_null(N, cut, pinned)
        B = block @ Z  # the zero map where it is round-off against the block's scale
        z = _psd_point_with_xi(Z, B * (np.abs(B).max(initial=0.0) > 1e-11 * np.abs(block).max()), sys.n)
        if z is None:
            continue
        found = _verified_witness(sys, Z, z)
        if found is not None:
            return _critical(found, f"exact: {tier}, pure support '{label}'")
        unverified.append(label)

    d = N.shape[1]
    if d > 4:
        return _unverified(tier, f"mixed support with d = {d} > 4 not decided")
    HN, EN = H @ N, E @ N
    h_scale, e_scale = np.abs(HN).max(), np.abs(EN).max()
    thetas = []
    mixed = "the mixed support (h or e vanishes on N, so it is pure)"
    if h_scale > 1e-12 * np.abs(H).max() and e_scale > 1e-12:
        # each block scaled to unit size: ranks are unchanged and the
        # tolerances are relative to both blocks
        C = _mixed_rows(HN / h_scale, EN / e_scale)
        found = _mixed_support_angles(C, d)
        if found is None:
            return _unverified(tier, f"every {d}x{d} minor of the mixed rows vanishes")
        thetas, count = found
        mixed = f"the mixed support (pi/2 and {count} real roots in tan(theta) of a {d}x{d} minor)"
    for theta in thetas:
        _, sv, vt = np.linalg.svd(_at_angle(C, theta))
        null = vt[sv <= 1e-8]
        if null.shape[0] == 0:
            continue
        c, s = math.cos(theta), math.sin(theta)
        h_uu = c * c * H[0] + 2.0 * c * s * H[1] + s * s * H[2]
        e_vv = s * s * E[0] - 2.0 * c * s * E[1] + c * c * E[2]
        Z = N @ null.T
        try:
            z = nontrivial_in_span(Z, sys.n, [h_uu, -e_vv])
        except NumericError:
            undecided.append(f"theta={theta:.6f}")
            continue
        if z is None:
            continue
        found = _verified_witness(sys, Z, z)
        if found is not None:
            return _critical(found, f"exact: {tier}, mixed support at theta={theta:.6f}")
        unverified.append(f"theta={theta:.6f}")
    reasons = [
        f"{reason} ({', '.join(labels)})"
        for reason, labels in (("witness re-verification failed", unverified), (LP_UNDECIDED, undecided))
        if labels
    ]
    if reasons:
        return _unverified(tier, "; ".join(reasons))
    return _noncritical(f"exact: {tier}, pure supports and {mixed} exhausted")


def _classify_large_block(
    sys: CriticalitySystem, H: np.ndarray, E: np.ndarray, N: np.ndarray, cut: float
) -> CriticalityVerdict:
    """Tiers for a non-commuting beta block of order k >= 3, in order.

    0. A witness xi lies in the critical cone C, so C = {0} (a basis
       sys.cone_null with no columns) proves Noncritical.
    1. The pure supports, h PSD with e = 0 and h = 0 with e NSD, are
       convex: one cone_kernel_nontrivial call each on N (_on_null), less
       L0, its xi = 0 directions on which the block vanishes, excludes the
       support or finds a solution with the xi it has on N, a witness when
       xi is nonzero. Only 'h = 0, e nsd' can still give xi = 0 (a nonzero
       NSD e); that, a NumericError or a failed re-verification leaves the
       support open.
    2. A witness xi lies in the critical cone C and the second-order form
       Q vanishes on it (FINDINGS.md), so an S-procedure bound of Q
       (sys.s_procedure) or -Q above TOL_POS on C u -C proves Noncritical.
    3. Support enumeration in the identity frame and the eigenframe of
       each nonzero Jacobian beta block, for a witness only.
    Otherwise Undetermined, naming the open supports; no tier decides the
    mixed ones.
    """
    _, sb, _ = sys.ctx.decomp.slices
    k = sys.ctx.decomp.beta.size
    tier = f"beta block of order {k}"
    if not sys.cone_null.shape[1]:
        return _noncritical(f"exact: {tier}, critical cone is {{0}}, which holds no witness")
    iu = svec_indices(k)
    open_supports = []
    for label, pinned, block in (("h psd, e = 0", E, H), ("h = 0, e nsd", H, -E)):
        rows = block[sb, sb][iu]
        Z = _on_null(N, cut, pinned[sb, sb][iu])
        L0 = null_space(np.vstack([Z[: sys.n], rows @ Z]))
        if L0.shape[1]:
            Z = Z @ null_space(L0.T)
        try:
            z = cone_kernel_nontrivial(Z, rows * svec_scale(k)[:, None], k)
        except NumericError:
            open_supports.append(f"pure support '{label}' ({LP_UNDECIDED})")
            continue
        if z is None:
            continue
        if np.linalg.norm(z[: sys.n]) <= 1e-9 * np.linalg.norm(z):
            open_supports.append(f"pure support '{label}' (its solution has xi = 0)")
            continue
        found = _verified_witness(sys, Z, z)
        if found is None:
            open_supports.append(f"pure support '{label}' (witness re-verification failed)")
            continue
        return _critical(found, f"exact: {tier}, pure support '{label}'")

    Qh, blocks = sys.second_order
    for form in ("Q", "-Q"):
        bound, _ = sys.s_procedure if form == "Q" else _supergradient_bound(-Qh, blocks)
        if bound > TOL_POS:
            return _noncritical(
                f"exact: {tier}, S-procedure bound {bound:.6e} > 0 of {form} on C u -C, "
                "where every witness has a zero form"
            )

    frames = [np.eye(k)] + [eigh(B)[1] for B in sys.Dt[:, sb, sb] if np.abs(B).max() > 0]
    for i, Q in enumerate(frames):
        branch, _ = _branch_search(sys, N, cut, *rotated_beta_rows(sys, H, E, Q))
        found = None if branch is None else _verified_witness(sys, *branch)
        if found is not None:
            where = f"frame {i + 1} of {len(frames)} (identity, then Jacobian eigenframes)"
            return _critical(found, f"exact: {tier}, support in {where}")
    open_supports.append("the mixed supports")
    return _unverified(
        tier,
        f"second-order bound not positive and no witness in {len(frames)} frames x 2^{k} supports; "
        f"open: {', '.join(open_supports)}",
    )


def classify_multiplier(sys: CriticalitySystem) -> CriticalityVerdict:
    """Decide whether the system admits a nonzero direction.

    Tiers, in order: the linear rows alone (Noncritical when they force
    xi = 0); support enumeration in the common eigenframe of commuting
    Jacobian beta blocks (a lossless diagonal reduction of the dual
    block; the identity frame, with 1 or 2 supports, when beta has order
    0 or 1); any other 2x2 block (see _classify_two_block); the certified
    tiers of _classify_large_block, which end Undetermined when none
    decides. Every witness goes through _verified_witness; an exact tier
    whose witness still fails, or whose support LP raises NumericError
    without a witness elsewhere, returns Undetermined. The result depends
    on the pair alone.
    """
    H, E = entry_rows(sys)
    _, sb, _ = sys.ctx.decomp.slices
    k = sys.ctx.decomp.beta.size
    common = common_rows(sys, H, E)
    # every support below is solved on N; cut stands for the relative rank
    # cut a stacked SVD of the common and support rows would apply
    N = null_space(common)
    cut = 1e-11 * float(np.abs(common).max())
    z = nontrivial_in_span(N, sys.n)
    if z is None:
        if k == 0:
            return _noncritical("exact: beta empty, homogeneous linear system has no nonzero xi")
        return _noncritical("exact: linear rows alone force xi = 0")

    Q = common_eigenframe(sys.Dt[:, sb, sb], k)
    if Q is not None:
        tier = f"common-eigenframe enumeration over 2^{k} supports"
        branch, undecided = _branch_search(sys, N, cut, *rotated_beta_rows(sys, H, E, Q))
        if branch is not None:
            found = _verified_witness(sys, *branch)
            return _unverified(tier) if found is None else _critical(found, f"exact: {tier}")
        if undecided:
            return _unverified(tier, LP_UNDECIDED)
        if k == 1:  # the wording example2's reports carry
            return _noncritical("exact: beta singleton, both complementarity branches exhausted")
        return _noncritical(f"exact: common-eigenframe data, all 2^{k} complementarity supports exhausted")

    if k == 2:
        return _classify_two_block(sys, H, E, N, cut)
    return _classify_large_block(sys, H, E, N, cut)


def beta_block_rows(sys: CriticalitySystem) -> np.ndarray:
    """Rows taking xi to the svec of the beta block of P^T G'(x) xi P,
    shape (|beta|(|beta|+1)/2, n); no rows when beta is empty."""
    _, sb, _ = sys.ctx.decomp.slices
    return svec_stack(sys.Dt[:, sb, sb]).T


def xpart_condition(sys: CriticalitySystem) -> dict:
    """Test whether the eta-free part of the system forces xi = 0, on its
    span cut from sys.cone_null (_on_null)."""
    d = sys.ctx.decomp
    sa, _, sg = d.slices
    coupling = sys.Dt[:, sa, sg].reshape(sys.n, -1).T
    Z = _on_null(sys.cone_null, sys.rank_atol, np.vstack([sys.hessL, coupling]))
    xi = cone_kernel_nontrivial(Z, beta_block_rows(sys), d.beta.size)
    if xi is None:
        return {"holds": True, "witness": None}
    return {"holds": False, "witness": xi / np.linalg.norm(xi)}


def rcq_holds(Gx: SymMat, Ds: np.ndarray) -> bool:
    """Surjectivity-type qualification at a feasible point, decided dually.

    Gx is G(x) and Ds the symmetric Jacobian stack at x (as a
    CriticalitySystem holds them); G(x) is decomposed here, apart from
    the split of G(x) + Y. The point is feasible when lambda_min(G(x)) is
    at least -CERTIFICATION_TOL max(1, |lambda|_max), which every
    certified pair meets.
    """
    d = spectral_decompose(Gx)
    scale = max(1.0, float(np.abs(d.lam).max()))
    if d.lam.min() < -CERTIFICATION_TOL * scale:
        raise InputDataError("point is infeasible: constraint matrix has a negative eigenvalue")
    t = d.slices[1].start  # the eigenvalues at most tol_zero: the trailing block from t
    return subspace_psd_nontrivial(null_space(svec_stack(symmetrized(_rotated(d, Ds)[:, t:, t:]))), d.p - t) is None


def srcq_holds(d: SpectralDecomp, Dt: np.ndarray) -> bool:
    """Strict qualification at a KKT pair, via the polar-cone kernel.

    d is the split of G(x) + Y and Dt the Jacobians rotated into its
    eigenframe (the ctx.decomp and Dt of a CriticalitySystem).
    """
    t = d.slices[1].start  # the reduced variable: the trailing beta u gamma block from t
    q, nb = d.p - t, d.beta.size
    nsv = q * (q + 1) // 2
    # selection rows: the leading principal subblock of the reduced
    # variable, in matching isometric svec coordinates on both sides
    block = np.eye(nsv)[svec_indices(q)[1] < nb]
    v = cone_kernel_nontrivial(null_space(svec_stack(symmetrized(Dt[:, t:, t:]))), -block, nb)
    return v is None


def check_rcq(pd: ProblemData, xbar) -> bool:
    """rcq_holds at xbar, from the problem data."""
    kern, x = ProblemKernels(pd), _checked_vector(xbar, pd.n, "x")
    Ds = symmetrized(kern.jacobians(x).reshape(pd.n, pd.p, pd.p))
    return rcq_holds(SymMat(kern.G(x)), Ds)


def check_srcq(pd: ProblemData, xbar, ybar) -> bool:
    """srcq_holds at the pair (xbar, ybar), from the problem data."""
    kkt = kkt_point(pd, xbar, ybar)
    d = complementary_split(kkt).decomp
    return srcq_holds(d, _rotated(d, kkt.Ds))


# ----------------------------------------------------------------------
# diagonal problems as scalar-constraint programs


@dataclass(frozen=True)
class NLPSystem:
    """Scalar-constraint form of a problem with all-diagonal matrices."""

    f_lin: np.ndarray
    f_quad: np.ndarray
    g0: np.ndarray
    glin: np.ndarray
    gquad: np.ndarray

    @property
    def n(self) -> int:
        return self.f_lin.size

    @property
    def m(self) -> int:
        return self.g0.size

    def g(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.g0 + self.glin @ x + 0.5 * np.einsum("jab,a,b->j", self.gquad, x, x)

    def grad_g(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.glin + np.einsum("jab,b->ja", self.gquad, x)


def diagonal_reduction(pd: ProblemData) -> Optional[NLPSystem]:
    """Scalarize the constraint when every data matrix is diagonal: no
    off-diagonal entry above 1e-12 * max(1, largest entry of its matrix)."""
    n, p = pd.n, pd.p
    mats = np.concatenate([pd.G_const[None], pd.G_lin, pd.G_quad.reshape(n * n, p, p)])
    off = np.abs(mats[:, ~np.eye(p, dtype=bool)]).max(axis=1, initial=0.0)
    if (off > 1e-12 * np.maximum(1.0, np.abs(mats).max(axis=(1, 2), initial=0.0))).any():
        return None
    diag = np.diagonal(mats, axis1=1, axis2=2)
    glin = np.ascontiguousarray(diag[1 : n + 1].T)
    gquad = np.ascontiguousarray(diag[n + 1 :].reshape(n, n, p).transpose(2, 0, 1))
    return NLPSystem(pd.f_lin.copy(), pd.f_quad.copy(), diag[0].copy(), glin, gquad)


def classify_nlp(nlp: NLPSystem, xbar, mu) -> CriticalityVerdict:
    """Exact branch enumeration of the scalarized criticality system; a
    constraint is active, and a multiplier zero, within 1e-8 relative.
    InputDataError unless xbar has n entries and mu has m."""
    xbar, mu = _checked_vector(xbar, nlp.n, "xbar"), _checked_vector(mu, nlp.m, "mu")
    g = nlp.g(xbar)
    grads = nlp.grad_g(xbar)
    zero = 1e-8 * max(1.0, float(np.abs(g).max()), float(np.abs(mu).max()))
    active = np.abs(g) <= zero
    if np.any(mu > zero):
        raise InputDataError("scalar multiplier has the wrong sign")
    if np.any(~active & (np.abs(mu) > zero)):
        raise InputDataError("multiplier not complementary to an inactive constraint")
    i_minus = [j for j in range(nlp.m) if active[j] and mu[j] < -zero]
    i_zero = [j for j in range(nlp.m) if active[j] and abs(mu[j]) <= zero]
    inactive = [j for j in range(nlp.m) if not active[j]]
    hessL = nlp.f_quad + np.einsum("j,jab->ab", mu, nlp.gquad)
    hessL = 0.5 * (hessL + hessL.T)

    dim = nlp.n + nlp.m
    g_rows = np.hstack([grads, np.zeros((nlp.m, nlp.m))])
    e_rows = np.eye(dim)[nlp.n :]
    base = np.vstack([np.hstack([hessL, grads.T]), e_rows[inactive], g_rows[i_minus]])
    g_zero, e_zero = g_rows[i_zero], e_rows[i_zero]

    def _residual(z) -> float:
        xi = z[: nlp.n]
        eta = z[nlp.n :]
        r1 = np.linalg.norm(hessL @ xi + grads.T @ eta)
        parts = []
        for j in range(nlp.m):
            a = g[j] + mu[j]
            w = grads[j] @ xi + eta[j]
            if a > 0:
                proj = w
            elif a < 0:
                proj = 0.0
            else:
                proj = max(w, 0.0)
            parts.append(grads[j] @ xi - proj)
        return math.hypot(r1, float(np.linalg.norm(parts)))

    tier = f"scalar branch enumeration over 2^{len(i_zero)} supports"
    undecided = False
    # every support is solved on N (see _on_null), cut as in classify_multiplier
    N = null_space(base)
    cut = 1e-11 * max(1.0, float(np.abs(base).max()), float(np.abs(g_zero).max(initial=0.0)))
    for bits in itertools.product((0, 1), repeat=len(i_zero)):
        on = np.array(bits, dtype=bool)[:, None]
        Z = _on_null(N, cut, np.where(on, e_zero, g_zero))
        try:
            z = nontrivial_in_span(Z, nlp.n, np.where(on, g_zero, -e_zero))
        except NumericError:
            undecided = True
            continue
        if z is not None:
            z = z / np.linalg.norm(z[: nlp.n])
            res = _residual(z)
            if res > 1e-7:
                z = polish_in_span(Z, z, nlp.n)
                res = _residual(z)
            if res > 1e-7:
                return _unverified(tier)
            return CriticalityVerdict(CRITICAL, (z[: nlp.n], SymMat.diag(z[nlp.n :])), f"exact: {tier}", res)
    if undecided:
        return _unverified(tier, LP_UNDECIDED)
    return _noncritical(f"exact: {tier} exhausted")
