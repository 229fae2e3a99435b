"""Shared feasibility kernels for homogeneous cone systems.

Three deciders live here. A dense phase-1 simplex with Bland's rule
settles linear feasibility. On top of it, nontrivial_in_span decides
whether the span of given orthonormal columns, cut by homogeneous
inequalities, holds a point whose designated leading block is nonzero;
polish_in_span re-solves such a point at its unit leading block. For
semidefinite blocks, subspace_psd_nontrivial decides whether the span
of given orthonormal svec columns meets the PSD cone nontrivially, and
cone_kernel_nontrivial lifts that to a span with one PSD block.

subspace_psd_nontrivial tries its tiers in order: a Gordan certificate
(the fit of the identity onto the span's complement is positive
definite), a diagonal span (an LP sweep), q = 2 (the det-form test), a
commuting complement (a certified LP on the diagonal of its common
eigenframe), and otherwise one primal-dual interior-point solve of a
small SDP. Every answer is verified; the interior-point tier raises
rather than guess.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import NumericError
from .symmat import common_eigenframe, eigh, psd_preimage_span, sym_mat_stack, sym_vec

FEAS_TOL = 1e-9
IPM_STEPS = 50  # iteration cap of the interior-point tier


def null_space(A, atol: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of A.

    Singular values at or below max(1e-11 * s_max, atol) count as zero, so
    an atol taken from the data's scale keeps rows of pure round-off, such
    as a zero block seen in a rotated frame, from cutting the space.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if n == 0:
        return np.zeros((0, 0))
    if m == 0 or not np.any(A):
        return np.eye(n)
    _, s, vt = np.linalg.svd(A)
    r = int(np.sum(s > max(1e-11 * s[0], atol)))
    return vt[r:].T.copy()


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]


def _phase1(A: np.ndarray, b: np.ndarray):
    """Minimize the artificial-variable sum of {x >= 0 : Ax = b}.

    Returns (x, infeasibility). Bland's rule throughout, so no cycling;
    the iteration cap only guards against numerical stalls.
    """
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    max_iter = 200 * (m + n + 10)
    for _ in range(max_iter):
        obj = T[m, : n + m]
        enter = -1
        for j in range(n + m):
            if obj[j] < -FEAS_TOL:
                enter = j
                break
        if enter < 0:
            break
        col = T[:m, enter]
        pos = col > FEAS_TOL
        if not np.any(pos):
            raise NumericError("phase-1 simplex: unbounded pivot column")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / col[pos]
        rmin = ratios.min()
        ties = [i for i in range(m) if ratios[i] <= rmin + 1e-12 * (1.0 + rmin)]
        leave = min(ties, key=lambda i: basis[i])
        _pivot(T, leave, enter)
        basis[leave] = enter
    else:
        raise NumericError("phase-1 simplex: iteration limit reached")
    x = np.zeros(n + m)
    for i, bi in enumerate(basis):
        x[bi] = T[i, -1]
    return x[:n], max(-T[m, -1], 0.0)


def linear_feasible(A, b):
    """Find free x with A x >= b.

    Returns (x or None, infeasibility measure). Free variables are split
    into positive parts and every row gets a slack column before the
    phase-1 call; rows are normalized so FEAS_TOL is meaningful.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    # columns: u (n), w (n), slacks (m); x = u - w
    S = np.hstack([A, -A, -np.eye(m)])
    scale = np.maximum(1.0, np.maximum(np.abs(S).max(axis=1), np.abs(b)))
    sol, infeas = _phase1(S / scale[:, None], np.asarray(b, dtype=float) / scale)
    if infeas > FEAS_TOL:
        return None, infeas
    return sol[:n] - sol[n : 2 * n], infeas


def nontrivial_in_span(Z: np.ndarray, xi_dim: int, ineq_rows=()) -> Optional[np.ndarray]:
    """Find z in the span of the orthonormal columns Z with a nonzero leading block.

    Seeks z = Z c with a z >= 0 for every inequality row a and
    z[:xi_dim] != 0; returns z, or None when none exists.

    With at most one inequality the decision is exact by symmetry: the
    leading-block projection is maximized by an SVD, and a sign flip
    fixes the single inequality. With two or more inequalities each
    leading coordinate is pinned to 1 in turn (both signs) and the
    resulting LP decides, which is exhaustive because any solution has
    some nonzero coordinate that scaling normalizes.
    """
    if Z.shape[1] == 0:
        return None
    Zxi = Z[:xi_dim]
    if np.abs(Zxi).max() <= 1e-12:
        return None
    ineq_rows = [np.asarray(a, dtype=float) for a in ineq_rows]
    if len(ineq_rows) <= 1:
        _, _, vt = np.linalg.svd(Zxi)
        c = vt[0]
        if ineq_rows and ineq_rows[0] @ (Z @ c) < 0:
            c = -c
        return Z @ c
    A_ge = np.stack([a @ Z for a in ineq_rows])
    order = np.argsort(-np.linalg.norm(Zxi, axis=1))
    for i in order:
        if np.linalg.norm(Zxi[i]) <= 1e-12:
            continue
        for s in (1.0, -1.0):
            rows = np.vstack([A_ge, s * Zxi[i]])
            rhs = np.zeros(rows.shape[0])
            rhs[-1] = 1.0
            c, _ = linear_feasible(rows, rhs)
            if c is None:
                continue
            z = Z @ c
            viol = min((a @ z for a in ineq_rows), default=0.0)
            if viol < -FEAS_TOL * max(1.0, float(np.linalg.norm(z))):
                continue
            if np.linalg.norm(z[:xi_dim]) <= 1e-9 * max(1.0, float(np.linalg.norm(z))):
                continue
            return z
    return None


def polish_in_span(Z: np.ndarray, z: np.ndarray, xi_dim: int) -> np.ndarray:
    """The least-norm point of the span of the orthonormal columns Z whose
    leading block is z's, scaled to unit norm.

    The point is Z c for the least-norm c with Z[:xi_dim] c = xi, which is
    exact because the span is linear. It removes the error an inexact
    solve leaves in the trailing block; no point of the span can repair a
    xi that the span itself rejects.
    """
    xi = z[:xi_dim] / np.linalg.norm(z[:xi_dim])
    return Z @ np.linalg.lstsq(Z[:xi_dim], xi, rcond=None)[0]


def _commuting_rows_tier(V: np.ndarray, q: int):
    """Exact decision for a span whose complement commutes: (decided, W or None).

    In the common eigenframe Q of an orthonormal basis R_k of the
    complement only diag(Q^T W Q) is constrained, and the diagonal of a
    PSD matrix is a nonnegative vector, so span(V) meets S^q_+ \\ {0} iff
    {d >= 0, 1^T d = 1, D d = 0} is feasible, D[k, i] = (Q^T R_k Q)_ii. A
    feasible d gives W = Q diag(d) Q^T, returned only if svec W lies
    within 1e-9 of span(V); an infeasible LP has a Gordan multiplier y
    with D^T y >= 1, and None is returned only if sum_k y_k R_k is
    positive definite beyond round-off. A complement that does not
    commute, an LP that raises, or a verdict that fails its check leave
    the decision open (False, None).
    """
    basis = null_space(V.T)
    mats = sym_mat_stack(basis.T, q)
    Q = common_eigenframe(mats, q)
    if Q is None:
        return False, None
    D = np.einsum("ij,rik,kj->rj", Q, mats, Q)  # r x q
    lhs = np.vstack([D, np.ones(q)])
    rhs = np.zeros(lhs.shape[0])
    rhs[-1] = 1.0
    try:
        d, infeas = _phase1(lhs, rhs)
        y = None if infeas <= FEAS_TOL else linear_feasible(D.T, np.ones(q))[0]
    except NumericError:
        return False, None
    if infeas <= FEAS_TOL:
        W = (Q * np.maximum(d, 0.0)) @ Q.T
        W /= np.linalg.norm(W)
        if np.linalg.norm(basis.T @ sym_vec(W)) <= FEAS_TOL:
            return True, W
    elif y is not None:
        lam, _ = eigh(sym_mat_stack(basis @ y, q))
        if lam[-1] > 1e-12 * lam[0]:
            return True, None
    return False, None


def _step_length(X: np.ndarray, dX: np.ndarray) -> float:
    """0.95 of the largest step that keeps X + step dX positive definite, at most 1."""
    Li = np.linalg.inv(np.linalg.cholesky(X))
    low = np.linalg.eigvalsh(Li @ dX @ Li.T)[0]
    return min(1.0, -0.95 / low) if low < 0.0 else 1.0


def _interior_point_tier(V: np.ndarray, q: int) -> Optional[np.ndarray]:
    """Whether span(V) meets S^q_+ \\ {0}: max t s.t. W - t I >= 0, W = mat(V c),
    <I, W> = 1, c = a/|a|^2 - K y (a = V^T svec(I) != 0 once the Gordan fit
    declines, K a basis of its complement), by HKM steps with Mehrotra's
    predictor-corrector. The primal is min <C, X> over X >= 0, tr X = 1 and
    <A_j, X> = 0, C = mat(V a)/|a|^2, A_j = mat(V K e_j). None once beta =
    <C, X> < 0 and the part of Z = X - beta I in span(V) is below 1e-9 |Z|
    and lambda_min(Z); once t > 0 or mu is at round-off, W/|W| if its
    lambda_min >= -1e-8 and svec W lies within 1e-9 of span(V)."""
    a = V.T @ sym_vec(np.eye(q))
    K = null_space(a[None, :])
    m = K.shape[1] + 1
    A = np.concatenate([sym_mat_stack((V @ K).T, q), np.eye(q)[None]])
    Af = A.reshape(m, q * q)
    C = sym_mat_stack(V @ a, q) / (a @ a)
    y = np.append(np.zeros(m - 1), np.linalg.eigvalsh(C)[0] - 1.0)  # t below lambda_min(C)
    X = np.eye(q) / q
    for _ in range(IPM_STEPS):
        S = C - np.tensordot(y, A, 1)
        beta = float(np.vdot(C, X))
        if beta < 0.0:  # Z = X - beta I is positive definite
            Z = (X - beta * np.eye(q)) / np.linalg.norm(X - beta * np.eye(q))
            part = np.linalg.norm(V.T @ sym_vec(Z))
            if part <= FEAS_TOL and np.linalg.eigvalsh(Z)[0] > part:
                return None
        mu = float(np.vdot(X, S)) / q
        if y[-1] > 0.0 or mu <= 1e-13:
            break
        try:
            Si = np.linalg.inv(S)
            M = Af @ (X @ A @ Si).reshape(m, -1).T  # M_ij = <A_i, X A_j S^-1>
            rp = np.eye(m)[-1] - Af @ X.ravel()
            def direction(R):  # dX + sym(X dS S^-1) = R, <A_i, dX> = rp_i, dS = -sum_j dy_j A_j
                dy = np.linalg.solve(M, rp - Af @ R.ravel())
                dS = -np.tensordot(dy, A, 1)
                dX = R - X @ dS @ Si
                return 0.5 * (dX + dX.T), dy, dS
            dX, dy, dS = direction(-X)
            ap, ad = _step_length(X, dX), _step_length(S, dS)
            sigma = min(1.0, float(np.vdot(X + ap * dX, S + ad * dS)) / (q * mu)) ** 3
            dX, dy, dS = direction(sigma * mu * Si - X - dX @ dS @ Si)
            ap, ad = _step_length(X, dX), _step_length(S, dS)
        except np.linalg.LinAlgError:
            break
        X, y = X + ap * dX, y + ad * dy
    W = sym_mat_stack(V @ (a / (a @ a) - K @ y[:-1]), q)
    W = W / np.linalg.norm(W)
    w = sym_vec(W)
    if np.linalg.eigvalsh(W)[0] >= -1e-8 and np.linalg.norm(w - V @ (V.T @ w)) <= FEAS_TOL:
        return W
    raise NumericError(f"subspace PSD feasibility undecided: q={q}, t={y[-1]:.3e}, mu={mu:.3e}")


def subspace_psd_nontrivial(V: np.ndarray, q: int) -> Optional[np.ndarray]:
    """Find a nonzero PSD matrix in the span of the orthonormal columns V
    (isometric svec coordinates of S^q), or certify none. No columns give
    None, and a span of all of S^q gives I/sqrt(q).

    Exact duality drives the trivial certificate: the subspace meets the
    PSD cone only at 0 iff its orthogonal complement contains a positive
    definite matrix, because the trace-one spectahedron slice is compact
    and strictly separable from the subspace. The tiers, in order: that
    certificate for the fit s - V V^T s of s = svec(I) onto the
    complement; a diagonal fast path when every matrix of the span is
    diagonal; at q = 2 the exact det-form test; for a commuting
    complement a certified LP on the diagonal of its common eigenframe
    (_commuting_rows_tier); otherwise one interior-point solve whose PSD
    witness or positive definite complement matrix is verified before it
    is returned (_interior_point_tier), which raises rather than guess.
    """
    if V.shape[1] == 0:
        return None
    if V.shape[1] == q * (q + 1) // 2:
        return np.eye(q) / np.sqrt(q)

    # Gordan certificate: the unit fit of the identity onto the complement is
    # positive definite; its trace is |fit|, so |fit| < 1e-7 q is round-off
    s = sym_vec(np.eye(q))
    fit = s - V @ (V.T @ s)
    nt = np.linalg.norm(fit)
    if nt >= 1e-7 * q and eigh(sym_mat_stack(fit / nt, q))[0].min() >= 1e-7:
        return None

    # diagonal fast path: if every matrix of the span is diagonal the PSD
    # condition is componentwise and an LP sweep is exact
    mats = sym_mat_stack(V.T, q)
    if all(np.abs(M - np.diag(np.diag(M))).max() <= 1e-12 * max(1.0, np.abs(M).max()) for M in mats):
        D = np.stack([np.diag(M) for M in mats]).T  # q x dimV
        for j in range(q):
            rows_ge = np.vstack([D, D[j]])
            rhs = np.zeros(q + 1)
            rhs[-1] = 1.0
            c, _ = linear_feasible(rows_ge, rhs)
            if c is not None:
                W = np.diag(D @ c)
                return W / np.linalg.norm(W)
        return None

    if q == 2:
        # the map c -> mat(V c) is injective, so the subspace meets
        # S^2_+ \ {0} iff its det form is not negative definite
        _, anchor = psd_preimage_span(V[0], V[1] / np.sqrt(2.0), V[2])
        if anchor is None:
            return None
        W = sym_mat_stack(V @ anchor, 2)
        return W / np.linalg.norm(W)

    decided, W = _commuting_rows_tier(V, q)
    if decided:
        return W
    return _interior_point_tier(V, q)


def cone_kernel_nontrivial(Z: np.ndarray, block_rows: np.ndarray, q: int) -> Optional[np.ndarray]:
    """Find v != 0 in the span of the orthonormal columns Z with
    mat(block_rows v) PSD.

    block_rows maps v to the svec of a symmetric q-block. Returns a
    witness v or None when only v = 0 qualifies. The kernel of the block
    map inside the span settles the easy case (block zero is PSD);
    otherwise the block map is injective there and the decision reduces
    to subspace_psd_nontrivial on its image, whose witness is pulled back
    through the factors of the one SVD of the map.
    """
    if Z.shape[1] == 0:
        return None
    B = np.asarray(block_rows, dtype=float) @ Z
    if not np.any(B):
        return Z[:, 0]
    # one SVD for the kernel of B and its image, cut relative to the rows: B at round-off has a kernel
    U, s, vt = np.linalg.svd(B)
    r = int(np.sum(s > 1e-11 * np.abs(block_rows).max()))
    if r < B.shape[1]:
        return Z @ vt[r:].T.copy()[:, 0]  # null_space's layout, which the product's rounding follows
    W = subspace_psd_nontrivial(U[:, :r], q)
    if W is None:
        return None
    w = sym_vec(W)
    t = U[:, :r].T @ w
    if np.linalg.norm(w - U[:, :r] @ t) > 1e-7:
        raise NumericError("cone kernel: PSD witness fell outside the block image")
    v = Z @ (vt.T @ (t / s))
    return v / np.linalg.norm(v)
