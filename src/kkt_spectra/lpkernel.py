"""Shared feasibility kernels for homogeneous cone systems.

Three deciders live here. A dense phase-1 simplex with Bland's rule
settles linear feasibility. On top of it, nontrivial_in_span decides
whether the span of given orthonormal columns, cut by homogeneous
inequalities, holds a point whose designated leading block is nonzero;
polish_in_span re-solves such a point at its unit leading block. For
semidefinite blocks, subspace_psd_nontrivial decides whether a linear
subspace of symmetric matrices meets the PSD cone nontrivially, and
cone_kernel_nontrivial lifts that to a span with one signed block.

subspace_psd_nontrivial tries its tiers in order: a Gordan certificate
(the fit of the identity onto the complement is positive definite), a
diagonal null space (an LP sweep), q = 2 (the det-form test), commuting
rows (a certified LP on the diagonal of their common eigenframe), and
otherwise one primal-dual interior-point solve of a small SDP. Every
answer is verified; the interior-point tier raises rather than guess.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import NumericError
from .symmat import common_eigenframe, eigh, psd_preimage_span, sym_mat_stack, sym_vec

FEAS_TOL = 1e-9
IPM_STEPS = 50  # iteration cap of the interior-point tier


def null_space(A, rtol: float = 1e-11, atol: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of A.

    Singular values at or below max(rtol * s_max, atol) count as zero, so
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
    r = int(np.sum(s > max(rtol * s[0], atol)))
    return vt[r:].T.copy()


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]


def _phase1(A: np.ndarray, b: np.ndarray, tol: float = FEAS_TOL):
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
            if obj[j] < -tol:
                enter = j
                break
        if enter < 0:
            break
        col = T[:m, enter]
        pos = col > tol
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


def linear_feasible(A_eq, b_eq, A_ge=None, b_ge=None, tol: float = FEAS_TOL):
    """Find free x with A_eq x = b_eq and A_ge x >= b_ge.

    Returns (x or None, infeasibility measure). Free variables are split
    into positive parts and inequality rows get slack columns before the
    phase-1 call; rows are normalized so the tolerance is meaningful.
    """
    A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float)) if A_eq is not None else None
    blocks = []
    rhs = []
    n = None
    if A_eq is not None and A_eq.shape[0]:
        n = A_eq.shape[1]
        blocks.append(A_eq)
        rhs.append(np.asarray(b_eq, dtype=float).reshape(-1))
    if A_ge is not None:
        A_ge = np.atleast_2d(np.asarray(A_ge, dtype=float))
        if A_ge.shape[0]:
            n = A_ge.shape[1] if n is None else n
            blocks.append(A_ge)
            rhs.append(np.asarray(b_ge, dtype=float).reshape(-1))
    if n is None:
        raise NumericError("linear_feasible: no constraints given")
    k_ge = blocks[-1].shape[0] if A_ge is not None and blocks[-1] is A_ge else 0
    M = np.vstack(blocks)
    v = np.concatenate(rhs)
    m = M.shape[0]
    # columns: u (n), w (n), slacks (k_ge); x = u - w
    S = np.zeros((m, 2 * n + k_ge))
    S[:, :n] = M
    S[:, n : 2 * n] = -M
    if k_ge:
        S[m - k_ge :, 2 * n :] = -np.eye(k_ge)
    scale = np.maximum(1.0, np.maximum(np.abs(S).max(axis=1), np.abs(v)))
    S /= scale[:, None]
    v = v / scale
    sol, infeas = _phase1(S, v, tol)
    if infeas > tol:
        return None, infeas
    return sol[:n] - sol[n : 2 * n], infeas


def nontrivial_in_span(Z: np.ndarray, xi_dim: int, ineq_rows=()):
    """Find z in the span of the orthonormal columns Z with a nonzero leading block.

    Seeks z = Z c with a z >= 0 for every inequality row a and
    z[:xi_dim] != 0; returns (z or None, merit). The merit is 0 when a
    witness exists and otherwise the smallest phase-1 infeasibility seen.

    With at most one inequality the decision is exact by symmetry: the
    leading-block projection is maximized by an SVD, and a sign flip
    fixes the single inequality. With two or more inequalities each
    leading coordinate is pinned to 1 in turn (both signs) and the
    resulting LP decides, which is exhaustive because any solution has
    some nonzero coordinate that scaling normalizes.
    """
    if Z.shape[1] == 0:
        return None, np.inf
    Zxi = Z[:xi_dim]
    if np.abs(Zxi).max() <= 1e-12:
        return None, np.inf
    ineq_rows = [np.asarray(a, dtype=float) for a in ineq_rows]
    if len(ineq_rows) <= 1:
        _, _, vt = np.linalg.svd(Zxi)
        c = vt[0]
        if ineq_rows and ineq_rows[0] @ (Z @ c) < 0:
            c = -c
        z = Z @ c
        return z, 0.0
    A_ge = np.stack([a @ Z for a in ineq_rows])
    best = np.inf
    order = np.argsort(-np.linalg.norm(Zxi, axis=1))
    for i in order:
        if np.linalg.norm(Zxi[i]) <= 1e-12:
            continue
        for s in (1.0, -1.0):
            rows = np.vstack([A_ge, s * Zxi[i]])
            rhs = np.zeros(rows.shape[0])
            rhs[-1] = 1.0
            c, infeas = linear_feasible(None, None, rows, rhs)
            best = min(best, infeas)
            if c is None:
                continue
            z = Z @ c
            viol = min((a @ z for a in ineq_rows), default=0.0)
            if viol < -FEAS_TOL * max(1.0, float(np.linalg.norm(z))):
                continue
            if np.linalg.norm(z[:xi_dim]) <= 1e-9 * max(1.0, float(np.linalg.norm(z))):
                continue
            return z, 0.0
    return None, best


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


def _commuting_rows_tier(rows: np.ndarray, basis: np.ndarray, q: int):
    """Exact decision for rows that commute: (decided, W or None).

    In the common eigenframe Q of the row space only diag(Q^T W Q) is
    constrained, and the diagonal of a PSD matrix is a nonnegative vector,
    so the subspace meets S^q_+ \\ {0} iff {d >= 0, 1^T d = 1, D d = 0} is
    feasible, D[k, i] = (Q^T R_k Q)_ii over an orthonormal basis R_k of the
    row space. A feasible d gives W = Q diag(d) Q^T, returned only if the
    rows annihilate it to 1e-9; an infeasible LP has a Gordan multiplier y
    with D^T y >= 1, and None is returned only if mat(basis y) is positive
    definite beyond round-off. Non-commuting rows, an LP that raises, or a
    verdict that fails its check leave the decision open (False, None).
    """
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
        y = None if infeas <= FEAS_TOL else linear_feasible(None, None, D.T, np.ones(q))[0]
    except NumericError:
        return False, None
    if infeas <= FEAS_TOL:
        W = (Q * np.maximum(d, 0.0)) @ Q.T
        W /= np.linalg.norm(W)
        if np.linalg.norm(rows @ sym_vec(W)) <= FEAS_TOL * max(1.0, np.abs(rows).max()):
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


def _interior_point_tier(rows: np.ndarray, N: np.ndarray, q: int) -> Optional[np.ndarray]:
    """Whether span(N) meets S^q_+ \\ {0}: max t s.t. W - t I >= 0, W = mat(N c),
    <I, W> = 1, c = a/|a|^2 - K y (a = N^T svec(I) != 0 once the Gordan fit
    declines, K a basis of its complement), by HKM steps with Mehrotra's
    predictor-corrector. The primal is min <C, X> over X >= 0, tr X = 1 and
    <A_j, X> = 0, C = mat(N a)/|a|^2, A_j = mat(N K e_j). None once beta =
    <C, X> < 0 and the part of Z = X - beta I in span(N) is below 1e-9 |Z|
    and lambda_min(Z); once t > 0 or mu is at round-off, W/|W| if its
    lambda_min >= -1e-8 and the rows annihilate it to 1e-9."""
    a = N.T @ sym_vec(np.eye(q))
    K = null_space(a[None, :])
    m = K.shape[1] + 1
    A = np.concatenate([sym_mat_stack((N @ K).T, q), np.eye(q)[None]])
    Af = A.reshape(m, q * q)
    C = sym_mat_stack(N @ a, q) / (a @ a)
    y = np.append(np.zeros(m - 1), np.linalg.eigvalsh(C)[0] - 1.0)  # t below lambda_min(C)
    X = np.eye(q) / q
    for _ in range(IPM_STEPS):
        S = C - np.tensordot(y, A, 1)
        beta = float(np.vdot(C, X))
        if beta < 0.0:  # Z = X - beta I is positive definite
            Z = (X - beta * np.eye(q)) / np.linalg.norm(X - beta * np.eye(q))
            part = np.linalg.norm(N.T @ sym_vec(Z))
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
    W = sym_mat_stack(N @ (a / (a @ a) - K @ y[:-1]), q)
    W = W / np.linalg.norm(W)
    residual = np.linalg.norm(rows @ sym_vec(W)) / max(1.0, np.abs(rows).max())
    if np.linalg.eigvalsh(W)[0] >= -1e-8 and residual <= FEAS_TOL:
        return W
    raise NumericError(f"subspace PSD feasibility undecided: q={q}, t={y[-1]:.3e}, mu={mu:.3e}")


def subspace_psd_nontrivial(constraint_rows, q: int) -> Optional[np.ndarray]:
    """Find a nonzero PSD matrix in a subspace of S^q, or certify none.

    The subspace is {W : <R_k, W> = 0} for the given rows (isometric svec
    coordinates). Exact duality drives the trivial certificate: the
    subspace meets the PSD cone only at 0 iff its orthogonal complement
    contains a positive definite matrix, because the trace-one spectahedron
    slice is compact and strictly separable from the subspace. The tiers,
    in order: that certificate for the least-squares fit of the identity
    onto the complement; a diagonal fast path when every null-space
    matrix is diagonal; at q = 2 the exact det-form test; for commuting
    rows a certified LP on the diagonal of their common eigenframe (see
    _commuting_rows_tier); otherwise one interior-point solve whose PSD
    witness or positive definite complement matrix is verified before it
    is returned (_interior_point_tier). If neither verifies, the call
    raises NumericError rather than guess.
    """
    if q == 0:
        return None
    nfull = q * (q + 1) // 2
    rows = np.atleast_2d(np.asarray(constraint_rows, dtype=float)) if np.size(constraint_rows) else np.zeros((0, nfull))
    if rows.size == 0:
        rows = np.zeros((0, nfull))
    U, s, _ = np.linalg.svd(rows.T, full_matrices=False) if rows.shape[0] else (np.zeros((nfull, 0)), np.zeros(0), None)
    r = int(np.sum(s > 1e-11 * s[0])) if s.size else 0
    if r == 0:
        return np.eye(q) / np.sqrt(q)
    if r == nfull:
        return None
    basis = U[:, :r]  # orthonormal basis of the complement (row space)

    # Gordan certificate: the fit of the identity onto the complement, if positive definite
    t = basis.T @ sym_vec(np.eye(q))
    nt = np.linalg.norm(t)
    t = t / nt if nt > 0 else np.eye(r)[0]
    lam, V = eigh(sym_mat_stack(basis @ t, q))
    if lam.min() >= 1e-7:
        return None
    N = null_space(rows)

    # diagonal fast path: if every null-space matrix is diagonal the PSD
    # condition is componentwise and an LP sweep is exact
    mats = sym_mat_stack(N.T, q)
    if all(np.abs(M - np.diag(np.diag(M))).max() <= 1e-12 * max(1.0, np.abs(M).max()) for M in mats):
        D = np.stack([np.diag(M) for M in mats]).T  # q x dimV
        for j in range(q):
            rows_ge = np.vstack([D, D[j]])
            rhs = np.zeros(q + 1)
            rhs[-1] = 1.0
            c, _ = linear_feasible(None, None, rows_ge, rhs)
            if c is not None:
                W = np.diag(D @ c)
                return W / np.linalg.norm(W)
        return None

    if q == 2:
        # the map c -> mat(N c) is injective, so the subspace meets
        # S^2_+ \ {0} iff its det form is not negative definite
        _, anchor = psd_preimage_span(N[0], N[1] / np.sqrt(2.0), N[2])
        if anchor is None:
            return None
        W = sym_mat_stack(N @ anchor, 2)
        return W / np.linalg.norm(W)

    decided, W = _commuting_rows_tier(rows, basis, q)
    if decided:
        return W
    return _interior_point_tier(rows, N, q)


def cone_kernel_nontrivial(Z: np.ndarray, block_rows, q: int, sign: float = 1.0) -> Optional[np.ndarray]:
    """Find v != 0 in the span of the orthonormal columns Z with
    sign * mat(block_rows v) PSD.

    block_rows maps v to the svec of a symmetric q-block. Returns a
    witness v or None when only v = 0 qualifies. The kernel of the block
    map inside the span settles the easy case (block zero is PSD);
    otherwise the block map is injective there and the decision reduces
    to subspace_psd_nontrivial on its image.
    """
    if Z.shape[1] == 0:
        return None
    if q == 0 or block_rows is None:
        return Z[:, 0]
    B = (float(sign) * np.atleast_2d(np.asarray(block_rows, dtype=float))) @ Z
    if not np.any(B):
        return Z[:, 0]
    # one SVD: the kernel of B as null_space reads it, and the complement of its image
    U, s, vt = np.linalg.svd(B)
    r = int(np.sum(s > 1e-11 * s[0]))
    if r < B.shape[1]:
        return Z @ vt[r:].T.copy()[:, 0]  # null_space's layout, which the product's rounding follows
    comp = U[:, r:].T
    W = subspace_psd_nontrivial(comp, q)
    if W is None:
        return None
    c, *_ = np.linalg.lstsq(B, sym_vec(W), rcond=None)
    if np.linalg.norm(B @ c - sym_vec(W)) > 1e-7:
        raise NumericError("cone kernel: PSD witness fell outside the block image")
    v = Z @ c
    return v / np.linalg.norm(v)
