"""Shared fixtures and generators for the test suite."""

import numpy as np
import pytest

from kkt_spectra.cones import cone_context_from_matrix
from kkt_spectra.criticality import build_system
from kkt_spectra.problem import ProblemKernels, builtin_family, kkt_point, make_problem
from kkt_spectra.symmat import SymMat


@pytest.fixture(scope="session")
def fam2():
    return builtin_family("example2")


@pytest.fixture(scope="session")
def fam3():
    return builtin_family("example3")


def context(pd, x, Y):
    """Analysis context of the pair (x, Y) at the default partition."""
    return build_system(pd, kkt_point(pd, x, Y))


def random_symmetric(rng, p, scale=1.0):
    M = rng.standard_normal((p, p)) * scale
    return SymMat(0.5 * (M + M.T))


def random_cone_context(rng, p):
    """Random PSD/NSD split with a decent chance of zero eigenvalues."""
    kind = rng.integers(0, 3)
    if kind == 0:
        lamv = rng.normal(size=p) * 2
    elif kind == 1:
        lamv = np.concatenate([rng.normal(size=p - p // 2) * 2, np.zeros(p // 2)])
    else:
        lamv = np.concatenate([[1.5], np.zeros(p - 2), [-2.0]]) if p >= 2 else np.array([0.0])
    Q = np.linalg.qr(rng.normal(size=(p, p)))[0]
    return cone_context_from_matrix(SymMat((Q * lamv) @ Q.T))


def sample_diag_problem(rng, n, p, pd_quad=False):
    """Certified KKT pair on a random diagonal-constraint problem.

    Each diagonal entry is strictly active (d > 0), strictly multiplied
    (w > 0), or degenerate (both zero). The linear objective term is
    back-solved so (xbar, diag(-w)) is stationary. pd_quad shifts the
    objective Hessian to be positive definite.
    """
    glin = rng.integers(-2, 3, size=(p, n)).astype(float)
    gquad = rng.integers(-1, 2, size=(p, n, n)).astype(float)
    gquad = 0.5 * (gquad + gquad.transpose(0, 2, 1))
    xbar = rng.integers(-1, 2, size=n).astype(float)
    kind = rng.integers(0, 3, size=p)
    d = np.where(kind == 0, rng.uniform(0.5, 2.0, size=p), 0.0)
    w = np.where(kind == 1, rng.uniform(0.5, 2.0, size=p), 0.0)
    gconst = d - (glin @ xbar + 0.5 * np.einsum("jab,a,b->j", gquad, xbar, xbar))
    fq = rng.integers(-2, 3, size=(n, n)).astype(float)
    fq = 0.5 * (fq + fq.T)
    if pd_quad:
        fq = fq + (np.abs(np.linalg.eigvalsh(fq)).max() + 1.0) * np.eye(n)
    G_lin = [SymMat.diag(glin[:, i]) for i in range(n)]
    G_quad = [[SymMat.diag(gquad[:, i, j]) for j in range(n)] for i in range(n)]
    pd = make_problem(np.zeros(n), fq, SymMat.diag(gconst), G_lin, G_quad)
    Y = SymMat.diag(-w)
    Ds = ProblemKernels(pd).jacobians(xbar).reshape(n, p, p)
    flin = -(fq @ xbar + np.array([SymMat(Dk).inner(Y) for Dk in Ds]))
    pd = make_problem(flin, fq, SymMat.diag(gconst), G_lin, G_quad)
    return pd, xbar, Y, -w


def planted_pair(rng, kind, n, p):
    """Certified pair (pd, x, Y) at a random x with a random alpha/beta/
    gamma split and quadratic G.

    kind 'diagonal': every data matrix diagonal; 'rotated': diagonal data
    seen in a random orthogonal frame; 'coupled': dense data.
    """
    ka, kb, _ = rng.multinomial(p, [1.0 / 3.0] * 3)
    lam = np.concatenate([rng.uniform(0.5, 2.0, ka), np.zeros(p - ka)])
    w = np.concatenate([np.zeros(ka + kb), rng.uniform(0.5, 2.0, p - ka - kb)])
    Q = np.eye(p) if kind == "diagonal" else np.linalg.qr(rng.standard_normal((p, p)))[0]

    def draw():
        M = rng.standard_normal((p, p))
        M = M + M.T if kind == "coupled" else np.diag(np.diag(M))
        return Q @ M @ Q.T

    A = [draw() for _ in range(n)]
    B = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = draw()
    x = rng.standard_normal(n)
    Gx = (Q * lam) @ Q.T
    Y = -(Q * w) @ Q.T
    G0 = Gx - sum(x[i] * (A[i] + 0.5 * sum(x[j] * B[i][j] for j in range(n))) for i in range(n))
    D = [A[i] + sum(x[j] * B[i][j] for j in range(n)) for i in range(n)]
    F = rng.standard_normal((n, n))
    F = F + F.T
    flin = -(F @ x + np.array([np.sum(Dk * Y) for Dk in D]))
    quad = [[SymMat(Bij) for Bij in row] for row in B]
    pd = make_problem(flin, F, SymMat(G0), [SymMat(Ak) for Ak in A], quad)
    return pd, x, SymMat(Y)


def coupled_block_pair(rng, n, q):
    """Pair at x = 0 whose q x q degenerate block is driven by dense
    Jacobians, so its blocks do not commute.

    G(0) = 0 of order q + 1 and Y = Diag(0, ..., 0, -w): beta is the
    first q indices and gamma the last. The first Jacobian is positive
    definite, so Robinson's condition holds, and f_lin makes the pair
    stationary.
    """
    p = q + 1
    w = float(rng.uniform(0.5, 2.0))
    A = [random_symmetric(rng, p).full() for _ in range(n)]
    A[0] = A[0] + (0.5 - min(0.0, np.linalg.eigvalsh(A[0]).min())) * np.eye(p)
    G_lin = [SymMat(Ak) for Ak in A]
    pd = make_problem([w * Ak[-1, -1] for Ak in A], random_symmetric(rng, n).full(), SymMat.zeros(p), G_lin)
    return pd, np.zeros(n), SymMat.diag([0.0] * q + [-w])


def planted_block_pair(rng):
    """Pair at x = 0 with a planted witness that spans all three blocks.

    Returns (pd, x, Y, xi0, eta0). In a random orthogonal frame P, G(0)
    holds lambda_alpha ~ U(0.5, 2) and Y holds lambda_gamma ~ -U(0.5, 2),
    with |alpha|, |gamma| in {1, 2}, |beta| in 1-4 and n in 3-6. The
    witness has, in that frame, complementary beta blocks U diag(a) U^T
    and -U diag(b) U^T, a nonzero alpha x gamma block H_ag and its coupled
    E_ag = -(lambda_j / lambda_i) H_ag, and free beta x gamma and
    gamma x gamma entries of eta0. The first Jacobian is solved so that
    G'(0) xi0 = P H P^T, f_quad so that hessL xi0 = -(<D_k, eta0>)_k with
    dense quadratic G, and f_lin for stationarity.
    """

    def sym(m):
        M = rng.standard_normal((m, m))
        return M + M.T

    ka, kb, kg = int(rng.integers(1, 3)), int(rng.integers(1, 5)), int(rng.integers(1, 3))
    n, p = int(rng.integers(3, 7)), ka + kb + kg
    sa, sb, sg = slice(0, ka), slice(ka, ka + kb), slice(ka + kb, p)
    P = np.linalg.qr(rng.standard_normal((p, p)))[0]
    lam_a, lam_g = rng.uniform(0.5, 2.0, ka), -rng.uniform(0.5, 2.0, kg)
    G0 = (P[:, sa] * lam_a) @ P[:, sa].T
    Y = (P[:, sg] * lam_g) @ P[:, sg].T
    U = np.linalg.qr(rng.standard_normal((kb, kb)))[0]
    r1 = int(rng.integers(0, kb + 1))
    r2 = int(rng.integers(0, kb - r1 + 1))
    a = np.concatenate([rng.uniform(0.5, 2.0, r1), np.zeros(kb - r1)])
    b = np.concatenate([np.zeros(r1), rng.uniform(0.5, 2.0, r2), np.zeros(kb - r1 - r2)])
    Ht = sym(p)
    Ht[sb, sb] = (U * a) @ U.T
    Ht[sb, sg] = Ht[sg, sb] = Ht[sg, sg] = 0.0
    Et = sym(p)
    Et[sa, sa] = Et[sa, sb] = Et[sb, sa] = 0.0
    Et[sa, sg] = -(lam_g[None, :] / lam_a[:, None]) * Ht[sa, sg]
    Et[sg, sa] = Et[sa, sg].T
    Et[sb, sb] = -(U * b) @ U.T
    # xi0[0] bounded away from 0, since D_0 is solved through it
    xi0 = rng.standard_normal(n)
    xi0[0] = abs(xi0[0]) + 0.5
    xi0 /= np.linalg.norm(xi0)
    D = [None] + [sym(p) for _ in range(n - 1)]
    D[0] = (P @ Ht @ P.T - sum(xi0[k] * D[k] for k in range(1, n))) / xi0[0]
    B = np.zeros((n, n, p, p))
    for i in range(n):
        for j in range(i, n):
            B[i, j] = B[j, i] = sym(p)
    eta0 = P @ Et @ P.T
    v = -np.array([np.sum(Dk * eta0) for Dk in D]) - np.einsum("ijab,ab->ij", B, Y) @ xi0
    R = sym(n)
    M = np.eye(n) - np.outer(xi0, xi0)
    fq = np.outer(v, xi0) + np.outer(xi0, v) - (xi0 @ v) * np.outer(xi0, xi0) + M @ R @ M
    flin = -np.array([np.sum(Dk * Y) for Dk in D])
    pd = make_problem(flin, fq, SymMat(G0), [SymMat(Dk) for Dk in D], B)
    return pd, np.zeros(n), SymMat(Y), xi0, SymMat(eta0)
