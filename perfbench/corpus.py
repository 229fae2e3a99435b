"""Seeded input generators for the three benchmark workloads.

Every generator draws from a numpy Generator the caller seeds, so one
seed always yields the same inputs. Problems come out in the problem-file
format of the CLI (plain nested lists), which is what gets written to
disk; the oracles rebuild library objects from the same dicts.
"""

from __future__ import annotations

import math

import numpy as np


def _problem_dict(f_lin, f_quad, A0, A, B=None):
    n = len(f_lin)
    return {
        "n": n,
        "p": int(np.asarray(A0).shape[0]),
        "f": {"lin": [float(v) for v in f_lin], "quad": np.asarray(f_quad, dtype=float).tolist()},
        "G": {
            "A0": np.asarray(A0, dtype=float).tolist(),
            "A": [np.asarray(M, dtype=float).tolist() for M in A],
            "B": None
            if B is None
            else [[np.asarray(B[i][j], dtype=float).tolist() for j in range(n)] for i in range(n)],
        },
    }


def _sym(M):
    return 0.5 * (M + M.T)


def diag_pair(rng, n, p, pd_quad=False, min_degenerate=0):
    """Certified KKT pair of a random diagonal-constraint problem.

    Each diagonal entry is strictly active (d > 0), strictly multiplied
    (w > 0) or degenerate (both zero); the linear objective term is
    back-solved so (xbar, Diag(-w)) is stationary, and pd_quad shifts the
    objective Hessian to be positive definite. This is the distribution of
    the diagonal-reduction and sufficiency acceptance criteria.

    Returns (problem dict, point dict, scalar multipliers mu = -w).
    """
    glin = rng.integers(-2, 3, size=(p, n)).astype(float)
    gquad = rng.integers(-1, 2, size=(p, n, n)).astype(float)
    gquad = 0.5 * (gquad + gquad.transpose(0, 2, 1))
    xbar = rng.integers(-1, 2, size=n).astype(float)
    kind = rng.integers(0, 3, size=p)
    if min_degenerate:
        kind[rng.permutation(p)[:min_degenerate]] = 2
    d = np.where(kind == 0, rng.uniform(0.5, 2.0, size=p), 0.0)
    w = np.where(kind == 1, rng.uniform(0.5, 2.0, size=p), 0.0)
    gconst = d - (glin @ xbar + 0.5 * np.einsum("jab,a,b->j", gquad, xbar, xbar))
    fq = _sym(rng.integers(-2, 3, size=(n, n)).astype(float))
    if pd_quad:
        fq = fq + (np.abs(np.linalg.eigvalsh(fq)).max() + 1.0) * np.eye(n)
    # stationarity: f_quad xbar + f_lin + sum_j (glin + gquad xbar)[j] * (-w_j) = 0
    jac = glin + np.einsum("jab,b->ja", gquad, xbar)
    flin = -(fq @ xbar - jac.T @ w)
    problem = _problem_dict(
        flin,
        fq,
        np.diag(gconst),
        [np.diag(glin[:, i]) for i in range(n)],
        [[np.diag(gquad[:, i, j]) for j in range(n)] for i in range(n)],
    )
    point = {"x": xbar.tolist(), "Y": np.diag(-w).tolist()}
    return problem, point, -w


def rotate_pair(problem, point, Q):
    """Conjugate every constraint matrix and the multiplier by Q."""

    def rot(M):
        return _sym(Q @ np.asarray(M, dtype=float) @ Q.T)

    n = problem["n"]
    g = problem["G"]
    rotated = _problem_dict(
        problem["f"]["lin"],
        problem["f"]["quad"],
        rot(g["A0"]),
        [rot(M) for M in g["A"]],
        None if g["B"] is None else [[rot(g["B"][i][j]) for j in range(n)] for i in range(n)],
    )
    return rotated, {"x": point["x"], "Y": rot(point["Y"]).tolist()}


def rotated_pair(rng, n, p):
    """Diagonal pair with >= 2 degenerate entries, seen in a random
    orthogonal frame: its degenerate blocks commute but are not diagonal.
    Returns (rotated problem, rotated point, unrotated problem, unrotated
    point, mu)."""
    problem, point, mu = diag_pair(rng, n, p, pd_quad=bool(rng.integers(0, 2)), min_degenerate=2)
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    rp, rpt = rotate_pair(problem, point, Q)
    return rp, rpt, problem, point, mu


def coupled_pair(rng, n, p):
    """Pair whose 2x2 degenerate block is driven by non-commuting data.

    xbar = 0, G(0) = Diag(d, 0, 0, 0) with p - 3 positive entries, a
    two-dimensional degenerate block and one strictly negative multiplier
    eigenvalue; the constraint Jacobians are dense random symmetric
    matrices, so their degenerate blocks do not commute. The first one is
    positive definite on the kernel of G(0), so Robinson's constraint
    qualification holds with margin, as the theory assumes at a KKT pair.
    """
    d = np.concatenate([rng.uniform(0.5, 2.0, size=p - 3), np.zeros(3)])
    w = np.zeros(p)
    w[-1] = rng.uniform(0.5, 2.0)
    A = [_sym(rng.standard_normal((p, p))) for _ in range(n)]
    kernel = np.ix_(range(p - 3, p), range(p - 3, p))
    A[0][kernel] += (0.5 - min(0.0, np.linalg.eigvalsh(A[0][kernel]).min())) * np.eye(3)
    fq = _sym(rng.standard_normal((n, n)))
    # stationarity at xbar = 0: f_lin + sum_i <A_i, -Diag(w)> e_i = 0
    flin = np.array([float(w @ np.diag(M)) for M in A])
    problem = _problem_dict(flin, fq, np.diag(d), A)
    point = {"x": [0.0] * n, "Y": np.diag(-w).tolist()}
    return problem, point


def sizes(ns, ps):
    """Every (n, p) pair once, in an order that mixes small and large
    problems over every prefix (a stride coprime to the count)."""
    grid = [(n, p) for p in ps for n in ns]
    count = len(grid)
    stride = next(s for s in range(int(0.618 * count), count) if math.gcd(s, count) == 1)
    return [grid[(k * stride) % count] for k in range(count)]


def example2_direction(rng):
    """A seeded nondiagonal direction for the example2 family."""
    b = float(rng.uniform(0.5, 1.0)) * (1.0 if rng.integers(0, 2) else -1.0)
    a, c = (float(v) for v in rng.uniform(-0.3, 0.3, size=2))
    return [[a, b], [b, c]]
