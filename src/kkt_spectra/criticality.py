"""Multiplier criticality, x-part condition, and constraint qualifications.

A multiplier is critical when the linearized complementarity system
admits a nonzero primal direction. The system couples an adjoint
equation with blockwise conditions on the pushed-forward direction in
the eigenframe of G(x) + Y: hard zero blocks, a divided-difference
coupling between the positive and negative blocks, and a complementary
PSD/NSD pair on the degenerate block. Everything below reduces those
conditions to the feasibility kernels in lpkernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import ConeContext, cone_context
from .errors import InputDataError, NumericError, merged_options
from .lpkernel import (
    cone_kernel_nontrivial,
    nontrivial_xi_solution,
    null_space,
    subspace_psd_nontrivial,
)
from .problem import (
    KKTPoint,
    ProblemData,
    eval_G,
    eval_G_jacobian,
    lagrangian_hessian,
)
from .symmat import (
    SymMat,
    as_symmat,
    common_eigenframe,
    dir_deriv_from_decomp,
    eigh,
    spectral_decompose,
    svec_indices,
    sym_mat,
    sym_vec,
)

DEFAULT_OPTIONS = {"grid_points": 181, "samples": 64, "seed": 42}

CRITICAL = "Critical"
NONCRITICAL = "Noncritical"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class CriticalitySystem:
    """Analysis context of a certified KKT pair.

    Every analysis of the pair reads the one alpha/beta/gamma partition
    held in ctx. Dt holds the constraint Jacobians rotated into the
    eigenframe of G(x) + Y, shape (n, p, p). cone_rows are the x-space
    equality rows of the critical cone, one per gamma x (beta u gamma)
    entry (H_ij = 0), and cone_null is an orthonormal basis of their
    null space.
    """

    pd: ProblemData
    kkt: KKTPoint
    hessL: np.ndarray
    jac: tuple
    ctx: ConeContext
    Dt: np.ndarray
    cone_rows: np.ndarray
    cone_null: np.ndarray

    @property
    def n(self) -> int:
        return self.hessL.shape[0]

    @property
    def p(self) -> int:
        return self.ctx.p


@dataclass(frozen=True)
class CriticalityVerdict:
    tag: str
    witness: Optional[tuple]
    certificate: str
    residual: float


def build_system(pd: ProblemData, kkt: KKTPoint, tol: Optional[float] = None) -> CriticalitySystem:
    """Assemble the analysis context at a certified KKT pair.

    tol is the eigenvalue zero-classification tolerance of the partition
    (None: the decomposition's default).
    """
    if not kkt.certified:
        raise InputDataError(
            f"KKT residuals {kkt.residuals} exceed certification tolerance"
        )
    X = eval_G(pd, kkt.x)
    ctx = cone_context(X, kkt.Y, tol_zero=tol, tol=1e-6)
    d = ctx.decomp
    hessL = lagrangian_hessian(pd, kkt.x, kkt.Y)
    jac = tuple(eval_G_jacobian(pd, kkt.x))
    Dt = np.array([d.rotate(Dk) for Dk in jac]).reshape(pd.n, d.p, d.p)
    tail = np.concatenate([d.beta, d.gamma])
    pairs = [(i, j) for i in d.gamma for j in tail if j <= i]
    cone_rows = np.array([Dt[:, i, j] for i, j in pairs]).reshape(len(pairs), pd.n)
    return CriticalitySystem(pd, kkt, hessL, jac, ctx, Dt, cone_rows, null_space(cone_rows))


class _Rows:
    """Linear-row assembly over the stacked variable z = (xi, svec eta)."""

    def __init__(self, sys: CriticalitySystem):
        self.sys = sys
        self.dim = sys.n + sys.p * (sys.p + 1) // 2
        self._eta_cache: dict = {}

    def _x_row(self, r: np.ndarray) -> np.ndarray:
        row = np.zeros(self.dim)
        row[: self.sys.n] = r
        return row

    def h_row(self, i: int, j: int) -> np.ndarray:
        return self._x_row(self.sys.Dt[:, i, j])

    def eta_row(self, i: int, j: int) -> np.ndarray:
        key = (min(i, j), max(i, j))
        if key not in self._eta_cache:
            P = self.sys.ctx.decomp.P
            outer = 0.5 * (np.outer(P[:, i], P[:, j]) + np.outer(P[:, j], P[:, i]))
            row = np.zeros(self.dim)
            row[self.sys.n :] = sym_vec(outer)
            self._eta_cache[key] = row
        return self._eta_cache[key]

    def adjoint_rows(self) -> list:
        rows = []
        for hk, Dk in zip(self.sys.hessL, self.sys.jac):
            row = self._x_row(hk)
            row[self.sys.n :] = sym_vec(Dk)
            rows.append(row)
        return rows

    def common_rows(self) -> list:
        """Rows valid in every complementarity branch."""
        d = self.sys.ctx.decomp
        rows = self.adjoint_rows() + [self._x_row(r) for r in self.sys.cone_rows]
        for ai, i in enumerate(d.alpha):
            for j in d.alpha[ai:]:
                rows.append(self.eta_row(i, j))
            for j in d.beta:
                rows.append(self.eta_row(i, j))
            for j in d.gamma:
                s = d.sigma[i, j]
                rows.append((s - 1.0) * self.h_row(i, j) + s * self.eta_row(i, j))
        return rows

    def rotated_beta_rows(self, Q: np.ndarray):
        """Entry rows of Q^T H_bb Q and Q^T eta_bb Q over the beta block."""
        beta = self.sys.ctx.decomp.beta
        k = beta.size
        H = [[self.h_row(beta[a], beta[b]) for b in range(k)] for a in range(k)]
        E = [[self.eta_row(beta[a], beta[b]) for b in range(k)] for a in range(k)]
        h_rot = {}
        e_rot = {}
        for i in range(k):
            for j in range(i, k):
                hr = np.zeros(self.dim)
                er = np.zeros(self.dim)
                for a in range(k):
                    for b in range(k):
                        c = Q[a, i] * Q[b, j]
                        if c != 0.0:
                            hr = hr + c * H[a][b]
                            er = er + c * E[a][b]
                h_rot[(i, j)] = hr
                e_rot[(i, j)] = er
        return h_rot, e_rot


def witness_residual(sys: CriticalitySystem, xi, eta) -> float:
    """Aggregate residual of a candidate direction pair."""
    xi = np.asarray(xi, dtype=float).reshape(sys.n)
    eta = as_symmat(eta)
    adj = sys.hessL @ xi + np.array([Dk.inner(eta) for Dk in sys.jac])
    H = SymMat(sum((xi[k] * sys.jac[k].full() for k in range(sys.n)), np.zeros((sys.p, sys.p))))
    fixed = H - dir_deriv_from_decomp(sys.ctx.decomp, H + eta)
    return math.hypot(float(np.linalg.norm(adj)), fixed.norm())


def _extract_witness(sys: CriticalitySystem, z: np.ndarray):
    xi = z[: sys.n].copy()
    eta = sym_mat(z[sys.n :], sys.p)
    nrm = np.linalg.norm(xi)
    xi /= nrm
    eta = (1.0 / nrm) * eta
    return xi, eta, witness_residual(sys, xi, eta)


def _branch_search(rows, base_rows, h_rot, e_rot, k):
    """Enumerate complementarity supports of a diagonalized beta block."""
    offdiag = []
    for i in range(k):
        for j in range(i + 1, k):
            offdiag.append(h_rot[(i, j)])
            offdiag.append(e_rot[(i, j)])
    best_merit = np.inf
    for mask in range(1 << k):
        support = [(mask >> j) & 1 for j in range(k)]
        eqs = list(base_rows) + offdiag
        ineqs = []
        for j in range(k):
            if support[j]:
                eqs.append(e_rot[(j, j)])
                ineqs.append(h_rot[(j, j)])
            else:
                eqs.append(h_rot[(j, j)])
                ineqs.append(-e_rot[(j, j)])
        z, merit = nontrivial_xi_solution(np.stack(eqs), rows.dim, rows.sys.n, ineqs)
        best_merit = min(best_merit, merit)
        if z is not None:
            return z, 0.0
    return None, best_merit


def classify_multiplier(sys: CriticalitySystem, options: Optional[dict] = None) -> CriticalityVerdict:
    """Decide whether the system admits a nonzero direction.

    Exact tiers: empty degenerate block (pure linear system), singleton
    block (two polyhedral branches), and any block whose Jacobian data is
    simultaneously diagonalizable (support enumeration after a provably
    lossless diagonal reduction of the dual block). Otherwise a rotation
    grid (two-dimensional blocks) or seeded random frames (larger blocks)
    give a one-sided search: positives are certified witnesses, negatives
    return Undetermined.
    """
    opts = merged_options(DEFAULT_OPTIONS, options)
    rows = _Rows(sys)
    beta = sys.ctx.decomp.beta
    common = rows.common_rows()

    z, _ = nontrivial_xi_solution(np.stack(common), rows.dim, sys.n)
    if z is None:
        cert = (
            "exact: beta empty, homogeneous linear system has no nonzero xi"
            if beta.size == 0
            else "exact: linear rows alone force xi = 0"
        )
        return CriticalityVerdict(NONCRITICAL, None, cert, 0.0)
    if beta.size == 0:
        xi, eta, res = _extract_witness(sys, z)
        if res > 1e-7:
            raise NumericError(f"linear-tier witness re-verification failed: residual {res:.3e}")
        return CriticalityVerdict(CRITICAL, (xi, eta), "exact: beta empty, nonzero linear solution", res)

    if beta.size == 1:
        b = beta[0]
        branches = (
            (common + [rows.h_row(b, b)], [-rows.eta_row(b, b)], "H-block pinned to zero"),
            (common + [rows.eta_row(b, b)], [rows.h_row(b, b)], "eta-block pinned to zero"),
        )
        for eqs, ineqs, label in branches:
            z, _ = nontrivial_xi_solution(np.stack(eqs), rows.dim, sys.n, ineqs)
            if z is not None:
                xi, eta, res = _extract_witness(sys, z)
                if res > 1e-7:
                    raise NumericError(
                        f"singleton-branch witness re-verification failed: residual {res:.3e}"
                    )
                return CriticalityVerdict(
                    CRITICAL, (xi, eta), f"exact: beta singleton, branch '{label}'", res
                )
        return CriticalityVerdict(
            NONCRITICAL, None, "exact: beta singleton, both complementarity branches exhausted", 0.0
        )

    k = int(beta.size)
    Q = common_eigenframe([Dt[np.ix_(beta, beta)] for Dt in sys.Dt], k)
    if Q is not None:
        h_rot, e_rot = rows.rotated_beta_rows(Q)
        z, _ = _branch_search(rows, common, h_rot, e_rot, k)
        if z is not None:
            xi, eta, res = _extract_witness(sys, z)
            if res > 1e-7:
                raise NumericError(
                    f"diagonal-enumeration witness re-verification failed: residual {res:.3e}"
                )
            return CriticalityVerdict(
                CRITICAL, (xi, eta), f"exact: common-eigenframe enumeration over 2^{k} supports", res
            )
        return CriticalityVerdict(
            NONCRITICAL,
            None,
            f"exact: common-eigenframe data, all 2^{k} complementarity supports exhausted",
            0.0,
        )

    if k == 2:
        grid = int(opts["grid_points"])
        thetas = [math.pi * i / grid for i in range(grid)]
        merits = []
        for theta in thetas:
            c, s = math.cos(theta), math.sin(theta)
            Qr = np.array([[c, -s], [s, c]])
            h_rot, e_rot = rows.rotated_beta_rows(Qr)
            z, merit = _branch_search(rows, common, h_rot, e_rot, 2)
            if z is not None:
                xi, eta, res = _extract_witness(sys, z)
                if res <= 1e-7:
                    return CriticalityVerdict(
                        CRITICAL, (xi, eta), f"rotation grid: theta={theta:.6f}", res
                    )
            merits.append(merit)
        # golden-section refinement around the most promising grid angle
        i0 = int(np.argmin(merits))
        lo = thetas[i0] - math.pi / grid
        hi = thetas[i0] + math.pi / grid
        gr = (math.sqrt(5.0) - 1.0) / 2.0

        def probe(theta):
            c, s = math.cos(theta), math.sin(theta)
            h_rot, e_rot = rows.rotated_beta_rows(np.array([[c, -s], [s, c]]))
            return _branch_search(rows, common, h_rot, e_rot, 2)

        a, b = lo, hi
        x1 = b - gr * (b - a)
        x2 = a + gr * (b - a)
        z1, m1 = probe(x1)
        z2, m2 = probe(x2)
        for _ in range(24):
            for z, theta in ((z1, x1), (z2, x2)):
                if z is not None:
                    xi, eta, res = _extract_witness(sys, z)
                    if res <= 1e-7:
                        return CriticalityVerdict(
                            CRITICAL, (xi, eta), f"rotation grid refinement: theta={theta:.6f}", res
                        )
            if m1 <= m2:
                b, x2, m2 = x2, x1, m1
                x1 = b - gr * (b - a)
                z1, m1 = probe(x1)
            else:
                a, x1, m1 = x1, x2, m2
                x2 = a + gr * (b - a)
                z2, m2 = probe(x2)
        return CriticalityVerdict(
            UNDETERMINED,
            None,
            f"semi-decision: {grid}-point rotation grid x 4 supports + golden-section refinement, no witness",
            0.0,
        )

    # beta block of size >= 3: seeded random frames
    rng = np.random.default_rng(int(opts["seed"]))
    samples = int(opts["samples"])
    frames = [np.eye(k)]
    for Dt in sys.Dt:
        B = Dt[np.ix_(beta, beta)]
        if np.abs(B).max() > 0:
            _, V = eigh(B)
            frames.append(V)
    for _ in range(samples):
        Qr, _ = np.linalg.qr(rng.standard_normal((k, k)))
        frames.append(Qr)
    for Qr in frames:
        h_rot, e_rot = rows.rotated_beta_rows(Qr)
        z, _ = _branch_search(rows, common, h_rot, e_rot, k)
        if z is not None:
            xi, eta, res = _extract_witness(sys, z)
            if res <= 1e-7:
                return CriticalityVerdict(
                    CRITICAL, (xi, eta), f"random frame search ({len(frames)} frames x 2^{k} supports)", res
                )
    return CriticalityVerdict(
        UNDETERMINED,
        None,
        f"semi-decision: {len(frames)} random frames x 2^{k} supports, no witness",
        0.0,
    )


def xpart_condition(sys: CriticalitySystem) -> dict:
    """Test whether the eta-free part of the system forces xi = 0."""
    d = sys.ctx.decomp
    coupling = [sys.Dt[:, i, j] for i in d.alpha for j in d.gamma]
    eqs = np.vstack([sys.hessL, sys.cone_rows, np.reshape(coupling, (len(coupling), sys.n))])
    k = d.beta.size
    block = None
    if k:
        # rows follow the row-major upper-triangle svec convention
        block = []
        for a in range(k):
            for b in range(a, k):
                r = sys.Dt[:, d.beta[a], d.beta[b]]
                block.append(r if a == b else math.sqrt(2.0) * r)
        block = np.stack(block)
    xi = cone_kernel_nontrivial(eqs, sys.n, block, k, 1.0)
    if xi is None:
        return {"holds": True, "witness": None}
    return {"holds": False, "witness": xi / np.linalg.norm(xi)}


def check_rcq(pd: ProblemData, xbar, tol_feas: float = 1e-8) -> bool:
    """Surjectivity-type qualification at a feasible point, decided dually."""
    X = eval_G(pd, xbar)
    d = spectral_decompose(X)
    scale = max(1.0, float(np.abs(d.lam).max()))
    if d.lam.min() < -tol_feas * scale:
        raise InputDataError("point is infeasible: constraint matrix has a negative eigenvalue")
    J = np.where(d.lam <= d.tol_zero)[0]
    if J.size == 0:
        return True
    Ds = eval_G_jacobian(pd, xbar)
    rows = []
    for Dk in Ds:
        Dt = d.rotate(Dk)
        rows.append(sym_vec(Dt[np.ix_(J, J)]))
    W = subspace_psd_nontrivial(np.stack(rows) if rows else np.zeros((0, J.size * (J.size + 1) // 2)), J.size)
    return W is None


def check_srcq(pd: ProblemData, xbar, ybar, tol: Optional[float] = None) -> bool:
    """Strict qualification at a KKT pair, via the polar-cone kernel.

    tol is the partition tolerance, with the meaning it has in build_system.
    """
    ybar = as_symmat(ybar)
    ctx = cone_context(eval_G(pd, xbar), ybar, tol_zero=tol, tol=1e-6)
    d = ctx.decomp
    red = np.concatenate([d.beta, d.gamma]).astype(int)
    q = red.size
    if q == 0:
        return True
    Ds = eval_G_jacobian(pd, xbar)
    eqs = []
    for Dk in Ds:
        Dt = d.rotate(Dk)
        eqs.append(sym_vec(Dt[np.ix_(red, red)]))
    nb = int(d.beta.size)
    block = None
    if nb:
        # selection rows: the leading principal subblock of the reduced
        # variable, in matching isometric svec coordinates on both sides
        nsv = q * (q + 1) // 2
        ii, jj = svec_indices(q)
        pos = {(a, b): t for t, (a, b) in enumerate(zip(ii, jj))}
        block = []
        for a in range(nb):
            for b in range(a, nb):
                row = np.zeros(nsv)
                row[pos[(a, b)]] = 1.0
                block.append(row)
        block = np.stack(block)
    v = cone_kernel_nontrivial(np.stack(eqs), q * (q + 1) // 2, block, nb, -1.0)
    return v is None


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


def diagonal_reduction(pd: ProblemData, tol: float = 1e-12) -> Optional[NLPSystem]:
    """Scalarize the constraint when every data matrix is diagonal."""

    def _diag_or_none(M: SymMat):
        A = M.full()
        off = A - np.diag(np.diag(A))
        if np.abs(off).max() > tol * max(1.0, np.abs(A).max()):
            return None
        return np.diag(A).copy()

    g0 = _diag_or_none(pd.G_const)
    if g0 is None:
        return None
    p, n = pd.p, pd.n
    glin = np.zeros((p, n))
    for i in range(n):
        col = _diag_or_none(pd.G_lin[i])
        if col is None:
            return None
        glin[:, i] = col
    gquad = np.zeros((p, n, n))
    for i in range(n):
        for j in range(n):
            dd = _diag_or_none(pd.G_quad[i][j])
            if dd is None:
                return None
            gquad[:, i, j] = dd
    return NLPSystem(pd.f_lin.copy(), pd.f_quad.copy(), g0, glin, gquad)


def classify_nlp(nlp: NLPSystem, xbar, mu, tol: float = 1e-8) -> CriticalityVerdict:
    """Exact branch enumeration of the scalarized criticality system."""
    xbar = np.asarray(xbar, dtype=float).reshape(nlp.n)
    mu = np.asarray(mu, dtype=float).reshape(nlp.m)
    g = nlp.g(xbar)
    grads = nlp.grad_g(xbar)
    scale = max(1.0, float(np.abs(g).max()), float(np.abs(mu).max()))
    active = np.abs(g) <= tol * scale
    if np.any(mu > tol * scale):
        raise InputDataError("scalar multiplier has the wrong sign")
    if np.any(~active & (np.abs(mu) > tol * scale)):
        raise InputDataError("multiplier not complementary to an inactive constraint")
    i_minus = [j for j in range(nlp.m) if active[j] and mu[j] < -tol * scale]
    i_zero = [j for j in range(nlp.m) if active[j] and abs(mu[j]) <= tol * scale]
    inactive = [j for j in range(nlp.m) if not active[j]]
    hessL = nlp.f_quad + np.einsum("j,jab->ab", mu, nlp.gquad)
    hessL = 0.5 * (hessL + hessL.T)

    dim = nlp.n + nlp.m
    base = []
    for a in range(nlp.n):
        row = np.zeros(dim)
        row[: nlp.n] = hessL[a]
        row[nlp.n :] = grads[:, a]
        base.append(row)
    for j in inactive:
        row = np.zeros(dim)
        row[nlp.n + j] = 1.0
        base.append(row)
    for j in i_minus:
        row = np.zeros(dim)
        row[: nlp.n] = grads[j]
        base.append(row)

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

    for bits in itertools.product((0, 1), repeat=len(i_zero)):
        eqs = list(base)
        ineqs = []
        for b, j in zip(bits, i_zero):
            row_g = np.zeros(dim)
            row_g[: nlp.n] = grads[j]
            row_e = np.zeros(dim)
            row_e[nlp.n + j] = 1.0
            if b:
                eqs.append(row_e)
                ineqs.append(row_g)
            else:
                eqs.append(row_g)
                ineqs.append(-row_e)
        z, _ = nontrivial_xi_solution(np.stack(eqs), dim, nlp.n, ineqs)
        if z is not None:
            xi = z[: nlp.n]
            nrm = np.linalg.norm(xi)
            z = z / nrm
            res = _residual(z)
            if res > 1e-7:
                raise NumericError(f"scalar-branch witness re-verification failed: {res:.3e}")
            return CriticalityVerdict(
                CRITICAL,
                (z[: nlp.n], SymMat.diag(z[nlp.n :])),
                f"exact: scalar branch enumeration over 2^{len(i_zero)} supports",
                res,
            )
    return CriticalityVerdict(
        NONCRITICAL,
        None,
        f"exact: scalar branch enumeration over 2^{len(i_zero)} supports exhausted",
        0.0,
    )
