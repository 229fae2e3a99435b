"""Problem data model for matrix-constrained programs.

A problem is min f(x) subject to G(x) PSD, with quadratic f and a
degree-2 matrix polynomial G(x) = A0 + sum_i x_i A_i + 1/2 sum_ij x_i x_j B_ij.
This module evaluates values and derivatives, KKT and normal-map
residuals (the normal map also at a stack of points, with the spectral
split of z it computed if asked, and G, its Jacobians and the Lagrangian
Hessian on stacked arrays), multiplier-set distances, and loads problems
from JSON files.
It also registers the two builtin perturbation families.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputDataError
from .symmat import (
    SymMat,
    as_symmat,
    dense_stack,
    eigh,
    packing_tables,
    project_psd,
    spectral_decompose,
    spectral_stack,
    svec_indices,
    sym_vec,
)

CERTIFICATION_TOL = 1e-8


@dataclass(frozen=True)
class ProblemData:
    """Immutable problem instance.

    f(x) = f_lin . x + 1/2 x^T f_quad x
    G(x) = G_const + sum_i x_i G_lin[i] + 1/2 sum_ij x_i x_j G_quad[i][j]

    G_lin_stack (n, p, p) and G_quad_stack (n, n, p, p) hold the same
    matrices as dense read-only arrays, built once per problem, so the
    evaluations below are single matrix products.
    """

    f_lin: np.ndarray
    f_quad: np.ndarray
    G_const: SymMat
    G_lin: tuple
    G_quad: tuple
    G_lin_stack: np.ndarray
    G_quad_stack: np.ndarray

    @property
    def n(self) -> int:
        return self.f_lin.size

    @property
    def p(self) -> int:
        return self.G_const.p


def make_problem(f_lin, f_quad, G_const, G_lin, G_quad=None) -> ProblemData:
    """Validate and freeze a problem instance."""
    f_lin = np.asarray(f_lin, dtype=float).reshape(-1)
    n = f_lin.size
    f_quad = np.asarray(f_quad, dtype=float).reshape(n, n)
    if not np.all(np.isfinite(f_lin)) or not np.all(np.isfinite(f_quad)):
        raise InputDataError("objective data must be finite")
    f_quad = 0.5 * (f_quad + f_quad.T)
    f_quad.flags.writeable = False
    f_lin.flags.writeable = False
    G_const = as_symmat(G_const)
    p = G_const.p
    lin = tuple(as_symmat(A) for A in G_lin)
    if len(lin) != n:
        raise InputDataError(f"expected {n} linear constraint matrices, got {len(lin)}")
    for A in lin:
        if A.p != p:
            raise InputDataError("constraint matrix orders are inconsistent")
    if G_quad is None:
        quad = tuple(tuple(SymMat.zeros(p) for _ in range(n)) for _ in range(n))
    else:
        rows = []
        for i in range(n):
            rows.append(tuple(as_symmat(G_quad[i][j]) for j in range(n)))
        for i in range(n):
            for j in range(n):
                if rows[i][j].p != p:
                    raise InputDataError("constraint matrix orders are inconsistent")
                if not rows[i][j].allclose(rows[j][i], atol=1e-12):
                    raise InputDataError(f"G_quad[{i}][{j}] != G_quad[{j}][{i}]")
        quad = tuple(rows)
    lin_stack = dense_stack(lin, p)
    quad_stack = dense_stack([B for row in quad for B in row], p).reshape(n, n, p, p)
    return ProblemData(f_lin, f_quad, G_const, lin, quad, lin_stack, quad_stack)


def eval_grad_f(pd: ProblemData, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return pd.f_lin + pd.f_quad @ x


def _G_array(pd: ProblemData, x: np.ndarray) -> np.ndarray:
    """G at x of shape (n,), or at each row of a stack (k, n), as (..., p, p)."""
    n, p = pd.n, pd.p
    lead = x.shape[:-1]
    lin = x[..., None, :] @ pd.G_lin_stack.reshape(n, p * p)
    outer = (x[..., :, None] * x[..., None, :]).reshape(*lead, 1, n * n)
    quad = outer @ pd.G_quad_stack.reshape(n * n, p * p)
    return pd.G_const.full() + (lin + 0.5 * quad).reshape(*lead, p, p)


def _checked_x(pd: ProblemData, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size != pd.n:
        raise InputDataError(f"x has length {x.size}, expected {pd.n}")
    return x.reshape(pd.n)


def eval_G(pd: ProblemData, x) -> SymMat:
    return SymMat(_G_array(pd, _checked_x(pd, x)))


def jacobian_array(pd: ProblemData, x: np.ndarray) -> np.ndarray:
    """D_i at x of shape (n,), or at each row of a stack (k, n), as (..., n, p, p)."""
    n, p = pd.n, pd.p
    D = x[..., None, None, :] @ pd.G_quad_stack.reshape(n, n, p * p)
    return pd.G_lin_stack + D.reshape(*x.shape[:-1], n, p, p)


def jacobian_stack(pd: ProblemData, x) -> np.ndarray:
    """Partial derivative matrices D_i(x) = A_i + sum_j x_j B_ij as an (n, p, p) array."""
    return jacobian_array(pd, _checked_x(pd, x))


def eval_G_jacobian(pd: ProblemData, x) -> list:
    """Partial derivative matrices D_i(x) = A_i + sum_j x_j B_ij."""
    return [SymMat(D) for D in jacobian_stack(pd, x)]


def jacobian_apply(pd: ProblemData, x, d) -> SymMat:
    """Push a primal direction through the constraint Jacobian: G'(x)d."""
    n, p = pd.n, pd.p
    d = np.asarray(d, dtype=float).reshape(n)
    return SymMat((d @ jacobian_stack(pd, x).reshape(n, p * p)).reshape(p, p))


def adjoint_jacobian_apply(pd: ProblemData, x, Y) -> np.ndarray:
    """Adjoint of the constraint Jacobian: (G'(x)* Y)_i = <D_i(x), Y>."""
    n, p = pd.n, pd.p
    return jacobian_stack(pd, x).reshape(n, p * p) @ as_symmat(Y).full().ravel()


def hessian_array(pd: ProblemData, Y: np.ndarray) -> np.ndarray:
    """Lagrangian Hessian f_quad + [<Y, B_ij>] for a dense symmetric Y of
    shape (p, p), or for each slice of a stack (k, p, p), as (..., n, n)."""
    n, p = pd.n, pd.p
    lead = Y.shape[:-2]
    inner = pd.G_quad_stack.reshape(n * n, p * p) @ Y.reshape(*lead, p * p, 1)
    H = pd.f_quad + inner.reshape(*lead, n, n)
    return 0.5 * (H + H.swapaxes(-1, -2))


def lagrangian_hessian(pd: ProblemData, x, Y) -> np.ndarray:
    """Hessian of the Lagrangian: f_quad + [<Y, B_ij>]."""
    return hessian_array(pd, as_symmat(Y).full())


def kkt_residual(pd: ProblemData, x, Y) -> tuple[float, float]:
    """Stationarity and complementarity residuals of a candidate pair.

    r1 is the Euclidean norm of the Lagrangian gradient, r2 the Frobenius
    norm of the natural-map residual G(x) - Pi(G(x) + Y).
    """
    Y = as_symmat(Y)
    r1 = float(np.linalg.norm(eval_grad_f(pd, x) + adjoint_jacobian_apply(pd, x, Y)))
    Gx = eval_G(pd, x)
    r2 = (Gx - project_psd(Gx + Y)).norm()
    return r1, r2


def normal_map_spectral(pd: ProblemData, x, z):
    """Normal-map values (Psi_1, Psi_2) at a stack of k points (x, z), with
    the spectral split (lam, P, Pi(z)) of z they were computed from.

    Psi_1 = grad f(x) + G'(x)* (z - Pi(z)) and Psi_2 = G(x) - Pi(z), with
    Pi the PSD projection. x has shape (k, n) and z shape (k, p, p) with
    symmetric slices; returns Psi_1 as (k, n) and Psi_2 as (k, p, p),
    whose lower triangles mirror the upper ones, and the spectral_stack
    output of z. One LAPACK call covers the stack and every product is a
    batched matmul whose slices are the products of one point, so each row
    is the value that point gets alone.
    """
    x = np.asarray(x, dtype=float)
    n = pd.n
    if x.ndim != 2 or x.shape[1] != n:
        raise InputDataError(f"x stack has shape {x.shape}, expected (k, {n})")
    if not np.isfinite(x).all():
        raise InputDataError("x entries must be finite")
    k, p = len(x), pd.p
    split = spectral_stack(z)
    Pz = split[2]
    D = jacobian_array(pd, x).reshape(k, n, p * p)
    grad = pd.f_lin + (pd.f_quad @ x[:, :, None])[:, :, 0]
    psi1 = grad + (D @ (z - Pz).reshape(k, p * p, 1))[:, :, 0]
    psi2 = (_G_array(pd, x) - Pz).reshape(k, p * p).take(packing_tables(p).mirror, 1)
    return psi1, psi2.reshape(k, p, p), split


def normal_map_stack(pd: ProblemData, x, z) -> tuple[np.ndarray, np.ndarray]:
    """Normal-map values (Psi_1, Psi_2) at a stack of k points (x, z):
    normal_map_spectral without the spectral split."""
    psi1, psi2, _ = normal_map_spectral(pd, x, z)
    return psi1, psi2


def robinson_normal_map(pd: ProblemData, x, z) -> tuple[np.ndarray, SymMat]:
    """Normal-map value (Psi_1, Psi_2) at (x, z): normal_map_stack at k = 1."""
    x = _checked_x(pd, x)
    psi1, psi2 = normal_map_stack(pd, x[None], as_symmat(z).full()[None])
    return psi1[0], SymMat._from_packed(pd.p, psi2[0][svec_indices(pd.p)])


def multiplier_set_residual(pd: ProblemData, xbar, Y) -> tuple[float, float]:
    """Distances from Y to the two sets whose intersection is Lambda(xbar).

    d1: distance to the affine set of the stationarity equation, by the
    least-norm correction of the underdetermined linear system (infinite
    when that system is inconsistent). d2: distance to the normal cone of
    the PSD cone at G(xbar), by blockwise projection.
    """
    Y = as_symmat(Y)
    Ds = eval_G_jacobian(pd, xbar)
    A = np.stack([sym_vec(D) for D in Ds]) if pd.n else np.zeros((0, pd.p * (pd.p + 1) // 2))
    r = -(eval_grad_f(pd, xbar) + adjoint_jacobian_apply(pd, xbar, Y))
    if A.size:
        delta, *_ = np.linalg.lstsq(A, r, rcond=None)
        if np.linalg.norm(A @ delta - r) > 1e-8 * max(1.0, np.linalg.norm(r)):
            d1 = math.inf
        else:
            d1 = float(np.linalg.norm(delta))
    else:
        d1 = 0.0 if np.linalg.norm(r) <= 1e-12 else math.inf

    Gx = eval_G(pd, xbar)
    d = spectral_decompose(Gx)
    ka = d.alpha.size
    Yt = d.rotate(Y)
    N = np.zeros_like(Yt)
    if ka < pd.p:
        lam_b, V_b = eigh(Yt[ka:, ka:])
        N[ka:, ka:] = (V_b * np.minimum(lam_b, 0.0)) @ V_b.T
    proj = SymMat(d.P @ N @ d.P.T)
    d2 = (Y - proj).norm()
    return d1, d2


@dataclass(frozen=True)
class KKTPoint:
    """A candidate primal/multiplier pair with its KKT residuals."""

    x: np.ndarray
    Y: SymMat
    residuals: tuple[float, float]

    @property
    def certified(self) -> bool:
        return max(self.residuals) <= CERTIFICATION_TOL


def kkt_point(pd: ProblemData, x, Y) -> KKTPoint:
    x = np.asarray(x, dtype=float).reshape(-1)
    Y = as_symmat(Y)
    x.flags.writeable = False
    return KKTPoint(x, Y, kkt_residual(pd, x, Y))


def shifted_problem(pd: ProblemData, p1, p2) -> ProblemData:
    """Absorb a canonical perturbation into the data.

    The stationarity shift p1 moves into f_lin and the cone shift p2 into
    G_const, so the perturbed KKT system is the plain KKT system of the
    shifted problem.
    """
    p1 = np.asarray(p1, dtype=float).reshape(pd.n)
    p2 = as_symmat(p2)
    return ProblemData(
        (pd.f_lin - p1).copy(),
        pd.f_quad,
        pd.G_const + p2,
        pd.G_lin,
        pd.G_quad,
        pd.G_lin_stack,
        pd.G_quad_stack,
    )


# ----------------------------------------------------------------------
# file ingestion


def _strict_symmetric(raw, p, label) -> SymMat:
    arr = np.asarray(raw, dtype=float).reshape(p, p)
    if not np.all(np.isfinite(arr)):
        raise InputDataError(f"{label}: entries must be finite")
    denom = np.maximum(1.0, np.abs(arr))
    if np.max(np.abs(arr - arr.T) / denom) > 1e-12:
        raise InputDataError(f"{label}: matrix is not symmetric within 1e-12 relative")
    return SymMat(arr)


def problem_from_dict(data: dict) -> ProblemData:
    try:
        n = int(data["n"])
        p = int(data["p"])
        f = data["f"]
        g = data["G"]
        f_lin = np.asarray(f["lin"], dtype=float).reshape(n)
        f_quad_raw = np.asarray(f["quad"], dtype=float).reshape(n, n)
        a0 = g["A0"]
        a_list = g["A"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"malformed problem payload: {exc}") from exc
    denom = np.maximum(1.0, np.abs(f_quad_raw))
    if np.max(np.abs(f_quad_raw - f_quad_raw.T) / denom) > 1e-12:
        raise InputDataError("f.quad is not symmetric within 1e-12 relative")
    G_const = _strict_symmetric(a0, p, "G.A0")
    if len(a_list) != n:
        raise InputDataError(f"G.A must list {n} matrices")
    G_lin = [_strict_symmetric(a_list[i], p, f"G.A[{i}]") for i in range(n)]
    G_quad = None
    if data["G"].get("B") is not None:
        b = data["G"]["B"]
        if len(b) != n:
            raise InputDataError(f"G.B must have {n} rows")
        mats = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entry = b[i][j]
                if entry is None:
                    mats[i][j] = SymMat.zeros(p)
                else:
                    mats[i][j] = _strict_symmetric(entry, p, f"G.B[{i}][{j}]")
                mats[j][i] = mats[i][j]
        G_quad = mats
    return make_problem(f_lin, f_quad_raw, G_const, G_lin, G_quad)


def problem_to_dict(pd: ProblemData) -> dict:
    b = [[pd.G_quad[i][j].to_rowmajor() if i <= j else None for j in range(pd.n)] for i in range(pd.n)]
    return {
        "n": pd.n,
        "p": pd.p,
        "f": {"lin": [float(v) for v in pd.f_lin], "quad": [[float(v) for v in row] for row in pd.f_quad]},
        "G": {"A0": pd.G_const.to_rowmajor(), "A": [A.to_rowmajor() for A in pd.G_lin], "B": b},
    }


def load_problem(path) -> ProblemData:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputDataError(f"cannot read problem file {path}: {exc}") from exc
    return problem_from_dict(data)


def load_point(path, n: int, p: int) -> tuple[np.ndarray, SymMat]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        x = np.asarray(data["x"], dtype=float).reshape(n)
        Y = _strict_symmetric(data["Y"], p, "Y")
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"cannot read point file {path}: {exc}") from exc
    return x, Y


# ----------------------------------------------------------------------
# builtin perturbation families


@dataclass(frozen=True)
class PerturbationFamily:
    """A base problem, a reference KKT pair, and a parametric perturbation."""

    name: str
    problem: ProblemData
    xbar: np.ndarray
    ybar: SymMat
    perturbation: Callable[[float], tuple[np.ndarray, SymMat]]
    reference_x: Optional[Callable[[float], np.ndarray]] = None


def example2_family(A=None) -> PerturbationFamily:
    """Two-variable diagonal-constraint family with a rank-one off-diagonal push.

    Base problem: min x1 + x1^2 + x2^2 subject to Diag(x) PSD, reference
    pair xbar = 0, ybar = diag(-1, 0). The parameter eps shifts the
    constraint by eps * A with A nondiagonal.
    """
    if A is None:
        A = SymMat([[0.0, 1.0], [1.0, 0.0]])
    else:
        A = as_symmat(A)
        if A.p != 2:
            raise InputDataError("example2 direction matrix must be 2x2")
    if abs(A.full()[0, 1]) <= 1e-12:
        raise InputDataError("example2 direction matrix must be nondiagonal")
    pd = make_problem(
        f_lin=[1.0, 0.0],
        f_quad=[[2.0, 0.0], [0.0, 2.0]],
        G_const=SymMat.zeros(2),
        G_lin=[SymMat.diag([1.0, 0.0]), SymMat.diag([0.0, 1.0])],
    )

    def perturbation(eps: float):
        return np.zeros(2), float(eps) * A

    return PerturbationFamily(
        "example2", pd, np.zeros(2), SymMat.diag([-1.0, 0.0]), perturbation
    )


def example3_family() -> PerturbationFamily:
    """Two-variable quadratic-constraint family with a known solution path.

    Base problem: min x1^2 + x2^2 + x1 x2 subject to
    diag(x1^2 + x1 x2, x2^2 + x1 x2) PSD, reference pair (0, 0).
    The parameter t tilts the objective by sqrt(t) and shifts the
    constraint by -t diag(2, 1); the perturbed solution path is
    x(t) = (2 sqrt(3)/3, sqrt(3)/3) * sqrt(t) with zero multiplier.
    """
    B11 = SymMat.diag([2.0, 0.0])
    B12 = SymMat.eye(2)
    B22 = SymMat.diag([0.0, 2.0])
    pd = make_problem(
        f_lin=[0.0, 0.0],
        f_quad=[[2.0, 1.0], [1.0, 2.0]],
        G_const=SymMat.zeros(2),
        G_lin=[SymMat.zeros(2), SymMat.zeros(2)],
        G_quad=[[B11, B12], [B12, B22]],
    )
    a = np.array([5.0, 4.0]) * (math.sqrt(3.0) / 3.0)
    B = SymMat.diag([2.0, 1.0])

    def perturbation(t: float):
        return math.sqrt(t) * a, (-float(t)) * B

    def reference_x(t: float):
        return np.array([2.0, 1.0]) * (math.sqrt(3.0) / 3.0) * math.sqrt(t)

    return PerturbationFamily(
        "example3", pd, np.zeros(2), SymMat.zeros(2), perturbation, reference_x
    )


FAMILY_NAMES = ("example2", "example3")


def builtin_family(name: str, matrix=None) -> PerturbationFamily:
    if name == "example2":
        return example2_family(matrix)
    if name == "example3":
        if matrix is not None:
            raise InputDataError("example3 takes no direction matrix")
        return example3_family()
    raise InputDataError(f"unknown builtin family {name!r} (choose from {FAMILY_NAMES})")
