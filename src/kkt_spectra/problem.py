"""Problem data model for matrix-constrained programs.

A problem is min f(x) subject to G(x) PSD, with quadratic f and a
degree-2 matrix polynomial G(x) = A0 + sum_i x_i A_i + 1/2 sum_ij x_i x_j B_ij.
Two evaluators read the data: ProblemKernels evaluates the arrays (G,
its Jacobian stack, the Lagrangian Hessians and the normal map, at one
point or at a stack of points) and kkt_point evaluates a candidate pair
once, for every analysis of it to read. The module also loads problems
and points from JSON files and registers the two builtin perturbation
families.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cones import ConeContext, cone_context_from_matrix
from .errors import InputDataError
from .symmat import SymMat, as_symmat, spectral_stack, symmetrized

CERTIFICATION_TOL = 1e-8


@dataclass(frozen=True)
class ProblemData:
    """Immutable problem instance: five read-only float arrays.

    f(x) = f_lin . x + 1/2 x^T f_quad x
    G(x) = G_const + sum_i x_i G_lin[i] + 1/2 sum_ij x_i x_j G_quad[i, j]

    f_lin has shape (n,), f_quad (n, n), G_const (p, p), G_lin (n, p, p)
    and G_quad (n, n, p, p), with G_quad[i, j] = G_quad[j, i]. Every
    matrix is exactly symmetric, so the evaluations below are single
    matrix products.
    """

    f_lin: np.ndarray
    f_quad: np.ndarray
    G_const: np.ndarray
    G_lin: np.ndarray
    G_quad: np.ndarray

    @property
    def n(self) -> int:
        return self.f_lin.size

    @property
    def p(self) -> int:
        return self.G_const.shape[0]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _unwrapped(obj):
    """obj with each SymMat in its nested lists replaced by its full matrix."""
    if isinstance(obj, SymMat):
        return obj.full()
    if isinstance(obj, (list, tuple)):
        return [_unwrapped(M) for M in obj]
    return obj


def _constraint_stack(mats, shape) -> np.ndarray:
    """Read-only array of the given shape from nested SymMats or array-likes,
    each trailing matrix symmetrized as a SymMat symmetrizes it."""
    try:
        arr = np.array(_unwrapped(mats), dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputDataError(f"constraint matrices must be numeric arrays: {exc}") from exc
    if arr.shape != shape:
        raise InputDataError(f"constraint matrices have shape {arr.shape}, expected {shape}")
    return _frozen(symmetrized(arr.reshape(shape)))


def _check_dimensions(n: int, p: int) -> None:
    if min(n, p) < 1:
        raise InputDataError(f"a problem needs n >= 1 and p >= 1, got n = {n}, p = {p}")


def make_problem(f_lin, f_quad, G_const, G_lin, G_quad=None) -> ProblemData:
    """Validate and freeze a problem instance of n >= 1 variables and
    order p >= 1; a constraint matrix may be a SymMat or an array-like,
    G_lin and G_quad lists or stacks of them."""
    f_lin, f_quad = _floats(f_lin, "f_lin").reshape(-1), _floats(f_quad, "f_quad")
    n = f_lin.size
    if f_quad.size != n * n:
        raise InputDataError(f"f_quad has {f_quad.size} entries, expected {n}x{n}")
    f_quad = f_quad.reshape(n, n)
    if not np.all(np.isfinite(f_lin)) or not np.all(np.isfinite(f_quad)):
        raise InputDataError("objective data must be finite")
    f_quad = symmetrized(f_quad)
    G_const = as_symmat(G_const).full()
    p = G_const.shape[0]
    _check_dimensions(n, p)
    G_lin = _constraint_stack(G_lin, (n, p, p))
    G_quad = _constraint_stack(np.zeros((n, n, p, p)) if G_quad is None else G_quad, (n, n, p, p))
    # the first asymmetric (i, j) in row-major order
    asym = np.argwhere((np.abs(G_quad - G_quad.swapaxes(0, 1)) > 1e-12).any(axis=(2, 3)))
    if asym.size:
        i, j = asym[0]
        raise InputDataError(f"G_quad[{i}][{j}] != G_quad[{j}][{i}]")
    return ProblemData(_frozen(f_lin), _frozen(f_quad), G_const, G_lin, G_quad)


def eval_grad_f(pd: ProblemData, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return pd.f_lin + pd.f_quad @ x


class ProblemKernels:
    """The array evaluations of one problem: G, its Jacobian stack, the
    Lagrangian Hessians and the normal map, each at one point or at every
    slice of a stack.

    The views of the data that the products multiply by are reshaped once,
    when the kernels are built; build them once per problem where many
    evaluations follow, as the perturbed solver does per solve. Every
    product is a (batched) matmul whose slices are the products of one
    point, so each row of a stack is the value that point gets alone.
    """

    def __init__(self, pd: ProblemData):
        n, p = pd.n, pd.p
        self.n, self.p = n, p
        self.f_lin, self.f_quad, self.G_const = pd.f_lin, pd.f_quad, pd.G_const
        self.lin = pd.G_lin.reshape(n, p * p)
        self.quad = pd.G_quad.reshape(n * n, p * p)
        self.quad_rows = pd.G_quad.reshape(n, n, p * p)

    def G(self, x: np.ndarray) -> np.ndarray:
        """G at x of shape (n,), or at each row of a stack (k, n), as (..., p, p)."""
        n, p = self.n, self.p
        lead = x.shape[:-1]
        lin = x[..., None, :] @ self.lin
        outer = (x[..., :, None] * x[..., None, :]).reshape(*lead, 1, n * n)
        return self.G_const + (lin + 0.5 * (outer @ self.quad)).reshape(*lead, p, p)

    def jacobians(self, x: np.ndarray) -> np.ndarray:
        """D_i at x of shape (n,), or at each row of a stack (k, n), as flat
        rows (..., n, p * p)."""
        return self.lin + (x[..., None, None, :] @ self.quad_rows)[..., 0, :]

    def hessians(self, Y: np.ndarray) -> np.ndarray:
        """Lagrangian Hessian f_quad + [<Y, B_ij>] for a dense symmetric Y of
        shape (p, p), or for each slice of a stack (k, p, p), as (..., n, n)."""
        n, p = self.n, self.p
        lead = Y.shape[:-2]
        H = self.f_quad + (self.quad @ Y.reshape(*lead, p * p, 1)).reshape(*lead, n, n)
        return 0.5 * (H + H.swapaxes(-1, -2))

    def normal_map(self, x: np.ndarray, z):
        """Normal-map values (Psi_1, Psi_2) at a stack of k points (x, z), with
        the split (lam, P, Pi(z), D) they were computed from.

        Psi_1 = grad f(x) + G'(x)* (z - Pi(z)) and Psi_2 = G(x) - Pi(z), with
        Pi the PSD projection. x is a float array (k, n) and z has shape
        (k, p, p) with symmetric slices; returns Psi_1 as (k, n), Psi_2 as
        flat rows (k, p * p) whose upper triangles are its values (the lower
        ones may differ in the last bit), the spectral_stack output of z and
        the Jacobian stack D of G at x as (k, n, p * p). One LAPACK call
        covers the stack. InputDataError unless x is finite.
        """
        if not np.isfinite(x).all():
            raise InputDataError("x entries must be finite")
        k, p = len(x), self.p
        lam, P, Pz = spectral_stack(z)
        D = self.jacobians(x)
        grad = self.f_lin + (self.f_quad @ x[:, :, None])[:, :, 0]
        psi1 = grad + (D @ (z - Pz).reshape(k, p * p, 1))[:, :, 0]
        return psi1, (self.G(x) - Pz).reshape(k, p * p), (lam, P, Pz, D)


def _floats(raw, name: str) -> np.ndarray:
    """raw as a float array; InputDataError naming it unless every entry is a number."""
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputDataError(f"{name}: expected numbers ({exc})") from exc


def _checked_vector(x, n: int, name: str) -> np.ndarray:
    """x as a float array of shape (n,); InputDataError naming it unless it
    has n entries, each a number."""
    x = _floats(x, name)
    if x.size != n:
        raise InputDataError(f"{name} has length {x.size}, expected {n}")
    return x.reshape(n)


def _checked_order(pd: ProblemData, M, name: str) -> SymMat:
    """M as a SymMat; InputDataError naming it unless its order is p."""
    M = as_symmat(M)
    if M.p != pd.p:
        raise InputDataError(f"{name} has order {M.p}, expected {pd.p}")
    return M


@dataclass(frozen=True)
class KKTPoint:
    """A candidate pair (x, Y) of the problem pd with the evaluations every
    analysis of the pair reads, each made once: G = G(x), the Jacobians
    D_k(x) as one symmetric stack Ds (n, p, p), the split of G(x) + Y at
    the default partition, and the KKT residuals read from them."""

    pd: ProblemData
    x: np.ndarray
    Y: SymMat
    G: SymMat
    Ds: np.ndarray
    split: ConeContext
    residuals: tuple[float, float]

    @property
    def certified(self) -> bool:
        return max(self.residuals) <= CERTIFICATION_TOL


def kkt_point(pd: ProblemData, x, Y) -> KKTPoint:
    """Evaluate the pair (x, Y) of pd; InputDataError unless x has n entries
    and Y order p. Its residuals are the norm of the Lagrangian gradient and
    the Frobenius norm of the natural-map residual G(x) - Pi(G(x) + Y)."""
    x, Y = _checked_vector(x, pd.n, "x"), _checked_order(pd, Y, "Y")
    n, p = pd.n, pd.p
    x.flags.writeable = False
    kern = ProblemKernels(pd)
    Gx = SymMat(kern.G(x))
    D = kern.jacobians(x)
    split = cone_context_from_matrix(Gx + Y)
    r1 = float(np.linalg.norm(eval_grad_f(pd, x) + D @ Y.full().ravel()))
    return KKTPoint(pd, x, Y, Gx, symmetrized(D.reshape(n, p, p)), split, (r1, (Gx - split.X).norm()))


def shifted_problem(pd: ProblemData, p1, p2) -> ProblemData:
    """Absorb a canonical perturbation into the data.

    The stationarity shift p1 moves into f_lin and the cone shift p2 into
    G_const, so the perturbed KKT system is the plain KKT system of the
    shifted problem. InputDataError unless p1 has n entries and p2 order
    p, or if G_const turns non-finite.
    """
    p1 = _checked_vector(p1, pd.n, "p1")
    with np.errstate(over="ignore", invalid="ignore"):
        G_const = pd.G_const + _checked_order(pd, p2, "p2").full()
    if not np.isfinite(G_const).all():
        raise InputDataError("matrix entries must be finite")
    return ProblemData(_frozen(pd.f_lin - p1), pd.f_quad, _frozen(G_const), pd.G_lin, pd.G_quad)


# ----------------------------------------------------------------------
# file ingestion


def _relative_asymmetry(S: np.ndarray) -> np.ndarray:
    """Largest entry of |A - A^T| / max(1, |A|) of each matrix of a stack (k, p, p)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.abs(S - S.swapaxes(1, 2)) / np.maximum(1.0, np.abs(S))).max(axis=(1, 2), initial=0.0)


def _numbers(raw, shape) -> np.ndarray:
    """A payload field of real numbers in any nesting as a float array of
    the given shape. json also reads true, false, strings and null, which
    are not numbers: any of them, or a count that does not fit the shape,
    raises ValueError (OverflowError for an integer beyond float range).
    numpy scalars are numbers; numpy bools, like bools, are not."""
    flat = np.asarray(raw, dtype=object).ravel()
    # one test per entry type, then the first entry of a rejected type
    bad = {t for t in set(map(type, flat)) if issubclass(t, bool) or not issubclass(t, numbers.Real)}
    if bad:
        v = next(v for v in flat if type(v) in bad)
        raise ValueError(f"{type(v).__name__} entry {v!r}")
    return flat.astype(float).reshape(shape)


def _field(raw, label: str, shape, what: str) -> np.ndarray:
    """_numbers of one payload field; InputDataError naming label."""
    try:
        return _numbers(raw, shape)
    except (OverflowError, ValueError) as exc:
        raise InputDataError(f"{label}: expected {what} ({exc})") from exc


def _checked_matrices(raws, labels, p) -> np.ndarray:
    """The payload matrices raws, each p * p numbers in any nesting, as a
    stack (k, p, p). InputDataError names the first matrix, in the order
    given, that is not p * p numbers, has a non-finite entry or is not
    symmetric within 1e-12 relative."""
    mats, unread = [], None
    for raw, label in zip(raws, labels):
        try:
            mats.append(_numbers(raw, (p, p)))
        except (OverflowError, ValueError) as exc:
            unread = InputDataError(f"{label}: expected a {p}x{p} matrix of numbers ({exc})")
            break
    S = np.array(mats).reshape(len(mats), p, p)
    finite = np.isfinite(S).all(axis=(1, 2))
    bad = np.flatnonzero(~finite | (_relative_asymmetry(S) > 1e-12))
    if bad.size:
        fault = "matrix is not symmetric within 1e-12 relative" if finite[bad[0]] else "entries must be finite"
        raise InputDataError(f"{labels[bad[0]]}: {fault}")
    if unread is not None:
        raise unread
    return S


def _dimension(data: dict, key: str) -> int:
    """The size field key of a problem payload, which must be an integer
    (a bool, a fraction or a string raises InputDataError)."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputDataError(f"malformed problem payload: {key} must be an integer, got {value!r}")
    return int(value)


def problem_from_dict(data: dict) -> ProblemData:
    try:
        n, p = _dimension(data, "n"), _dimension(data, "p")
        # the declared sizes shape every read below, so they are checked first
        _check_dimensions(n, p)
        f, g = data["f"], data["G"]
        lin, quad = f["lin"], f["quad"]
        a0, a_list, b = g["A0"], g["A"], g.get("B")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputDataError(f"malformed problem payload: {exc}") from exc
    f_lin = _field(lin, "f.lin", n, f"{n} numbers")
    f_quad = np.zeros((n, n)) if quad is None else _field(quad, "f.quad", (n, n), f"a {n}x{n} matrix of numbers")
    if _relative_asymmetry(f_quad[None])[0] > 1e-12:
        raise InputDataError("f.quad is not symmetric within 1e-12 relative")
    if not isinstance(a_list, (list, tuple)) or len(a_list) != n:
        raise InputDataError(f"G.A must list {n} matrices")
    raws, labels, pairs = [a0, *a_list], ["G.A0", *(f"G.A[{i}]" for i in range(n))], []
    if b is not None:
        listed = isinstance(b, (list, tuple)) and len(b) == n
        if not (listed and all(isinstance(row, (list, tuple)) and len(row) == n for row in b)):
            raise InputDataError(f"G.B must have {n} rows of {n} matrices")
        # only the upper triangle i <= j is read; a null entry is zero
        pairs = [(i, j) for i in range(n) for j in range(i, n) if b[i][j] is not None]
        raws += [b[i][j] for i, j in pairs]
        labels += [f"G.B[{i}][{j}]" for i, j in pairs]
    S = _checked_matrices(raws, labels, p)
    G_quad = None if b is None else np.zeros((n, n, p, p))
    for k, (i, j) in enumerate(pairs, n + 1):
        G_quad[i, j] = G_quad[j, i] = S[k]
    return make_problem(f_lin, f_quad, S[0], S[1 : n + 1], G_quad)


def problem_to_dict(pd: ProblemData) -> dict:
    """The problem-file payload of pd, each matrix a flat row-major list."""
    n, p = pd.n, pd.p
    b = [[pd.G_quad[i, j].ravel().tolist() if i <= j else None for j in range(n)] for i in range(n)]
    return {
        "n": n,
        "p": p,
        "f": {"lin": pd.f_lin.tolist(), "quad": pd.f_quad.tolist()},
        "G": {"A0": pd.G_const.ravel().tolist(), "A": pd.G_lin.reshape(n, p * p).tolist(), "B": b},
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
        try:
            x = _numbers(data["x"], n)  # json also reads NaN and Infinity
            if not np.isfinite(x).all():
                raise ValueError("non-finite entry")
        except (OverflowError, ValueError) as exc:
            raise InputDataError(f"x: expected {n} finite numbers") from exc
        Y = SymMat(_checked_matrices([data["Y"]], ["Y"], p)[0])
    except (OSError, json.JSONDecodeError, KeyError, OverflowError, TypeError, ValueError) as exc:
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
    A negative t raises InputDataError.
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
        if t < 0.0:
            raise InputDataError(f"example3 takes a parameter t >= 0, got {t}")
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
