"""Dense symmetric-matrix core.

Provides the SymMat value type and the symmetrization it applies (also to
whole stacks of arrays), the one symmetric eigensolver that every
module uses (LAPACK through numpy, with deterministic eigenvector signs),
spectral decomposition with a sign partition of the spectrum, the common
eigenframe of a commuting family, the det form of a linear map into S^2
and the span of its PSD preimage, projection onto the PSD cone, the
stacked kernels (eigenvalue range, PSD part and descending spectral split
of a stack of arrays), the divided-difference Sigma matrix, the
one blockwise projection rule of the eigenframe (the directional
derivative of the PSD projection and the critical-cone projection), and
the spectral pseudoinverse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputDataError

_SQRT2 = math.sqrt(2.0)
_HALF_MAX = 0.5 * np.finfo(float).max  # no sum of two entries this size overflows
_SIGN_TIE_TOL = 1e-12  # eigenvector entries this close in magnitude tie


class SymMat:
    """Real symmetric p x p matrix with single storage per (i, j) pair.

    Entries live in a packed upper-triangle vector, so the materialized
    full matrix is symmetric exactly, not merely to round-off.
    """

    __slots__ = ("_p", "_upper", "_cache")

    def __init__(self, entries):
        try:
            arr = np.asarray(entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputDataError(f"expected a matrix of numbers ({exc})") from exc
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputDataError(f"expected a square matrix, got shape {arr.shape}")
        arr = symmetrized(arr)
        p = arr.shape[0]
        self._p = p
        self._upper = arr[svec_indices(p)]
        self._upper.flags.writeable = False
        self._cache = None

    @classmethod
    def _from_packed(cls, p, upper):
        obj = object.__new__(cls)
        obj._p = p
        obj._upper = np.asarray(upper, dtype=float)
        obj._upper.flags.writeable = False
        obj._cache = None
        return obj

    @classmethod
    def _finite(cls, p, upper):
        """_from_packed for the result of arithmetic made under np.errstate:
        InputDataError unless every entry is finite."""
        if not np.isfinite(upper).all():
            raise InputDataError("matrix entries must be finite")
        return cls._from_packed(p, upper)

    @classmethod
    def zeros(cls, p):
        return cls._from_packed(p, np.zeros(p * (p + 1) // 2))

    @classmethod
    def eye(cls, p):
        return cls(np.eye(p))

    @classmethod
    def diag(cls, values):
        return cls(np.diag(np.asarray(values, dtype=float)))

    @property
    def p(self) -> int:
        return self._p

    @property
    def shape(self):
        return (self._p, self._p)

    def full(self) -> np.ndarray:
        """Materialized full matrix (read-only view, cached)."""
        if self._cache is None:
            p = self._p
            m = np.zeros((p, p))
            iu = svec_indices(p)
            m[iu] = self._upper
            m.T[iu] = self._upper
            m.flags.writeable = False
            self._cache = m
        return self._cache

    def norm(self) -> float:
        return float(np.linalg.norm(self.full(), "fro"))

    def max_abs(self) -> float:
        if self._upper.size == 0:
            return 0.0
        return float(np.max(np.abs(self._upper)))

    def _operand(self, other) -> "SymMat":
        """other as a SymMat of this order; InputDataError otherwise."""
        other = as_symmat(other)
        if other._p != self._p:
            raise InputDataError(f"matrix orders differ: {self._p} vs {other._p}")
        return other

    def inner(self, other: "SymMat") -> float:
        return float(np.sum(self.full() * self._operand(other).full()))

    def allclose(self, other, atol=1e-12, rtol=0.0) -> bool:
        other = as_symmat(other)
        return self._p == other._p and bool(np.allclose(self._upper, other._upper, atol=atol, rtol=rtol))

    def __add__(self, other):
        other = self._operand(other)
        with np.errstate(over="ignore", invalid="ignore"):
            return SymMat._finite(self._p, self._upper + other._upper)

    def __sub__(self, other):
        other = self._operand(other)
        with np.errstate(over="ignore", invalid="ignore"):
            return SymMat._finite(self._p, self._upper - other._upper)

    def __neg__(self):
        return SymMat._from_packed(self._p, -self._upper)

    def __mul__(self, c):
        c = float(c)
        if not math.isfinite(c):
            raise InputDataError("scalar factor must be finite")
        if abs(c) <= 1.0:  # shrinks finite entries: nothing can overflow
            return SymMat._from_packed(self._p, c * self._upper)
        with np.errstate(over="ignore"):
            return SymMat._finite(self._p, c * self._upper)

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymMat({self.full().tolist()})"


def symmetrized(arr: np.ndarray) -> np.ndarray:
    """0.5 (A + A^T) of each trailing square matrix A of a float array.

    An entry above _HALF_MAX (a non-finite one included) may overflow the
    sum, so then the symmetrized entries are checked: InputDataError
    unless all of them are finite.
    """
    if np.abs(arr).max(initial=0.0) <= _HALF_MAX:
        return 0.5 * (arr + arr.swapaxes(-1, -2))
    with np.errstate(over="ignore", invalid="ignore"):
        arr = 0.5 * (arr + arr.swapaxes(-1, -2))
    if not np.isfinite(arr).all():
        raise InputDataError("matrix entries must be finite")
    return arr


def as_symmat(obj) -> SymMat:
    """Coerce an array-like into a SymMat (identity on SymMat inputs)."""
    if isinstance(obj, SymMat):
        return obj
    return SymMat(obj)


@functools.cache
def svec_indices(p):
    """Row/column index pairs of the packed upper triangle, row-major.

    Built once per order and shared: the returned arrays are read-only.
    """
    rows, cols = np.triu_indices(p)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@functools.cache
def svec_scale(p):
    """Per-entry svec weights: 1 on the diagonal, sqrt(2) off it (read-only)."""
    rows, cols = svec_indices(p)
    scale = np.where(rows == cols, 1.0, _SQRT2)
    scale.flags.writeable = False
    return scale


class PackingTables(NamedTuple):
    """Flat index tables of one order p, with m = p(p+1)/2 packed entries.

    upper (m,): flat positions of the packed upper triangle, so
        A.reshape(k, p * p).take(upper, 1) holds the entries of
        A[:, rows, cols];
    gather (p * p,): the packed entry of each flat position, so
        U.take(gather, 1) spreads rows of packed triangles into dense
        symmetric rows;
    mirror (p * p,): the flat upper-triangle position of each flat
        position, so A.reshape(k, p * p).take(mirror, 1) copies each
        upper triangle onto the lower one;
    rotation (4, m, m): the flat frame positions of the four factors
        P_ai P_bj, P_bi P_aj of the svec basis rotation (pairs (a, b)
        down, (i, j) across);
    half_s (m, 1): the column of weights 0.5 s of that rotation.
    """

    upper: np.ndarray
    gather: np.ndarray
    mirror: np.ndarray
    rotation: np.ndarray
    half_s: np.ndarray


@functools.cache
def packing_tables(p) -> PackingTables:
    """The PackingTables of order p, built once per order and shared (read-only)."""
    rows, cols = svec_indices(p)
    upper = rows * p + cols
    gather = np.empty(p * p, dtype=np.intp)
    gather[upper] = gather[cols * p + rows] = np.arange(rows.size)
    r, c = rows[:, None], cols[:, None]
    tables = PackingTables(
        upper,
        gather,
        upper[gather],
        np.array([r * p + rows, c * p + cols, c * p + rows, r * p + cols]),
        (0.5 * svec_scale(p))[:, None],
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def sym_vec(M: SymMat) -> np.ndarray:
    """Isometric vectorization: off-diagonal entries scaled by sqrt(2).

    Satisfies <A, B>_F = sym_vec(A) . sym_vec(B).
    """
    M = as_symmat(M)
    return M._upper * svec_scale(M.p)


def upper_stack(A: np.ndarray) -> np.ndarray:
    """Packed upper triangles A[..., rows, cols] of a stack (..., p, p), as
    C-ordered rows (..., p(p+1)/2): one take of the flat positions
    packing_tables(p).upper, so a row packs alike in any stack."""
    p = A.shape[-1]
    return A.reshape(*A.shape[:-2], p * p).take(packing_tables(p).upper, -1)


def svec_stack(A: np.ndarray) -> np.ndarray:
    """sym_vec of each symmetric array of a stack (..., p, p), as rows (..., p(p+1)/2)."""
    return upper_stack(A) * svec_scale(A.shape[-1])


def sym_mat_stack(V: np.ndarray, p: int) -> np.ndarray:
    """Inverse of svec_stack: dense symmetric arrays (..., p, p) from rows
    of svec coordinates (..., p(p+1)/2), one packed gather that copies each
    entry to both of its triangles; InputDataError unless V has rows of
    that length and finite entries."""
    scale = svec_scale(p)
    if V.shape[-1:] != scale.shape:
        raise InputDataError(f"svec rows of shape {V.shape} do not match order {p}")
    if not np.isfinite(V).all():
        raise InputDataError("matrix entries must be finite")
    return (V / scale).take(packing_tables(p).gather, -1).reshape(*V.shape[:-1], p, p)


def sym_mat(v, p) -> SymMat:
    """Inverse of sym_vec."""
    v = np.asarray(v, dtype=float)
    scale = svec_scale(p)
    if v.shape != scale.shape:
        raise InputDataError(f"svec length {v.size} does not match order {p}")
    if not np.isfinite(v).all():
        raise InputDataError("matrix entries must be finite")
    return SymMat._from_packed(p, v / scale)


def eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and orthonormal eigenvectors of a symmetric array.

    LAPACK through numpy does the work. Every column is signed so that
    its largest-magnitude entry is positive (the first such entry, on
    ties within 1e-12), so equal inputs give equal outputs whatever sign
    LAPACK picks. Orders 0 and 1 return at once without calling LAPACK.
    """
    p = A.shape[0]
    if p <= 1:
        return np.array(A, dtype=float).reshape(p), np.eye(p)
    lam, V = np.linalg.eigh(A)
    signs = []
    for col in V.T.tolist()[::-1]:
        top = max(map(abs, col)) - _SIGN_TIE_TOL
        lead = next(v for v in col if abs(v) >= top)
        signs.append(1.0 if lead > 0.0 else -1.0)
    return lam[::-1].copy(), V[:, ::-1] * signs


def eig_range(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalues of each symmetric array of a stack.

    A has shape (..., k, k); one LAPACK call (eigvalsh) covers the whole
    stack. An empty order gives zeros, the range of the zero matrix.
    """
    if A.shape[-1] == 0:
        zero = np.zeros(A.shape[:-2])
        return zero, zero
    lam = np.linalg.eigvalsh(A)
    return lam[..., 0], lam[..., -1]


def spectral_stack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descending eigenvalues, eigenvectors and PSD part of each array of a stack.

    A has shape (k, p, p) with symmetric slices; one LAPACK call covers
    the stack. Eigenvalues and vectors come in the descending order of
    eigh but without its sign normalisation, which neither the PSD part
    (P * max(lam, 0)) @ P^T nor any frame product that pairs each column
    with itself depends on. Each slice's product runs in the same order,
    on the same contiguous layout, as it does for eigh's output.
    """
    lam, V = np.linalg.eigh(A)
    lam, P = lam[:, ::-1], np.ascontiguousarray(V[:, :, ::-1])
    return lam, P, (P * np.maximum(lam, 0.0)[:, None, :]) @ P.swapaxes(1, 2)


def jacobi_eigh(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns."""
    return eigh(as_symmat(M).full())


def common_eigenframe(blocks, k: int) -> np.ndarray | None:
    """Orthogonal k x k frame simultaneously diagonalizing every block of
    the stack blocks (m, k, k); the identity when every block is diagonal,
    so always at k <= 1.

    Returns None when two blocks fail to commute, or when the frame of a
    generic combination leaves an off-diagonal entry in some block.
    """
    blocks = np.asarray(blocks, dtype=float)
    scale = np.abs(blocks).max(initial=0.0)
    if scale == 0.0:
        return np.eye(k)
    off = np.abs(blocks[:, ~np.eye(k, dtype=bool)]).max(initial=0.0)
    if off <= 1e-12 * max(1.0, scale):
        return np.eye(k)
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            C = blocks[a] @ blocks[b] - blocks[b] @ blocks[a]
            if np.abs(C).max() > 1e-10 * max(1.0, scale * scale):
                return None
    # commuting family: a generic combination supplies the common frame
    weights = [math.pi ** i for i in range(len(blocks))]
    M = sum(w * B for w, B in zip(weights, blocks))
    _, Q = eigh(0.5 * (M + M.T))
    for B in blocks:
        R = Q.T @ B @ Q
        if np.abs(R - np.diag(np.diag(R))).max() > 1e-8 * max(1.0, scale):
            return None
    return Q


def det_form(a, f, b) -> np.ndarray:
    """Quadratic form K with det [[a.c, f.c], [f.c, b.c]] = c^T K c."""
    ab = np.outer(a, b)
    return 0.5 * (ab + ab.T) - np.outer(f, f)


def psd_preimage_span(a, f, b):
    """Span of the cone {c : [[a.c, f.c], [f.c, b.c]] is PSD}.

    Returns (span, anchor): orthonormal columns spanning the cone and a
    unit vector of the cone (None when the cone is {0}). If the det form
    K has a positive eigenvalue, its eigenvector maps into the interior
    of S^2_+ or of -S^2_+, so the cone has interior and spans everything;
    the anchor is that eigenvector, signed into S^2_+. If K is negative
    semidefinite, the cone lies in null(K), whose image is at most one
    rank-one line (no 2-dimensional subspace of S^2 is det-isotropic), so
    the cone is the kernel of the map plus one semidefinite ray and spans
    null(K); the anchor is the null(K) direction of largest image.
    Eigenvalues of K within 1e-9 of zero, relative to the largest squared
    row norm, count as zero.
    """
    B = np.array([a, f, b], dtype=float)
    m = B.shape[1]
    scale = float(np.max(np.sum(B * B, axis=1)))
    if scale == 0.0:
        return np.eye(m), (np.eye(m)[:, 0] if m else None)
    lam, V = eigh(det_form(*B))
    if lam[0] > 1e-9 * scale:
        span, anchor = np.eye(m), V[:, 0]
    else:
        span = V[:, lam >= -1e-9 * scale]
        if span.shape[1] == 0:
            return span, None
        _, _, vt = np.linalg.svd(B @ span)
        anchor = span @ vt[0]
    if (B[0] + B[2]) @ anchor < 0.0:
        anchor = -anchor
    return span, anchor


def default_tol_zero(lam: np.ndarray):
    """Relative zero-eigenvalue threshold: 1e-8 * max(1, spectral radius).

    lam holds one spectrum, or a stack of them along the last axis, which
    gives one threshold per spectrum.
    """
    return 1e-8 * np.maximum(1.0, np.abs(lam).max(axis=-1, initial=0.0))


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition of a SymMat with the sign partition of its spectrum.

    P columns are eigenvectors ordered by descending eigenvalue, so the
    alpha (positive), beta (|eigenvalue| <= tol_zero), gamma (negative)
    index blocks are contiguous in that order.
    """

    source: SymMat
    P: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    tol_zero: float

    @property
    def p(self) -> int:
        return self.source.p

    @property
    def slices(self) -> tuple[slice, slice, slice]:
        """The alpha, beta and gamma index blocks as slices."""
        ka, kb = self.alpha.size, self.beta.size
        return slice(0, ka), slice(ka, ka + kb), slice(ka + kb, self.p)

    @property
    def curvature(self) -> np.ndarray:
        """The gamma x alpha matrix of weights lam_j / lam_i (j in gamma,
        i in alpha) that every curvature and coupling term reads."""
        return self.lam[self.gamma][:, None] / self.lam[self.alpha]

    @property
    def sigma(self) -> np.ndarray:
        """The alpha x gamma block of divided differences of max(lam, 0),
        lam_i / (lam_i - lam_j) (i in alpha, j in gamma): the weights the
        directional derivative of the PSD projection puts on that block."""
        la = self.lam[self.alpha][:, None]
        return la / (la - self.lam[self.gamma])

    def rotate(self, H) -> np.ndarray:
        """Compress a direction into the eigenbasis: P^T H P; InputDataError
        unless H has order p."""
        H = as_symmat(H)
        if H.p != self.p:
            raise InputDataError(f"direction order {H.p} does not match matrix order {self.p}")
        return self.P.T @ H.full() @ self.P


def spectral_decompose(M, tol_zero: float | None = None) -> SpectralDecomp:
    """Decompose M = P Diag(lam) P^T with descending lam and sign partition;
    InputDataError unless tol_zero is finite and nonnegative."""
    M = as_symmat(M)
    lam, P = jacobi_eigh(M)
    if tol_zero is None:
        tol_zero = default_tol_zero(lam)
    if not (math.isfinite(tol_zero) and tol_zero >= 0.0):
        raise InputDataError("tol_zero must be nonnegative and finite")
    ka = int(np.sum(lam > tol_zero))
    kg = int(np.sum(lam < -tol_zero))
    p = M.p
    alpha = np.arange(0, ka)
    beta = np.arange(ka, p - kg)
    gamma = np.arange(p - kg, p)
    for arr in (P, lam, alpha, beta, gamma):
        arr.flags.writeable = False
    return SpectralDecomp(M, P, lam, alpha, beta, gamma, float(tol_zero))


def project_psd(M) -> SymMat:
    """Metric projection onto the PSD cone (eigenvalue clamping)."""
    return SymMat(spectral_stack(as_symmat(M).full()[None])[2][0])


def moreau_split(M, tol_zero: float | None = None):
    """Complementary split M = X + Y with X = project_psd(M), Y NSD.

    Returns (X, Y, decomp) sharing one decomposition of M.
    """
    d = spectral_decompose(M, tol_zero)
    X = SymMat((d.P * np.maximum(d.lam, 0.0)) @ d.P.T)
    Y = SymMat((d.P * np.minimum(d.lam, 0.0)) @ d.P.T)
    return X, Y, d


def dir_deriv_from_decomp(d: SpectralDecomp, H) -> SymMat:
    """Directional derivative of project_psd at d.source along H."""
    H = as_symmat(H)
    if H.p != d.p:
        raise InputDataError(f"direction order {H.p} does not match matrix order {d.p}")
    return SymMat(dir_deriv_dense(d, H.full()))


def dir_deriv_dense(d: SpectralDecomp, H: np.ndarray) -> np.ndarray:
    """dir_deriv_from_decomp on a dense symmetric array H of order d.p.

    Returns the dense array, symmetrized as a SymMat symmetrizes it, so
    it equals the full matrix of dir_deriv_from_decomp bit for bit.
    """
    D = frame_projection(d, d.P.T @ H @ d.P, d.sigma)
    return 0.5 * (D + D.T)


def frame_projection(d: SpectralDecomp, Ht: np.ndarray, weights) -> np.ndarray:
    """P R P^T for the one blockwise rule R of the eigenframe of d.

    Ht is a direction in that frame. R keeps its alpha x (alpha u beta)
    blocks, scales its alpha x gamma block entrywise by weights, projects
    its beta block onto the PSD cone and zeroes its beta x gamma and
    gamma x gamma blocks. With the Sigma weights this is the directional
    derivative of the PSD projection, with weight 1 the projection onto
    the critical cone.
    """
    sa, sb, sg = d.slices
    R = np.zeros_like(Ht)
    R[sa, : sb.stop] = Ht[sa, : sb.stop]
    R[sb, sa] = Ht[sb, sa]
    R[sa, sg] = weights * Ht[sa, sg]
    R[sg, sa] = R[sa, sg].T
    if d.beta.size:
        lam_b, V_b = eigh(Ht[sb, sb])
        R[sb, sb] = (V_b * np.maximum(lam_b, 0.0)) @ V_b.T
    return d.P @ R @ d.P.T


def dir_deriv_projection(A, H) -> SymMat:
    """Directional derivative of the PSD projection at A along H: the
    frame_projection of H in the eigenframe of A with the Sigma weights,
    positively homogeneous of degree 1 in H."""
    A = as_symmat(A)
    H = as_symmat(H)
    if A.p != H.p:
        raise InputDataError(f"matrix orders differ: {A.p} vs {H.p}")
    return dir_deriv_from_decomp(spectral_decompose(A), H)


def pseudoinverse(M) -> SymMat:
    """Spectral pseudoinverse: reciprocal of the alpha and gamma eigenvalues
    of the default partition (default_tol_zero)."""
    d = spectral_decompose(M)
    sa, _, sg = d.slices
    inv = np.zeros(d.p)
    inv[sa], inv[sg] = 1.0 / d.lam[sa], 1.0 / d.lam[sg]
    return SymMat((d.P * inv) @ d.P.T)
