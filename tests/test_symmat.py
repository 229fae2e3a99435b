"""Spectral core: eigensolver, projections, directional derivatives."""

import math
import warnings

import numpy as np
import pytest

from kkt_spectra.cones import cone_context
from kkt_spectra.errors import InputDataError
from kkt_spectra.problem import example2_family, kkt_point, make_problem
from kkt_spectra.symmat import (
    SymMat,
    det_form,
    dir_deriv_projection,
    eig_range,
    eigh,
    jacobi_eigh,
    moreau_split,
    project_psd,
    pseudoinverse,
    psd_preimage_span,
    spectral_decompose,
    svec_stack,
    sym_mat,
    sym_mat_stack,
    sym_vec,
)


def test_jacobi_matches_dense_eigh():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(300):
        p = int(rng.integers(1, 9))
        M = rng.normal(size=(p, p))
        M = 0.5 * (M + M.T)
        lam, P = jacobi_eigh(M)
        lam_np = np.sort(np.linalg.eigvalsh(M))[::-1]
        worst = max(worst, np.max(np.abs(lam - lam_np)) / max(1, np.abs(lam).max()))
        scale = max(1, np.abs(lam).max())
        assert np.allclose(P @ np.diag(lam) @ P.T, M, atol=1e-10 * scale)
        assert np.allclose(P.T @ P, np.eye(p), atol=1e-12)
    assert worst <= 1e-10


def _leading_entry(col):
    """First entry whose magnitude is within 1e-12 of the column maximum."""
    top = np.abs(col).max()
    return col[np.flatnonzero(np.abs(col) >= top - 1e-12)[0]]


def test_eigh_column_signs():
    rng = np.random.default_rng(1)
    mats = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(3), -np.eye(2)]
    for _ in range(100):
        p = int(rng.integers(2, 7))
        M = rng.normal(size=(p, p))
        mats.append(0.5 * (M + M.T))
    for M in mats:
        lam, V = eigh(M)
        assert np.all(np.diff(lam) <= 0.0)
        for col in V.T:
            assert _leading_entry(col) > 0.0
    # exact tie: the first entry of each column decides the sign
    lam, V = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(lam, [1.0, -1.0])
    assert np.all(V[0] > 0.0)
    assert np.allclose(V, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


def test_eigh_small_orders_skip_lapack(monkeypatch):
    def refuse(_):
        raise AssertionError("LAPACK called for order <= 1")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    lam, V = eigh(np.zeros((0, 0)))
    assert lam.shape == (0,) and V.shape == (0, 0)
    lam, V = eigh(np.array([[-2.5]]))
    assert lam.tolist() == [-2.5] and V.tolist() == [[1.0]]


def test_eigh_repeatable():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = int(rng.integers(1, 7))
        M = rng.normal(size=(p, p))
        M = 0.5 * (M + M.T)
        lam1, V1 = eigh(M)
        lam2, V2 = eigh(M.copy())
        assert np.array_equal(lam1, lam2) and np.array_equal(V1, V2)


def test_frozen_decompositions():
    d = spectral_decompose(SymMat.diag([2.0, 0.0, -3.0]), 1e-8)
    assert np.allclose(d.lam, [2, 0, -3])
    assert list(d.alpha) == [0] and list(d.beta) == [1] and list(d.gamma) == [2]
    assert np.allclose(np.abs(d.P), np.eye(3))

    lam, P = jacobi_eigh([[0, 1], [1, 0]])
    assert np.allclose(lam, [1, -1])
    assert np.allclose(np.abs(P), np.full((2, 2), 1 / np.sqrt(2)))

    d0 = spectral_decompose(SymMat.zeros(3))
    assert d0.beta.size == 3 and d0.sigma.shape == (0, 0)


def test_projection_examples():
    assert project_psd([[0, 1], [1, 0]]).allclose([[0.5, 0.5], [0.5, 0.5]])
    assert project_psd(SymMat.diag([2, -3])).allclose(np.diag([2.0, 0.0]))


def test_stacked_kernels_match_single_matrices():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3, 4):
        M = rng.standard_normal((2, 3, k, k))
        M = M + M.swapaxes(-1, -2)
        lo, hi = eig_range(M)
        assert lo.shape == hi.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            lam = np.linalg.eigvalsh(M[idx])
            assert (lo[idx], hi[idx]) == (lam[0], lam[-1])
    lo, hi = eig_range(np.zeros((5, 0, 0)))
    assert lo.shape == (5,) and not lo.any() and not hi.any()


def test_sigma_entry_divided_difference():
    d = spectral_decompose(SymMat.diag([2.0, -3.0]), 1e-8)
    # max(2,0)/ (2-(-3)) = 2/5
    assert abs(d.sigma[0, 0] - 0.4) < 1e-14


def test_dir_deriv_examples():
    D = dir_deriv_projection(SymMat.diag([2, -3]), [[0, 1], [1, 0]])
    assert D.allclose([[0, 0.4], [0.4, 0]], atol=1e-12)
    D2 = dir_deriv_projection(SymMat.diag([2, -3]), np.eye(2))
    assert D2.allclose(np.diag([1.0, 0.0]), atol=1e-12)
    # at zero the derivative is the projection of the direction itself
    D3 = dir_deriv_projection(SymMat.zeros(2), [[0, 1], [1, 0]])
    assert D3.allclose(project_psd([[0, 1], [1, 0]]).full())


def test_pseudoinverse():
    assert pseudoinverse(SymMat.diag([2, 0])).allclose(np.diag([0.5, 0.0]))
    assert pseudoinverse(SymMat([[0, 1], [1, 0]])).allclose([[0, 1], [1, 0]], atol=1e-12)


def test_dir_deriv_finite_difference():
    rng = np.random.default_rng(0)
    t = 1e-6
    worst = 0.0
    for k in range(100):
        p = int(rng.integers(1, 7))
        if k % 3 == 0:
            A = rng.normal(size=(p, p))
            A = 0.5 * (A + A.T)
        else:
            # exact-zero eigenvalues so the nonlinear beta branch is hit
            lamv = np.concatenate([rng.normal(size=p - p // 2) * 3, np.zeros(p // 2)])
            Q = np.linalg.qr(rng.normal(size=(p, p)))[0]
            A = (Q * lamv) @ Q.T
        H = rng.normal(size=(p, p))
        H = 0.5 * (H + H.T)
        lhs = dir_deriv_projection(SymMat(A), SymMat(H)).full()
        fd = (project_psd(SymMat(A + t * H)).full() - project_psd(SymMat(A)).full()) / t
        worst = max(worst, np.linalg.norm(lhs - fd) / max(1, np.linalg.norm(H)))
    assert worst <= 1e-3


def test_svec_isometry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = int(rng.integers(1, 8))
        A = rng.normal(size=(p, p))
        A = 0.5 * (A + A.T)
        B = rng.normal(size=(p, p))
        B = 0.5 * (B + B.T)
        va, vb = sym_vec(SymMat(A)), sym_vec(SymMat(B))
        assert abs(va @ vb - np.sum(A * B)) < 1e-10
        assert sym_mat(va, p).allclose(A, atol=1e-12)


def test_sym_mat_stack_unpacks_as_sym_mat():
    # each row, and a single row alone, unpacks bit for bit to the full
    # matrix sym_mat gives, and svec_stack packs it back
    rng = np.random.default_rng(3)
    for p in range(1, 6):
        m = p * (p + 1) // 2
        for k in (0, 1, 4):
            V = rng.normal(size=(k, m))
            S = sym_mat_stack(V, p)
            assert S.shape == (k, p, p)
            for v, M in zip(V, S):
                assert M.tobytes() == sym_mat(v, p).full().tobytes()
                assert sym_mat_stack(v, p).tobytes() == M.tobytes()
            assert np.allclose(svec_stack(S), V, rtol=0.0, atol=1e-15)
    with pytest.raises(InputDataError, match="order 2"):
        sym_mat_stack(np.zeros((2, 4)), 2)
    with pytest.raises(InputDataError, match="finite"):
        sym_mat_stack(np.array([[0.0, math.nan, 1.0]]), 2)


def test_moreau_split():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = int(rng.integers(1, 7))
        M = rng.normal(size=(p, p))
        M = 0.5 * (M + M.T)
        X, Y, d = moreau_split(SymMat(M))
        assert np.allclose(X.full() + Y.full(), M, atol=1e-12)
        assert abs(X.inner(Y)) <= 1e-8 * max(1, X.norm() * Y.norm())
        assert np.linalg.eigvalsh(X.full()).min() >= -1e-10
        assert np.linalg.eigvalsh(Y.full()).max() <= 1e-10


def test_det_form_matches_determinant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, f, b, c = rng.standard_normal((4, 5))
        M = np.array([[a @ c, f @ c], [f @ c, b @ c]])
        assert abs(c @ det_form(a, f, b) @ c - np.linalg.det(M)) <= 1e-10 * (1.0 + np.abs(M).max() ** 2)


def test_psd_preimage_span_cases():
    def block(B, c):
        x, y, w = np.asarray(B, dtype=float) @ c
        return np.array([[x, y], [y, w]])

    # identity onto S^2: a positive det direction, so the cone spans R^3
    span, anchor = psd_preimage_span([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    assert span.shape == (3, 3) and np.linalg.eigvalsh(block(np.eye(3), anchor)).min() > 0.1
    # off-diagonal line: det = -c^2 is negative definite, the cone is {0}
    span, anchor = psd_preimage_span([0.0], [1.0], [0.0])
    assert span.shape == (1, 0) and anchor is None
    # c -> [[c1, c2], [c2, 0]] plus an unused coordinate: det = -c2^2, so
    # the cone is the kernel (e3) plus the ray of diag(1, 0) (e1)
    B = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    span, anchor = psd_preimage_span(*B)
    assert span.shape == (3, 2) and np.allclose(span[1], 0.0)
    assert np.allclose(anchor, [1.0, 0.0, 0.0]) and np.allclose(block(B, anchor), np.diag([1.0, 0.0]))
    # the negative ray signs into S^2_+
    _, anchor = psd_preimage_span([-1.0], [0.0], [0.0])
    assert np.allclose(anchor, [-1.0])
    # zero map: every point qualifies
    span, anchor = psd_preimage_span([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    assert span.shape == (2, 2) and anchor is not None


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SymMat.diag([1e308, 1.0]), "matrix entries"),  # 1e308 + 1e308 overflows
        (lambda: SymMat([[0.0, 1.7e308], [1.7e308, 0.0]]), "matrix entries"),
        (lambda: SymMat([[1.0, math.nan], [0.0, 1.0]]), "matrix entries"),
        (lambda: math.inf * SymMat.eye(2), "scalar factor"),
        (lambda: SymMat.eye(2) * math.nan, "scalar factor"),
        (lambda: SymMat.eye(2) * 1e308 * 10.0, "matrix entries"),
        (lambda: SymMat.diag([1e308, 0.0]) + SymMat.diag([1e308, 0.0]), "matrix entries"),
        (lambda: SymMat.diag([-1e308, 0.0]) - SymMat.diag([1e308, 0.0]), "matrix entries"),
        (lambda: SymMat.eye(2) + [[math.inf, 0.0], [0.0, 0.0]], "matrix entries"),
    ],
    ids=["init-diag", "init-offdiag", "init-nan", "mul-inf", "mul-nan", "mul-overflow",
         "add-overflow", "sub-overflow", "add-inf"],
)
def test_symmat_rejects_nonfinite_entries(build, message):
    # every SymMat holds finite entries: a symmetrized matrix, scalar or
    # sum that is not finite raises, with no floating-point warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputDataError, match=message):
            build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: SymMat([[1, "x"], [2, 3]]),
        lambda: make_problem([0.0], [[0.0]], [["a"]], [[[1.0]]]),
        lambda: kkt_point(example2_family().problem, [0, 0], [[1, 0], [0]]),
        lambda: cone_context([["a"]], [[0.0]]),
    ],
    ids=["symmat-string", "make_problem-string", "kkt_point-ragged", "cone_context-string"],
)
def test_symmat_rejects_entries_that_are_not_a_matrix_of_numbers(build):
    # numpy's float conversion raises a bare ValueError on these; every entry
    # point that coerces a matrix through SymMat names the input fault instead
    with pytest.raises(InputDataError, match="expected a matrix of numbers"):
        build()


@pytest.mark.parametrize("orders", [(1, 2), (2, 3)], ids=["1-vs-2", "2-vs-3"])
@pytest.mark.parametrize(
    "op",
    [lambda A, B: A + B, lambda A, B: A - B, lambda A, B: A.inner(B)],
    ids=["add", "sub", "inner"],
)
def test_symmat_arithmetic_rejects_mismatched_orders(op, orders):
    # both directions: neither operand may be broadcast into the other
    p, q = orders
    for A, B in ((SymMat.eye(p), SymMat.eye(q)), (SymMat.eye(q), SymMat.eye(p))):
        with pytest.raises(InputDataError, match=f"matrix orders differ: {A.p} vs {B.p}"):
            op(A, B)


def test_symmat_keeps_large_finite_entries():
    big = SymMat.diag([8e307, 1.0])
    assert big.max_abs() == 8e307
    assert (big + big).max_abs() == 1.6e308 and (2.0 * big).max_abs() == 1.6e308
