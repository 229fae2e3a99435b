"""Linear-algebra kernels: null spaces, LP feasibility, cone witnesses."""

import numpy as np
import pytest

from kkt_spectra import lpkernel
from kkt_spectra.lpkernel import (
    cone_kernel_nontrivial,
    linear_feasible,
    nontrivial_in_span,
    null_space,
    polish_in_span,
    subspace_psd_nontrivial,
)
from kkt_spectra.symmat import common_eigenframe, eigh, sym_mat, sym_vec


def test_null_space():
    A = np.array([[1.0, 1.0, 0.0]])
    Z = null_space(A)
    assert Z.shape == (3, 2) and np.allclose(A @ Z, 0)
    assert null_space(np.zeros((0, 4))).shape == (4, 4)
    assert null_space(np.eye(3)).shape[1] == 0


def test_linear_feasible_hand_cases():
    # each equality a x = b is the pair a x >= b, -a x >= -b
    x, infeas = linear_feasible([[1, 1], [1, -1], [-1, -1], [-1, 1]], [1, 0, -1, 0])
    assert infeas <= 1e-9 and np.allclose(x, [0.5, 0.5])
    x, infeas = linear_feasible([[1.0], [1.0], [-1.0], [-1.0]], [1.0, 2.0, -1.0, -2.0])
    assert x is None and infeas > 1e-3
    x, _ = linear_feasible([[1.0]], [3.0])
    assert x is not None and x[0] >= 3 - 1e-9
    x, _ = linear_feasible([[1, 1], [-1, -1], [1, 0]], [0, 0, 1])
    assert x is not None and abs(x[0] + x[1]) <= 1e-9 and x[0] >= 1 - 1e-9


def test_linear_feasible_random_consistency():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        Aeq = rng.standard_normal((m, n))
        x0 = rng.standard_normal(n)
        Age = rng.standard_normal((int(rng.integers(0, 4)), n))
        x, _ = linear_feasible(np.vstack([Aeq, -Aeq, Age]), np.concatenate([Aeq @ x0, -(Aeq @ x0), Age @ x0]))
        assert x is not None
        assert np.linalg.norm(Aeq @ x - Aeq @ x0) <= 1e-7 * max(1, np.linalg.norm(Aeq @ x0))
        if Age.size:
            assert np.min(Age @ x - Age @ x0) >= -1e-7


def test_nontrivial_in_span_hand_cases():
    z = nontrivial_in_span(null_space(np.zeros((0, 3))), 2)
    assert z is not None and np.linalg.norm(z[:2]) > 1e-9
    z = nontrivial_in_span(null_space(np.array([[1.0, 0, 0], [0, 1.0, 0]])), 2)
    assert z is None
    z = nontrivial_in_span(
        null_space(np.array([[1.0, 1.0, 0.0]])), 2, [np.array([1.0, -1.0, 0.0])]
    )
    assert z is not None and z[0] - z[1] >= -1e-12 and abs(z[0] + z[1]) < 1e-12
    # conflicting inequalities force the xi coordinate to zero
    z = nontrivial_in_span(
        null_space(np.zeros((0, 2))), 1, [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
    )
    assert z is None
    z = nontrivial_in_span(
        null_space(np.zeros((0, 2))), 1, [np.array([1.0, 1.0]), np.array([1.0, -1.0])]
    )
    assert z is not None and abs(z[0]) > 1e-9
    assert z[0] + z[1] >= -1e-9 and z[0] - z[1] >= -1e-9


def test_nontrivial_in_span_random():
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        xi_dim = int(rng.integers(1, dim + 1))
        eq = (
            rng.standard_normal((int(rng.integers(0, dim - 1)), dim))
            if dim > 1
            else np.zeros((0, dim))
        )
        ineqs = [rng.standard_normal(dim) for _ in range(int(rng.integers(2, 5)))]
        z = nontrivial_in_span(null_space(eq), xi_dim, ineqs)
        if z is None:
            continue
        found += 1
        if eq.size:
            assert np.linalg.norm(eq @ z) <= 1e-7 * max(1, np.linalg.norm(z))
        assert min(a @ z for a in ineqs) >= -1e-7 * max(1, np.linalg.norm(z))
        assert np.linalg.norm(z[:xi_dim]) > 1e-9
    assert found > 0


def test_polish_in_span_resolves_trailing_block():
    rng = np.random.default_rng(3)
    E = rng.standard_normal((3, 5))
    z = null_space(E)[:, 0]
    noisy = 7.0 * z + np.concatenate([np.zeros(2), 1e-6 * rng.standard_normal(3)])
    out = polish_in_span(null_space(E), noisy, 2)
    assert np.linalg.norm(out[:2]) == pytest.approx(1.0, abs=1e-15)
    assert np.abs(E @ out).max() <= 1e-12
    assert np.allclose(out, z / np.linalg.norm(z[:2]), atol=1e-12)


def test_subspace_psd_nontrivial_hand_cases():
    W = subspace_psd_nontrivial(null_space(np.zeros((0, 3))), 2)
    assert W is not None and np.linalg.eigvalsh(W).min() >= -1e-12
    # off-diagonal-only subspace of S^2 meets the PSD cone only at 0
    rows = np.stack([sym_vec(np.diag([1.0, 0.0])), sym_vec(np.diag([0.0, 1.0]))])
    assert subspace_psd_nontrivial(null_space(rows), 2) is None
    # trace-zero diagonal subspace likewise
    rows = np.stack(
        [
            sym_vec(np.array([[0, 1.0], [1.0, 0]]) / np.sqrt(2)),
            sym_vec(np.diag([1.0, 1.0])) / np.sqrt(2),
        ]
    )
    assert subspace_psd_nontrivial(null_space(rows), 2) is None
    # full diagonal subspace contains PSD elements
    rows = np.stack([sym_vec(np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2))])
    W = subspace_psd_nontrivial(null_space(rows), 2)
    assert W is not None and np.linalg.eigvalsh(W).min() >= -1e-8
    assert abs(W[0, 1]) <= 1e-9


def test_subspace_psd_constructed_witnesses():
    rng = np.random.default_rng(11)
    for _ in range(120):
        q = int(rng.integers(2, 5))
        nfull = q * (q + 1) // 2
        Q, _ = np.linalg.qr(rng.standard_normal((q, q)))
        d = np.abs(rng.standard_normal(q))
        v = sym_vec((Q * d) @ Q.T)
        v = v / np.linalg.norm(v)
        k = int(rng.integers(1, 3))
        basis = [v]
        for _ in range(k - 1):
            u = rng.standard_normal(nfull)
            u -= sum((u @ b) * b for b in basis)
            basis.append(u / np.linalg.norm(u))
        Vb = np.stack(basis, axis=1)
        U, _, _ = np.linalg.svd(Vb, full_matrices=True)
        comp = U[:, k:].T
        W = subspace_psd_nontrivial(null_space(comp), q)
        assert W is not None, "known PSD element missed"
        assert np.linalg.norm(comp @ sym_vec(W)) <= 1e-6
        assert np.linalg.eigvalsh(W).min() >= -1e-7


def test_subspace_psd_certified_trivial():
    rng = np.random.default_rng(11)
    for _ in range(120):
        q = int(rng.integers(2, 5))
        nfull = q * (q + 1) // 2
        Q, _ = np.linalg.qr(rng.standard_normal((q, q)))
        d = rng.uniform(0.5, 2.0, q)
        rows = [sym_vec((Q * d) @ Q.T)]  # PD certificate row
        for _ in range(int(rng.integers(0, 3))):
            rows.append(rng.standard_normal(nfull))
        assert subspace_psd_nontrivial(null_space(np.stack(rows)), q) is None


def test_cone_kernel_nontrivial():
    eq = np.array([[1.0, 1.0, 0.0]])
    blk = np.array([[1.0, 0.0, 0.0]])
    v = cone_kernel_nontrivial(null_space(eq), blk, 1)
    assert v is not None and abs(v[0] + v[1]) < 1e-9
    v = cone_kernel_nontrivial(null_space(np.zeros((0, 1))), np.array([[1.0]]), 1)
    assert v is not None and v[0] > 0
    v = cone_kernel_nontrivial(null_space(np.zeros((0, 1))), -np.array([[1.0]]), 1)
    assert v is not None and v[0] < 0
    assert cone_kernel_nontrivial(null_space(np.array([[1.0]])), np.array([[1.0]]), 1) is None
    # zero diagonal forced: remaining off-diagonal block is PSD only at 0
    rows_eq = np.stack([sym_vec(np.diag([1.0, 0.0])), sym_vec(np.diag([0.0, 1.0]))])
    assert cone_kernel_nontrivial(null_space(rows_eq), np.eye(3), 2) is None


def test_cone_kernel_cuts_a_round_off_map_against_its_rows():
    # on the span of (1e-17, 1) the block map is 1e-17 against rows of size
    # 1: it is the zero map there, and the span's vector is the witness
    z = np.array([1e-17, 1.0])
    v = cone_kernel_nontrivial((z / np.linalg.norm(z))[:, None], np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]), 2)
    assert v is not None and np.linalg.norm(v) > 0.5


def test_subspace_psd_span_edge_cases():
    # S^0, a span with no columns, and a span of all of S^q
    assert subspace_psd_nontrivial(np.zeros((0, 0)), 0) is None
    assert subspace_psd_nontrivial(np.zeros((3, 0)), 2) is None
    V, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 6)))
    assert np.array_equal(subspace_psd_nontrivial(V, 3), np.eye(3) / np.sqrt(3.0))


def test_subspace_psd_diagonal_span_without_a_psd_point(monkeypatch):
    # span(diag(2, 1, 1, -0.1)) holds no nonzero PSD point, and the fit of
    # the identity onto its complement, diag(1 - 2c, 1 - c, 1 - c, 1 + c/10)
    # with c = 3.9/6.01, is not positive definite: the diagonal LP sweep
    # decides, and no later tier runs
    v = sym_vec(np.diag([2.0, 1.0, 1.0, -0.1]))
    sweeps = []
    monkeypatch.setattr(lpkernel, "linear_feasible", lambda *a: sweeps.append(1) or linear_feasible(*a))
    monkeypatch.setattr(lpkernel, "_commuting_rows_tier", _fail)
    monkeypatch.setattr(lpkernel, "_interior_point_tier", _fail)
    assert subspace_psd_nontrivial((v / np.linalg.norm(v))[:, None], 4) is None
    assert len(sweeps) == 4


@pytest.mark.parametrize(
    "diagonals, expect",
    [
        ([[1.0, -1.0, 0.0]], None),  # Gordan: the fit of I is I itself
        ([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]], [0.0, 1.0]),  # the diagonal LP finds diag(0, 1, 0)
    ],
)
def test_cone_kernel_takes_one_svd_and_no_least_squares(monkeypatch, diagonals, expect):
    # a block map onto diagonal matrices, decided by the Gordan or the
    # diagonal tier: the one SVD of the map yields the image span the
    # subspace decider reads and the factors its witness is pulled back by
    block_rows = np.stack([sym_vec(np.diag(d)) for d in diagonals], axis=1)
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    monkeypatch.setattr(np.linalg, "lstsq", _fail)
    v = cone_kernel_nontrivial(np.eye(len(diagonals)), block_rows, 3)
    assert len(svds) == 1
    if expect is None:
        assert v is None
    else:
        assert np.abs(np.abs(v) - expect).max() <= 1e-12
        assert np.linalg.eigvalsh(sym_mat(block_rows @ v, 3).full()).min() >= -1e-12


def test_subspace_psd_q2_det_form():
    # random subspaces of S^2, one or two dimensional: a nonzero PSD
    # element exists iff the det form is not negative definite, which a
    # dense circle of directions decides away from the boundary
    rng = np.random.default_rng(5)
    decided = {True: 0, False: 0}
    for _ in range(200):
        k = int(rng.integers(1, 3))
        V, _ = np.linalg.qr(rng.standard_normal((3, k)))
        comp = null_space(V.T).T
        mats = [sym_mat(V[:, j], 2).full() for j in range(k)]
        if k == 1:
            dets = [np.linalg.det(mats[0])]
        else:
            phis = np.linspace(0.0, np.pi, 721)
            dets = [np.linalg.det(np.cos(t) * mats[0] + np.sin(t) * mats[1]) for t in phis]
        if abs(max(dets)) <= 1e-3:
            continue
        expect = max(dets) > 0
        W = subspace_psd_nontrivial(null_space(comp), 2)
        assert (W is not None) == expect
        decided[expect] += 1
        if W is not None:
            assert np.linalg.norm(comp @ sym_vec(W)) <= 1e-9
            assert np.linalg.eigvalsh(W).min() >= -1e-9 and abs(np.linalg.norm(W) - 1.0) <= 1e-12
    assert min(decided.values()) >= 40, decided


def _frame_rows(Q, D):
    """Rows svec(Q diag(D[k]) Q^T): a commuting family in the frame Q."""
    return np.stack([sym_vec((Q * Dk) @ Q.T) for Dk in D])


def _planted_rows(rng, q):
    """Commuting rows with a planted d >= 0 in the kernel of their diagonal
    data D, one entry of D scaled by 1e-6 and one by 1e-8; returns
    (rows, frame, d)."""
    Q, _ = np.linalg.qr(rng.standard_normal((q, q)))
    r = int(rng.integers(1, q))
    d = rng.uniform(0.1, 1.0, q) * (rng.uniform(size=q) < 0.7)
    d[-1] = rng.uniform(0.5, 1.0)
    D = rng.standard_normal((r, q))
    D[0, 0] *= 1e-6
    D[-1, 1] *= 1e-8
    D[:, -1] = -(D[:, :-1] @ d[:-1]) / d[-1]
    return _frame_rows(Q, D), Q, d


def _certified_trivial_rows(rng, q):
    """Commuting rows, scaled as in _planted_rows, some combination of
    which is positive definite."""
    Q, _ = np.linalg.qr(rng.standard_normal((q, q)))
    r = int(rng.integers(1, q + 1))
    y = rng.standard_normal(r)
    y[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    D = rng.standard_normal((r, q))
    D[-1, 0] *= 1e-6
    D[-1, 1] *= 1e-8
    D[0] = (rng.uniform(0.5, 2.0, q) - D[1:].T @ y[1:]) / y[0]
    return _frame_rows(Q, D)


def _fail(*args, **kwargs):
    raise AssertionError("a later tier ran")


def _count_eigh(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(lpkernel, "eigh", counted)
    return calls


def _count_interior_point(monkeypatch):
    calls = []
    tier = lpkernel._interior_point_tier

    def counted(*args):
        calls.append(1)
        return tier(*args)

    monkeypatch.setattr(lpkernel, "_interior_point_tier", counted)
    return calls


def test_subspace_psd_commuting_rows_planted_witness():
    rng = np.random.default_rng(23)
    for q in range(3, 7):
        for _ in range(40):
            rows, _, _ = _planted_rows(rng, q)
            W = subspace_psd_nontrivial(null_space(rows), q)
            assert W is not None, "planted PSD element missed"
            assert np.linalg.norm(rows @ sym_vec(W)) <= 1e-9 * max(1.0, np.abs(rows).max())
            assert np.linalg.eigvalsh(W).min() >= -1e-12 and abs(np.linalg.norm(W) - 1.0) <= 1e-12


def test_subspace_psd_commuting_rows_certified_trivial():
    rng = np.random.default_rng(29)
    for q in range(3, 7):
        for _ in range(40):
            assert subspace_psd_nontrivial(null_space(_certified_trivial_rows(rng, q)), q) is None


def test_subspace_psd_commuting_rows_skip_the_search(monkeypatch):
    # cost guard: commuting rows are decided by the Gordan certificate of
    # the identity's fit or by the diagonal LP, which call eigh once each,
    # and never reach the interior-point tier
    rng = np.random.default_rng(31)
    calls = _count_eigh(monkeypatch)
    monkeypatch.setattr(lpkernel, "_interior_point_tier", _fail)
    rows, _, _ = _planted_rows(rng, 6)
    assert subspace_psd_nontrivial(null_space(rows), 6) is not None
    assert len(calls) <= 2
    calls.clear()
    assert subspace_psd_nontrivial(null_space(_certified_trivial_rows(rng, 6)), 6) is None
    assert len(calls) <= 2


def test_subspace_psd_gordan_certificate_decides_first(monkeypatch):
    # rows spanning I and two non-commuting matrices at q = 3: the fit of
    # the identity onto the row space is I itself, positive definite, so
    # the call on the span of their null space returns None before the
    # diagonal, q = 2 and commuting tiers, and takes no complement
    rng = np.random.default_rng(41)
    A, B = (sym_vec(M + M.T) for M in rng.standard_normal((2, 3, 3)))
    rows = np.stack([sym_vec(np.eye(3)), A, B])
    assert common_eigenframe([sym_mat(v, 3).full() for v in rows], 3) is None
    N = null_space(rows)
    assert any(np.abs(M - np.diag(np.diag(M))).max() > 1e-3 for M in (sym_mat(v, 3).full() for v in N.T))

    monkeypatch.setattr(lpkernel, "null_space", _fail)
    monkeypatch.setattr(lpkernel, "_commuting_rows_tier", _fail)
    assert subspace_psd_nontrivial(N, 3) is None


def test_subspace_psd_non_commuting_rows_reach_the_search(monkeypatch):
    # q - 1 rows annihilating a positive definite W0, bumped off their
    # common frame by 1e-6 (commutators far above the common_eigenframe
    # threshold): the diagonal and commuting tiers must decline, and the
    # interior-point tier returns a certified positive definite witness
    rng = np.random.default_rng(37)
    frames = []
    monkeypatch.setattr(
        lpkernel, "common_eigenframe", lambda *a: frames.append(common_eigenframe(*a)) or frames[-1]
    )
    calls = _count_interior_point(monkeypatch)
    for q in (3, 5):
        Q, _ = np.linalg.qr(rng.standard_normal((q, q)))
        w = rng.uniform(0.5, 1.0, q)
        D = rng.standard_normal((q - 1, q))
        D -= np.outer(D @ w, w) / (w @ w)
        w0 = sym_vec((Q * w) @ Q.T)
        bump = rng.standard_normal((q - 1, w0.size))
        bump -= np.outer(bump @ w0, w0) / (w0 @ w0)
        rows = _frame_rows(Q, D) + 1e-6 * bump
        assert np.abs(rows @ w0).max() <= 1e-12
        frames.clear()
        calls.clear()
        W = subspace_psd_nontrivial(null_space(rows), q)
        assert len(frames) == 1 and frames[0] is None
        assert len(calls) == 1
        assert W is not None and np.linalg.eigvalsh(W).min() > 0.0
        assert np.linalg.norm(rows @ sym_vec(W)) <= 1e-9 * max(1.0, np.abs(rows).max())
        assert abs(np.linalg.norm(W) - 1.0) <= 1e-12


def _rows_orthogonal_to(rng, count, P):
    """count random svec rows, each orthogonal to svec(P)."""
    p = sym_vec(P) / np.linalg.norm(sym_vec(P))
    R = rng.standard_normal((count, p.size))
    return R - np.outer(R @ p, p)


def _stress_case(rng, kind, q):
    """Rows of one stress subspace of S^q and its planted answer: for
    "rank-one" the matrix v v^T spanning its only PSD ray, True when a PSD
    point is planted, None when a row combination is PD."""
    nfull = q * (q + 1) // 2
    Q, _ = np.linalg.qr(rng.standard_normal((q, q)))
    if kind == "line":
        # span(M): M = +-V V^T meets the cone, an indefinite M does not
        if rng.uniform() < 0.5:
            V = rng.standard_normal((q, int(rng.integers(1, q + 1))))
            M, answer = rng.choice([-1.0, 1.0]) * V @ V.T, True
        else:
            d = rng.uniform(0.1, 1.0, q) * rng.choice([-1.0, 1.0], q)
            d[:2] = [-abs(d[0]), abs(d[1])]
            M, answer = (Q * d) @ Q.T, None
        return null_space(sym_vec(M)[None, :]).T, answer
    if kind == "rank-one":
        # Z >= 0 with kernel v is a row, so v v^T spans the only PSD ray
        Z = (Q[:, 1:] * rng.uniform(0.5, 2.0, q - 1)) @ Q[:, 1:].T
        V = np.outer(Q[:, 0], Q[:, 0])
        rows = np.vstack([sym_vec(Z), _rows_orthogonal_to(rng, int(rng.integers(0, nfull - 2)), V)])
        return rows, V
    if kind == "pd-scaled":
        P = (Q * rng.uniform(0.5, 2.0, q)) @ Q.T
        rows = _rows_orthogonal_to(rng, int(rng.integers(1, nfull - 1)), P)
        return rows * 10.0 ** rng.uniform(-4.0, 4.0, (len(rows), 1)), True
    # "pd-rows": a PD matrix, eigenvalues over 1e-3..1, mixed into random rows
    R = rng.standard_normal((int(rng.integers(2, nfull - 1)), nfull))
    R[0] = sym_vec((Q * 10.0 ** rng.uniform(-3.0, 0.0, q)) @ Q.T)
    return rng.standard_normal((len(R), len(R))) @ R, None


def test_subspace_psd_interior_point_stress(monkeypatch):
    # 240 seeded subspaces of S^3..S^6, 60 of each kind, each with a
    # planted answer; every witness is re-checked on the unscaled rows
    rng = np.random.default_rng(43)
    calls = _count_interior_point(monkeypatch)
    reached = dict.fromkeys(("line", "rank-one", "pd-scaled", "pd-rows"), 0)
    for i in range(240):
        kind = list(reached)[i % 4]
        q = int(rng.integers(3, 7))
        rows, answer = _stress_case(rng, kind, q)
        calls.clear()
        W = subspace_psd_nontrivial(null_space(rows), q)
        reached[kind] += len(calls)
        if answer is None:
            assert W is None, kind
            continue
        assert W is not None, kind
        assert np.linalg.eigvalsh(W).min() >= -1e-8 and abs(np.linalg.norm(W) - 1.0) <= 1e-12
        assert np.linalg.norm(rows @ sym_vec(W)) <= 1e-9 * max(1.0, np.abs(rows).max())
        if kind == "rank-one":
            assert np.linalg.norm(W - answer) <= 1e-6
    assert min(reached.values()) >= 15, reached
