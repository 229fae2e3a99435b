"""Problem data: evaluation, derivatives, reference pairs, file round trips."""

import json
import math
import re
import tempfile

import numpy as np
import pytest

from conftest import planted_pair, random_symmetric
from kkt_spectra.errors import InputDataError
from kkt_spectra.problem import (
    ProblemKernels,
    builtin_family,
    eval_grad_f,
    kkt_point,
    load_problem,
    make_problem,
    problem_from_dict,
    problem_to_dict,
    shifted_problem,
)
from kkt_spectra.perturb import _svec_basis_rotation
from kkt_spectra.sosc import multiplier_distance_estimate
from kkt_spectra.symmat import SymMat, packing_tables, sym_vec


def test_derivatives_against_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    worst_jac = worst_hess = worst_adj = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        quad = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                quad[i][j] = random_symmetric(rng, p, 2.0)
                quad[j][i] = quad[i][j]
        fq = rng.standard_normal((n, n))
        pd = make_problem(
            rng.standard_normal(n),
            fq + fq.T,
            random_symmetric(rng, p, 2.0),
            [random_symmetric(rng, p, 2.0) for _ in range(n)],
            quad,
        )
        kern = ProblemKernels(pd)
        x = rng.standard_normal(n)
        Ds = kern.jacobians(x).reshape(n, p, p)
        Y = random_symmetric(rng, p, 2.0)
        H = kern.hessians(Y.full())
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (kern.G(x + e) - kern.G(x - e)) / (2 * h)
            worst_jac = max(worst_jac, np.max(np.abs(fd - Ds[i])))
            # the adjoint G'(x)* Y, entry i being <D_i(x), Y>
            gp = eval_grad_f(pd, x + e) + kern.jacobians(x + e) @ Y.full().ravel()
            gm = eval_grad_f(pd, x - e) + kern.jacobians(x - e) @ Y.full().ravel()
            worst_hess = max(worst_hess, np.max(np.abs((gp - gm) / (2 * h) - H[:, i])))
        d = rng.standard_normal(n)
        lhs = SymMat((d @ kern.jacobians(x)).reshape(p, p)).inner(Y)
        rhs = float(d @ (kern.jacobians(x) @ Y.full().ravel()))
        worst_adj = max(worst_adj, abs(lhs - rhs))
    assert worst_jac < 1e-6
    assert worst_hess < 1e-5
    assert worst_adj < 1e-10


def _random_quadratic_problem(rng, n, p):
    quad = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            quad[i][j] = quad[j][i] = random_symmetric(rng, p, 2.0)
    fq = rng.standard_normal((n, n))
    return make_problem(
        rng.standard_normal(n),
        fq + fq.T,
        random_symmetric(rng, p, 2.0),
        [random_symmetric(rng, p, 2.0) for _ in range(n)],
        quad,
    )


def _close(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    return np.abs(new - ref).max(initial=0.0) <= 1e-13 * max(1.0, np.abs(ref).max(initial=0.0))


def test_stacked_evaluations_match_per_matrix_loops():
    rng = np.random.default_rng(11)
    for n in range(1, 5):
        for p in range(1, 5):
            pd = _random_quadratic_problem(rng, n, p)
            x = rng.standard_normal(n)
            d = rng.standard_normal(n)
            Y = random_symmetric(rng, p, 2.0)
            A = [pd.G_lin[i] for i in range(n)]
            B = [[pd.G_quad[i, j] for j in range(n)] for i in range(n)]

            G = pd.G_const + sum(x[i] * A[i] for i in range(n))
            G = G + sum(0.5 * x[i] * x[j] * B[i][j] for i in range(n) for j in range(n))
            Ds = [A[i] + sum(x[j] * B[i][j] for j in range(n)) for i in range(n)]
            push = sum(d[i] * Ds[i] for i in range(n))
            adj = [np.sum(D * Y.full()) for D in Ds]
            H = pd.f_quad + np.array([[np.sum(B[i][j] * Y.full()) for j in range(n)] for i in range(n)])

            kern = ProblemKernels(pd)
            flat = kern.jacobians(x)
            assert _close(kern.G(x), G)
            assert all(_close(Dn, D) for Dn, D in zip(flat.reshape(n, p, p), Ds))
            assert _close(SymMat((d @ flat).reshape(p, p)).full(), push)
            assert _close(flat @ Y.full().ravel(), adj)
            assert _close(kern.hessians(Y.full()), 0.5 * (H + H.T))


def test_make_problem_names_first_asymmetric_quadratic_pair():
    B = SymMat([[1.0, 2.0], [2.0, 0.0]])
    Z = SymMat.zeros(2)
    lin = [SymMat.eye(2), SymMat.eye(2)]
    with pytest.raises(InputDataError, match=r"G_quad\[0\]\[1\] != G_quad\[1\]\[0\]"):
        make_problem([0.0, 0.0], np.eye(2), Z, lin, [[Z, B], [Z, Z]])
    pd = make_problem([0.0, 0.0], np.eye(2), Z, lin, [[Z, B], [B, Z]])
    assert np.array_equal(pd.G_quad[1, 0], B.full())
    # row-major order: the (0, 2) pair is named before the (1, 2) pair,
    # and a difference below the 1e-12 cut still counts as symmetric
    tiny = SymMat([[1.0, 2.0 + 5e-13], [2.0 + 5e-13, 0.0]])
    quad = [[Z, Z, B], [Z, Z, B], [Z, Z, Z]]
    with pytest.raises(InputDataError, match=r"G_quad\[0\]\[2\] != G_quad\[2\]\[0\]"):
        make_problem([0.0] * 3, np.eye(3), Z, lin + [Z], quad)
    quad = [[Z, Z, B], [Z, Z, B], [tiny, Z, Z]]
    with pytest.raises(InputDataError, match=r"G_quad\[1\]\[2\] != G_quad\[2\]\[1\]"):
        make_problem([0.0] * 3, np.eye(3), Z, lin + [Z], quad)


def test_shifted_problem_shares_stacks(fam3):
    pd = fam3.problem
    p1, p2 = fam3.perturbation(1e-3)
    sp = shifted_problem(pd, p1, p2)
    assert sp.G_lin is pd.G_lin
    assert sp.G_quad is pd.G_quad
    assert pd.G_lin.shape == (2, 2, 2) and pd.G_quad.shape == (2, 2, 2, 2)
    assert not pd.G_quad.flags.writeable


def test_svec_basis_rotation_matches_loop_definition():
    # each slice of a stack of frames (here P and its transpose) is the
    # change of basis of that frame alone
    rng = np.random.default_rng(5)
    root2 = math.sqrt(2.0)
    for p in range(1, 6):
        P = np.linalg.qr(rng.standard_normal((p, p)))[0]
        frames = np.stack([P, P.T])
        stacked = _svec_basis_rotation(frames)
        assert stacked.shape == (2, p * (p + 1) // 2, p * (p + 1) // 2)
        for F, R in zip(frames, stacked):
            cols = []
            for i in range(p):
                for j in range(i, p):
                    B = np.outer(F[:, i], F[:, j])
                    M = 0.5 * (B + B.T) * (root2 if i != j else 1.0)
                    cols.append(sym_vec(SymMat(M)))
            assert np.allclose(R, np.stack(cols, axis=1), rtol=0.0, atol=1e-15)
            assert np.allclose(R.T @ R, np.eye(p * (p + 1) // 2), rtol=0.0, atol=1e-12)


def test_example2_reference_pair(fam2):
    pd = fam2.problem
    assert pd.n == 2 and pd.p == 2
    r1, r2 = kkt_point(pd, fam2.xbar, fam2.ybar).residuals
    assert r1 == 0.0 and r2 == 0.0
    assert kkt_point(pd, fam2.xbar, fam2.ybar).certified


def test_example2_multiplier_set_residuals(fam2):
    pd = fam2.problem

    def gaps(Y):
        (row,) = multiplier_distance_estimate(pd, fam2.xbar, [(Y, np.zeros(2), SymMat.zeros(2))])
        return row["stationarity_gap"], row["cone_gap"]

    # zero multiplier is not stationary: least-norm correction is diag(-1, 0)
    d1, d2 = gaps(SymMat.zeros(2))
    assert abs(d1 - 1.0) < 1e-12 and d2 == 0.0
    d1, d2 = gaps(fam2.ybar)
    assert d1 < 1e-12 and d2 < 1e-12
    # wrong-sign multiplier: stationarity gap 2, cone gap 1
    d1, d2 = gaps(SymMat.diag([1.0, 0.0]))
    assert abs(d1 - 2.0) < 1e-12 and abs(d2 - 1.0) < 1e-12


def test_example2_perturbation_shift(fam2):
    pd = fam2.problem
    p1, p2 = fam2.perturbation(0.1)
    sp = shifted_problem(pd, p1, p2)
    assert np.allclose(sp.f_lin, pd.f_lin)
    assert np.allclose(sp.G_const, [[0.0, 0.1], [0.1, 0.0]])
    assert np.allclose(ProblemKernels(sp).G(np.array([0.3, -0.2])), [[0.3, 0.1], [0.1, -0.2]])


def test_robinson_normal_map_vanishes_at_reference(fam2):
    pd = fam2.problem
    kern = ProblemKernels(pd)
    z = kern.G(fam2.xbar) + fam2.ybar.full()
    psi1, psi2, _ = kern.normal_map(fam2.xbar[None], z[None])
    # Psi_2 with its upper triangle mirrored onto the lower one
    psi2 = psi2.take(packing_tables(pd.p).mirror, 1)
    assert np.allclose(psi1, 0.0) and np.linalg.norm(psi2) == 0.0


def test_example3_fixed_values(fam3):
    pd = fam3.problem
    assert np.allclose(
        ProblemKernels(pd).hessians(np.eye(2)), [[4.0, 3.0], [3.0, 4.0]]
    )
    r1, r2 = kkt_point(pd, fam3.xbar, fam3.ybar).residuals
    assert r1 == 0.0 and r2 == 0.0
    xt = np.array([0.7, -0.3])
    assert np.allclose(ProblemKernels(pd).G(xt), np.diag([0.49 - 0.21, 0.09 - 0.21]))


def test_example3_reference_path(fam3):
    pd = fam3.problem
    for t in (1e-2, 1e-4, 1e-6):
        p1, p2 = fam3.perturbation(t)
        spt = shifted_problem(pd, p1, p2)
        xr = fam3.reference_x(t)
        rr1, rr2 = kkt_point(spt, xr, SymMat.zeros(2)).residuals
        assert rr1 < 1e-12 * max(1.0, 1 / math.sqrt(t))
        assert rr2 < 1e-14
        assert np.linalg.eigvalsh(ProblemKernels(spt).G(xr)).min() > -1e-15


def test_example3_path_jacobian_rank(fam3):
    # along the path the two constraint derivatives stay independent, so
    # the zero multiplier is the only one
    pd = fam3.problem
    p1, p2 = fam3.perturbation(1e-3)
    spt = shifted_problem(pd, p1, p2)
    Ds = ProblemKernels(spt).jacobians(fam3.reference_x(1e-3)).reshape(2, 2, 2)
    A = np.stack([np.array([D[0, 0], D[1, 1], D[0, 1]]) for D in Ds])
    assert np.linalg.matrix_rank(A) == 2


def test_problem_file_round_trip(fam3):
    pd = fam3.problem
    data = problem_to_dict(pd)
    pd_b = problem_from_dict(json.loads(json.dumps(data)))
    assert np.allclose(pd_b.f_quad, pd.f_quad)
    assert np.array_equal(pd_b.G_quad[0, 1], pd.G_quad[0, 1])
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(data, fh)
        path = fh.name
    pd_c = load_problem(path)
    assert np.array_equal(pd_c.G_quad[1, 1], pd.G_quad[1, 1])


def test_asymmetric_matrix_rejected(fam3):
    data = problem_to_dict(fam3.problem)
    bad = dict(data)
    bad["G"] = dict(data["G"])
    bad["G"]["A0"] = [[0.0, 1.0], [0.5, 0.0]]
    with pytest.raises(InputDataError):
        problem_from_dict(bad)


@pytest.mark.parametrize("kind", ["diagonal", "rotated", "coupled"])
def test_problem_dict_round_trip_is_exact(kind):
    rng = np.random.default_rng(3)
    for n, p in ((1, 1), (2, 3), (3, 4)):
        pd, _, _ = planted_pair(rng, kind, n, p)
        data = problem_to_dict(pd)
        assert problem_to_dict(problem_from_dict(data)) == data
        assert problem_to_dict(problem_from_dict(json.loads(json.dumps(data)))) == data


@pytest.mark.parametrize("label", ["G.A0", "G.A[1]", "G.B[0][1]"])
@pytest.mark.parametrize("fault", ["nonfinite", "asymmetric"])
def test_loader_names_the_first_bad_matrix(fam3, label, fault):
    # the named matrix is spoiled, and so is every later one the other
    # way: the message names the first in the order A0, A[i], B[i][j]
    data = json.loads(json.dumps(problem_to_dict(fam3.problem)))
    g = data["G"]
    slots = {"G.A0": (g, "A0"), "G.A[1]": (g["A"], 1), "G.B[0][1]": (g["B"][0], 1)}
    labels = list(slots)
    for other in labels[labels.index(label) :]:
        owner, key = slots[other]
        spoil_nonfinite = (other == label) == (fault == "nonfinite")
        owner[key] = [0.0, math.inf, 0.0, 0.0] if spoil_nonfinite else [0.0, 1.0, 0.5, 0.0]
    message = "entries must be finite" if fault == "nonfinite" else "matrix is not symmetric within 1e-12 relative"
    with pytest.raises(InputDataError, match=f"^{re.escape(label)}: {message}$"):
        problem_from_dict(data)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda d: d["G"]["B"].__setitem__(1, [None]), r"G\.B must have 2 rows of 2 matrices", id="short B row"),
        pytest.param(lambda d: d.__setitem__("G", [1.0]), "malformed problem payload", id="G not a dict"),
        pytest.param(lambda d: d["G"].__setitem__("A", d["G"]["A"][:1]), r"G\.A must list 2 matrices", id="short A"),
        pytest.param(lambda d: d.__setitem__("p", -1), "needs n >= 1 and p >= 1", id="p negative"),
        pytest.param(
            lambda d: d.update(n=0, f={"lin": [], "quad": []}, G={"A0": [0.0] * 4, "A": [], "B": None}),
            "needs n >= 1",
            id="n zero",
        ),
        pytest.param(lambda d: d.update(p=0, G={"A0": [], "A": [[], []], "B": None}), "needs n >= 1", id="p zero"),
        pytest.param(lambda d: d.__setitem__("n", math.inf), "malformed problem payload", id="n infinite"),
    ],
)
def test_loader_rejects_malformed_structure(fam3, edit, message):
    data = json.loads(json.dumps(problem_to_dict(fam3.problem)))
    edit(data)
    with pytest.raises(InputDataError, match=message):
        problem_from_dict(data)


def test_loader_reads_numpy_scalars_as_numbers(fam3):
    # a payload built in Python may hold numpy scalars: they load as the
    # numbers they are, while bools, numpy bools and strings do not
    data = json.loads(json.dumps(problem_to_dict(fam3.problem)))
    scalars = json.loads(json.dumps(data))
    scalars["f"]["lin"] = [np.float64(v) for v in data["f"]["lin"]]
    scalars["f"]["quad"] = np.array(data["f"]["quad"])
    scalars["G"]["A0"] = [np.float32(v) for v in data["G"]["A0"]]
    scalars["G"]["B"][0][1] = [np.int64(v) for v in data["G"]["B"][0][1]]
    want = problem_from_dict(data)
    got = problem_from_dict(scalars)
    for name in ("f_lin", "f_quad", "G_const", "G_lin", "G_quad"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    for value in (True, np.bool_(True), "0"):
        bad = json.loads(json.dumps(data))
        bad["f"]["lin"] = [value, np.float64(0.0)]
        with pytest.raises(InputDataError, match=r"^f\.lin: expected 2 numbers"):
            problem_from_dict(bad)


def test_objective_that_overflows_when_symmetrized_is_rejected():
    # 1.5e308 is finite, but f_quad + f_quad^T is not
    with pytest.raises(InputDataError, match="matrix entries must be finite"):
        make_problem([0.0], [[1.5e308]], [[1.0]], [[[1.0]]])


@pytest.mark.parametrize(
    "f_lin, f_quad, message",
    [
        ([1.0, 0.0], [[2.0]], r"f_quad has 1 entries, expected 2x2"),
        ([1.0, 0.0], np.eye(3), r"f_quad has 9 entries, expected 2x2"),
        (["a", 0.0], np.eye(2), r"f_lin: expected numbers \(could not convert string to float: 'a'\)"),
        ([1.0, 0.0], [[1.0, "b"], [0.0, 1.0]], r"f_quad: expected numbers"),
    ],
    ids=["f_quad-short", "f_quad-long", "f_lin-string", "f_quad-string"],
)
def test_make_problem_names_a_malformed_objective(f_lin, f_quad, message):
    # the error names the argument, where numpy's reshape or float conversion
    # would raise a bare ValueError
    with pytest.raises(InputDataError, match=f"^{message}"):
        make_problem(f_lin, f_quad, SymMat.zeros(2), [SymMat.diag([1.0, 0.0]), SymMat.diag([0.0, 1.0])])


def test_make_problem_rejects_empty_dimensions():
    # with n = 0 or p = 0 the analysis kernels once raised bare ValueErrors,
    # and at p = 0 the x-part condition returned a witness first
    with pytest.raises(InputDataError, match=r"^a problem needs n >= 1 and p >= 1, got n = 0, p = 2$"):
        make_problem([], np.zeros((0, 0)), SymMat.eye(2), [])
    with pytest.raises(InputDataError, match=r"^a problem needs n >= 1 and p >= 1, got n = 2, p = 0$"):
        make_problem([0.0, 0.0], np.eye(2), np.zeros((0, 0)), np.zeros((2, 0, 0)))


def test_symmat_and_array_inputs_give_identical_stacks():
    # raw matrices slightly off symmetric: each input form is symmetrized
    # as a SymMat symmetrizes it, so every stack is the same bit for bit
    rng = np.random.default_rng(17)
    n, p = 3, 4
    A0 = rng.standard_normal((p, p))
    A = rng.standard_normal((n, p, p))
    B = rng.standard_normal((p, p, p, p))[:n, :n]
    B = B + B.swapaxes(0, 1)
    f_lin, f_quad = rng.standard_normal(n), np.eye(n)
    forms = [
        make_problem(f_lin, f_quad, SymMat(A0), [SymMat(M) for M in A], [[SymMat(M) for M in row] for row in B]),
        make_problem(f_lin, f_quad, A0.tolist(), A.tolist(), B.tolist()),
        make_problem(f_lin, f_quad, A0, A, B),
        make_problem(f_lin, f_quad, A0, list(A), [list(row) for row in B]),
    ]
    ref = forms[0]
    assert np.array_equal(ref.G_const, SymMat(A0).full())
    assert all(np.array_equal(ref.G_lin[i], SymMat(A[i]).full()) for i in range(n))
    assert all(np.array_equal(ref.G_quad[i, j], SymMat(B[i, j]).full()) for i in range(n) for j in range(n))
    for pd in forms:
        for name in ("f_lin", "f_quad", "G_const", "G_lin", "G_quad"):
            arr = getattr(pd, name)
            assert arr.tobytes() == getattr(ref, name).tobytes() and arr.shape == getattr(ref, name).shape
            assert not arr.flags.writeable and arr.flags.c_contiguous


def test_null_objective_quadratic_reads_as_zero(fam2):
    data = problem_to_dict(fam2.problem)
    data["f"]["quad"] = None
    assert np.array_equal(problem_from_dict(data).f_quad, np.zeros((2, 2)))


def test_builtin_family_validation():
    with pytest.raises(InputDataError):
        builtin_family("example2", [[1.0, 0.0], [0.0, 1.0]])  # diagonal push
    with pytest.raises(InputDataError):
        builtin_family("example3", [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InputDataError):
        builtin_family("nope")
