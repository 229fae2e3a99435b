"""Perturbed solves, order fitting, block-order regression, bound verdicts."""

import math

import numpy as np
import pytest

from conftest import context, random_symmetric
from kkt_spectra import perturb
from kkt_spectra.cones import cone_context
from kkt_spectra.criticality import classify_multiplier
from kkt_spectra.errors import ConvergenceError, InputDataError
from kkt_spectra.perturb import (
    CERT_FACTOR,
    JITTER_STARTS,
    NEWTON_STEPS,
    error_bound_experiment,
    fit_order_exponent,
    lemma6_order_check,
    report_to_csv,
    report_to_dict,
    solve_perturbed_kkt,
    solve_perturbed_starts,
    xpart_bound_check,
)
from kkt_spectra.problem import (
    PerturbationFamily,
    eval_G,
    hessian_array,
    jacobian_array,
    kkt_residual,
    make_problem,
    normal_map_spectral,
    normal_map_stack,
    shifted_problem,
)
from kkt_spectra.sosc import check_soscy, theorem3_conditions
from kkt_spectra.symmat import (
    SymMat,
    default_tol_zero,
    packing_tables,
    project_psd,
    spectral_stack,
    svec_indices,
    svec_scale,
    sym_mat,
)


def natural_start(fam):
    return fam.xbar, eval_G(fam.problem, fam.xbar) + fam.ybar


def test_example3_closed_form_path(fam3):
    start = natural_start(fam3)
    for t in (1e-2, 1e-3, 1e-5):
        p1, p2 = fam3.perturbation(t)
        smp = solve_perturbed_kkt(fam3.problem, p1, p2, start)
        assert np.max(np.abs(smp.x - fam3.reference_x(t))) <= 1e-6
        assert smp.Y.norm() <= 1e-7


def test_zero_perturbation_is_exact_root(fam2, fam3):
    for fam in (fam3, fam2):
        smp = solve_perturbed_kkt(
            fam.problem, np.zeros(2), SymMat.zeros(2), natural_start(fam)
        )
        assert smp.newton_iters == 0 and smp.residual <= 1e-12


def oracle_x2(eps):
    """Bisection on the reduced one-variable stationarity equation.

    On the active determinant branch x1 = eps^2 / x2, the objective reduces
    to psi(v) = eps^2/v + eps^4/v^2 + v^2; its derivative crosses zero once
    on (0, 2).
    """

    def dpsi(v):
        return -(eps**2) / v**2 - 2.0 * eps**4 / v**3 + 2.0 * v

    lo, hi = 1e-10, 2.0
    assert dpsi(lo) < 0 < dpsi(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dpsi(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_example2_solve_matches_bisection_oracle(fam2):
    prev_x, prev_Y = fam2.xbar, fam2.ybar
    for eps in (1e-2, 1e-3, 1e-4):
        p1, p2 = fam2.perturbation(eps)
        spd = shifted_problem(fam2.problem, p1, p2)
        smp = solve_perturbed_kkt(
            fam2.problem, p1, p2, (prev_x, eval_G(spd, prev_x) + prev_Y)
        )
        v = oracle_x2(eps)
        xo = np.array([eps**2 / v, v])
        rel = np.max(np.abs(smp.x - xo) / np.maximum(np.abs(xo), 1e-300))
        assert rel <= 1e-6, (eps, smp.x, xo)
        lam = np.linalg.eigvalsh(smp.Y.full())
        assert lam.max() <= 1e-9
        assert abs(smp.Y.full()[0, 0] + 1.0) <= 0.2
        r1, r2 = kkt_residual(spd, smp.x, smp.Y)
        assert max(r1, r2) <= 1e-9
        prev_x, prev_Y = smp.x, smp.Y


def test_fit_order_exponent():
    e, se = fit_order_exponent([(1e-2, 1e-1), (1e-4, 1e-2)])
    assert abs(e - 0.5) <= 1e-12 and se == 0.0
    ss = np.geomspace(1e-1, 1e-5, 9)
    e, se = fit_order_exponent([(s, 3.7 * s ** (2.0 / 3.0)) for s in ss])
    assert abs(e - 2.0 / 3.0) <= 1e-12 and se <= 1e-12
    with pytest.raises(InputDataError):
        fit_order_exponent([(1e-2, 0.0), (1e-3, 0.0)])


def test_example2_experiment(fam2):
    rep = error_bound_experiment(fam2, np.geomspace(1e-2, 1e-5, 13))
    e, _ = rep.exponent_fit
    assert abs(e - 2.0 / 3.0) <= 0.05
    assert rep.verdict_101 == "diverging"
    assert rep.verdict_91 != "diverging"
    assert rep.excluded == 0 and len(rep.samples) == 13


def test_example3_experiment(fam3):
    rep = error_bound_experiment(fam3, np.geomspace(1e-2, 1e-6, 13))
    assert rep.verdict_101 == "bounded"
    assert rep.verdict_91 == "bounded"
    tail = rep.ratios_91[-6:]
    assert max(tail) / min(tail) <= 3.0
    e, _ = rep.exponent_fit
    assert abs(e - 0.5) <= 0.05


def test_zero_schedule_inconclusive(fam3):
    rep = error_bound_experiment(fam3, [0.0, 0.0, 0.0])
    assert rep.verdict_101 == "inconclusive" and rep.verdict_91 == "inconclusive"
    assert all(math.isnan(r) for r in rep.ratios_101)


def test_report_renderers(fam3):
    rep = error_bound_experiment(fam3, np.geomspace(1e-2, 1e-4, 5))
    d = report_to_dict(rep)
    assert len(d["samples"]) == 5
    assert set(d["exponent_fit"]) == {"exponent", "stderr"}
    csv = report_to_csv(rep)
    lines = csv.splitlines()
    assert lines[0] == "parameter,x_dev,p_norm,y_dev"
    assert len(lines) == 6


def test_lemma6_block_orders():
    ctx = cone_context(SymMat.diag([2.0, 0.0, 0.0]), SymMat.diag([0.0, 0.0, -3.0]))
    tab = lemma6_order_check(ctx, samples=6, seed=3)
    for name, row in tab.items():
        if row.get("vanishes"):
            continue
        if row["kind"] == "product":
            assert row["exponent"] >= 1.9, (name, row)
        else:
            assert abs(row["exponent"] - 1.0) <= 0.1, (name, row)
    assert tab["X_gg"]["exponent"] >= 1.9
    assert tab["eq89"]["exponent"] >= 1.9
    # zero direction: every block vanishes identically
    tab0 = lemma6_order_check(ctx, samples=[SymMat.zeros(3)])
    assert all(row.get("vanishes") for row in tab0.values())


def test_lemma6_eq89_without_degenerate_block():
    # first-order terms of the coupling residual cancel exactly, second-order
    # terms do not: the fit sits at product order with an O(1) constant
    ctx = cone_context(SymMat.diag([2.0, 0.0]), SymMat.diag([0.0, -3.0]))
    tab = lemma6_order_check(
        ctx, samples=6, seed=5, schedule=np.geomspace(1e-1, 1e-4, 7)
    )
    assert 1.9 <= tab["eq89"]["exponent"] <= 2.1
    assert tab["eq89"]["max_norm"] > 1e-9 * 1e-2**2


def test_xpart_bound_check(fam2, fam3):
    rep3 = error_bound_experiment(fam3, np.geomspace(1e-2, 1e-6, 13))
    out3 = xpart_bound_check(context(fam3.problem, fam3.xbar, fam3.ybar), rep3)
    assert out3["consistent"] and out3["verdict_91"] == "bounded"
    rep2 = error_bound_experiment(fam2, np.geomspace(1e-2, 1e-5, 13))
    out2 = xpart_bound_check(context(fam2.problem, fam2.xbar, fam2.ybar), rep2)
    assert out2["consistent"]


def test_experiment_continuation_consistency(fam2):
    # denser schedules land on the same exponent
    rep_a = error_bound_experiment(fam2, np.geomspace(1e-2, 1e-5, 13))
    rep_b = error_bound_experiment(fam2, np.geomspace(1e-2, 1e-5, 25))
    ea, sa = rep_a.exponent_fit
    eb, sb = rep_b.exponent_fit
    assert abs(ea - eb) <= 3.0 * max(sa, sb, 1e-3)


# per-sample Newton step counts, exclusions, root multiplicity, verdicts and
# fitted order of the default 13-point sweeps and of the benchmark's short
# reference sweeps, all at the default seed; residual and multiplier drift
# digits at the 1e-16 level are free to move
SWEEP_PINS = {
    "example2": (
        (1e-2, 1e-5, 13),
        [9, 4, 4, 4, 4, 4, 4, 5, 5, 5, 6, 5, 5],
        False,
        ("diverging", "bounded"),
        0.6670779783246039,
    ),
    "example3": (
        (1e-2, 1e-6, 13),
        [4, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        True,
        ("bounded", "bounded"),
        0.5,
    ),
    "example2-ref": (
        (1e-2, 1e-3, 3),
        [9, 5, 5],
        False,
        ("diverging", "bounded"),
        0.6685251249439287,
    ),
    "example3-ref": (
        (1e-2, 1e-3, 2),
        [4, 2],
        True,
        ("bounded", "bounded"),
        0.49999999999999967,
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_default_sweeps_pinned(name, fam2, fam3):
    schedule, iters, multiple, verdicts, exponent = SWEEP_PINS[name]
    fam = fam2 if name.startswith("example2") else fam3
    rep = error_bound_experiment(fam, np.geomspace(*schedule))
    assert [smp.newton_iters for smp in rep.samples] == iters
    assert rep.excluded == 0
    assert rep.multiple_roots is multiple
    assert (rep.verdict_101, rep.verdict_91) == verdicts
    assert abs(rep.exponent_fit[0] - exponent) <= 1e-9


@pytest.mark.parametrize(
    "dx, Y0",
    [((0.1, 0.1), [[-0.1, 0.0], [0.0, 0.1]]), ((0.1, -0.1), [[0.0, 0.0], [0.0, 0.0]])],
    ids=["indefinite-Y0", "zero-Y0"],
)
def test_solver_stops_at_certified_floor(dx, Y0, fam3):
    # both starts reach a certifiable residual within a few steps, above
    # RESIDUAL_TOL * scale; the solver must stop there rather than creep
    # along the round-off floor until NEWTON_STEPS and then run the fallback
    t = 1e-3
    p1, p2 = fam3.perturbation(t)
    spd = shifted_problem(fam3.problem, p1, p2)
    x0 = fam3.reference_x(t) + np.array(dx)
    smp = solve_perturbed_kkt(fam3.problem, p1, p2, (x0, eval_G(spd, x0) + SymMat(Y0)))
    assert smp.newton_iters < 20
    assert smp.residual <= CERT_FACTOR
    assert np.max(np.abs(smp.x - fam3.reference_x(t))) <= 1e-6


@pytest.mark.parametrize(
    "name, schedule, budget",
    [("example2", (1e-2, 1e-3, 3), 420), ("example3", (1e-2, 1e-3, 2), 200)],
    ids=["example2", "example3"],
)
def test_reference_sweep_evaluation_budget(name, schedule, budget, fam2, fam3, monkeypatch):
    # a residual evaluation is one row through the stacked normal-map
    # kernel the solver calls: one per start, per trial point and per root
    # in the stacked certification pass
    fam = fam2 if name == "example2" else fam3
    rows = []
    steps = []

    def counted(spd, x, z):
        rows.append(len(x))
        return normal_map_spectral(spd, x, z)

    def recorded(*args):
        outcomes = solve_perturbed_starts(*args)
        for out in outcomes:
            steps.append(out.best.newton_iters if isinstance(out, ConvergenceError) else out.newton_iters)
        return outcomes

    monkeypatch.setattr(perturb, "normal_map_spectral", counted)
    monkeypatch.setattr(perturb, "solve_perturbed_starts", recorded)
    rep = error_bound_experiment(fam, np.geomspace(*schedule), {"seed": 42})
    assert len(rep.samples) == schedule[2]
    assert sum(rows) <= budget
    assert steps and max(steps) < NEWTON_STEPS


def user_family(fam3):
    """The example3 problem under the stationarity shift p1 = 0.1 t e1."""
    e1 = np.array([0.1, 0.0])
    return PerturbationFamily(
        "user", fam3.problem, fam3.xbar, fam3.ybar, lambda t: (t * e1, SymMat.zeros(2))
    )


def sweep_starts(fam, s, seed, monkeypatch):
    """The (pd, p1, p2, starts) a one-point sweep at s hands to the solver:
    the reference pair, then JITTER_STARTS jittered starts."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return solve_perturbed_starts(*args)

    with monkeypatch.context() as mp:
        mp.setattr(perturb, "solve_perturbed_starts", recorded)
        error_bound_experiment(fam, [s], {"seed": seed})
    assert len(calls) == 1 and len(calls[0][3]) == 1 + JITTER_STARTS
    return calls[0]


@pytest.mark.parametrize(
    "name, s, seed",
    [("example2", 1e-2, 42), ("example3", 1e-3, 42), ("user", 1e-2, 42), ("user", 1e-2, 1742692732)],
    ids=["example2", "example3", "user-lm", "user-all-fail"],
)
def test_lockstep_starts_match_single_solves(name, s, seed, fam2, fam3, monkeypatch):
    # one k-start call gives, start by start and bit for bit, what k
    # separate single-start calls give
    fam = {"example2": fam2, "example3": fam3, "user": user_family(fam3)}[name]
    pd, p1, p2, starts = sweep_starts(fam, s, seed, monkeypatch)
    together = solve_perturbed_starts(pd, p1, p2, starts)
    assert len(together) == len(starts)
    for start, joint in zip(starts, together):
        try:
            alone = solve_perturbed_kkt(pd, p1, p2, start)
        except ConvergenceError as exc:
            alone = exc
        assert type(joint) is type(alone)
        if isinstance(alone, ConvergenceError):
            assert (str(joint), joint.residual) == (str(alone), alone.residual)
            joint, alone = joint.best, alone.best
        assert joint.x.tobytes() == alone.x.tobytes()
        assert joint.Y.full().tobytes() == alone.Y.full().tobytes()
        assert (joint.newton_iters, joint.residual) == (alone.newton_iters, alone.residual)
    iters = [o.best.newton_iters if isinstance(o, ConvergenceError) else o.newton_iters for o in together]
    if name == "user":
        # some start spends every Newton step and goes on through the fallback
        assert max(iters) > NEWTON_STEPS
    if seed == 1742692732:
        assert all(isinstance(o, ConvergenceError) for o in together)


def test_unknown_option_keys_rejected(fam3):
    with pytest.raises(InputDataError, match="jitter"):
        error_bound_experiment(fam3, [1e-3], {"jitter": 2})
    with pytest.raises(InputDataError, match="solver"):
        error_bound_experiment(fam3, [], {"solver": {"maxiters": 5}})
    sys3 = context(fam3.problem, fam3.xbar, fam3.ybar)
    with pytest.raises(InputDataError, match="grid"):
        classify_multiplier(sys3, {"grid": 9})
    with pytest.raises(InputDataError, match="start"):
        check_soscy(sys3, {"start": 8})
    with pytest.raises(InputDataError, match="iters"):
        check_soscy(sys3, {"iters": 10})
    with pytest.raises(InputDataError, match="sample"):
        theorem3_conditions(sys3, {"sample": 4})


def test_nonfinite_perturbation_rejected(fam3):
    # a NaN residual never compares above the certification floor, and an
    # infinite shift makes that floor infinite: both must stop at the input
    for bad in ([math.nan, 0.0], [math.inf, 0.0]):
        with pytest.raises(InputDataError, match="finite"):
            solve_perturbed_kkt(fam3.problem, bad, np.zeros((2, 2)))
        with pytest.raises(InputDataError, match="finite"):
            solve_perturbed_starts(fam3.problem, bad, np.zeros((2, 2)), [natural_start(fam3)])
        fam = PerturbationFamily(
            "bad", fam3.problem, fam3.xbar, fam3.ybar, lambda t, v=bad: (t * np.array(v), SymMat.zeros(2))
        )
        with pytest.raises(InputDataError, match="finite"):
            error_bound_experiment(fam, [1e-2])
    # SymMat arithmetic no longer makes an infinite shift, so build one
    # from its packed entries
    inf_p2 = SymMat._from_packed(2, np.array([math.inf, 0.0, math.inf]))
    with pytest.raises(InputDataError, match="finite"):
        solve_perturbed_kkt(fam3.problem, np.zeros(2), inf_p2)


def per_element_newton_directions(J, rhs):
    """The one-element rule applied to the whole stack when a batched
    solve raises: solve each element alone, by least squares where it is
    singular or its step is not finite."""

    def one(Ji, ri):
        try:
            delta = np.linalg.solve(Ji, ri)
            if np.all(np.isfinite(delta)):
                return delta
        except np.linalg.LinAlgError:
            pass
        return np.linalg.lstsq(Ji, ri, rcond=None)[0]

    try:
        delta = np.linalg.solve(J, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return np.array([one(Ji, ri) for Ji, ri in zip(J, rhs)])
    for i in np.flatnonzero(~np.isfinite(delta).all(axis=1)):
        delta[i] = np.linalg.lstsq(J[i], rhs[i], rcond=None)[0]
    return delta


def test_newton_directions_mask_singular_elements(fam3):
    # the continuation start of example3 at t = 1e-2 sits at x = 0 with the
    # zero multiplier: z is negative definite and G'(0) = 0, so its Clarke
    # element has a zero block; beside it a regular element and one whose
    # solve overflows
    p1, p2 = fam3.perturbation(1e-2)
    spd = shifted_problem(fam3.problem, p1, p2)
    X = np.array([[0.0, 0.0], [0.1, 0.05]])
    Z = np.array([eval_G(spd, X[0]).full(), eval_G(spd, X[1]).full() + np.diag([-0.3, 0.2])])
    ZV = Z[:, [0, 0, 1], [0, 1, 1]] * np.array([1.0, math.sqrt(2.0), 1.0])
    R, _, split = perturb._residuals(spd, X, ZV)
    singular, regular = perturb._newton_elements(spd, X, ZV, split)
    overflow = 1e-310 * np.eye(5)
    sign = np.linalg.slogdet(np.array([singular, regular, overflow]))[0]
    assert sign[0] == 0.0 and sign[1] != 0.0 and sign[2] != 0.0
    rng = np.random.default_rng(3)
    pool = {
        "s": (singular, -R[0]),
        "r": (regular, -R[1]),
        "n": (-regular, R[1]),  # negative determinant
        "o": (overflow, np.full(5, 0.5)),
    }
    for order in ("srs", "rson", "osnr", "ss", "rn", "o", "s"):
        J = np.array([pool[c][0] for c in order])
        rhs = np.array([pool[c][1] for c in order]) * (1.0 + rng.random((len(order), 1)))
        got = perturb._newton_directions(J, rhs)
        assert got.tobytes() == per_element_newton_directions(J, rhs).tobytes(), order
    assert not np.isfinite(perturb._newton_directions(overflow[None], np.full((1, 5), 0.5))).all()


def test_block_jitter_draw_matches_per_start_draws():
    for n in range(5):
        for p in range(1, 5):
            one, block = np.random.default_rng(n + 10 * p), np.random.default_rng(n + 10 * p)
            M, dx = perturb._jitter_draws(block, n, p)
            assert M.shape == (JITTER_STARTS, p, p) and dx.shape == (JITTER_STARTS, n)
            for j in range(JITTER_STARTS):
                assert one.standard_normal((p, p)).tobytes() == M[j].tobytes()
                assert one.standard_normal(n).tobytes() == dx[j].tobytes()
            assert one.random() == block.random()


def test_stacked_certification_matches_per_root_rule():
    # the per-root rule: multiplier from project_psd, canonical point from
    # eval_G and SymMat arithmetic, one normal-map call per root
    def per_root(spd, p1, p2, xc, zvc, count, tol_cert):
        z = sym_mat(zvc, spd.p)
        Y = z - project_psd(z)
        z_canon = eval_G(spd, xc) + Y
        psi1, psi2 = normal_map_stack(spd, xc[None], z_canon.full()[None])
        res = math.hypot(float(np.linalg.norm(psi1)), float(np.linalg.norm(psi2)))
        sample = perturb.PerturbationSample(p1, p2, xc, Y, int(count), res)
        if res > tol_cert:
            return ConvergenceError(f"root failed certification: residual {res:.3e}", best=sample, residual=res)
        return sample

    rng = np.random.default_rng(12)
    for n in range(1, 4):
        for p in range(1, 4):
            lin = [random_symmetric(rng, p) for _ in range(n)]
            quad = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    quad[i][j] = quad[j][i] = random_symmetric(rng, p, 0.3)
            pd = make_problem(rng.standard_normal(n), np.eye(n), random_symmetric(rng, p), lin, quad)
            p1, p2 = 1e-3 * rng.standard_normal(n), random_symmetric(rng, p, 1e-3)
            spd = shifted_problem(pd, p1, p2)
            k = 7
            X = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-6, 1, size=(k, 1))
            ZV = rng.standard_normal((k, p * (p + 1) // 2))
            steps = rng.integers(0, 60, size=k)
            Pz = perturb._residuals(spd, X, ZV)[2][2]
            res = [per_root(spd, p1, p2, X[i], ZV[i], steps[i], math.inf).residual for i in range(k)]
            tol_cert = float(np.median(res))
            got = perturb._certify(spd, p1, p2, X, ZV, Pz, steps, tol_cert)
            for i, out in enumerate(got):
                want = per_root(spd, p1, p2, X[i].copy(), ZV[i].copy(), steps[i], tol_cert)
                assert type(out) is type(want)
                if isinstance(want, ConvergenceError):
                    assert (str(out), out.residual) == (str(want), want.residual)
                    out, want = out.best, want.best
                assert out.x.tobytes() == want.x.tobytes()
                assert out.Y.full().tobytes() == want.Y.full().tobytes()
                assert (out.newton_iters, out.residual) == (want.newton_iters, want.residual)


def random_kernel_problem(rng, n, p):
    """A shifted problem with n variables and order-p constraint data."""
    lin = [random_symmetric(rng, p) for _ in range(n)]
    quad = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            quad[i][j] = quad[j][i] = random_symmetric(rng, p, 0.3)
    pd = make_problem(rng.standard_normal(n), np.eye(n), random_symmetric(rng, p), lin, quad)
    return shifted_problem(pd, 1e-3 * rng.standard_normal(n), random_symmetric(rng, p, 1e-3))


def kernel_stacks():
    """Seeded (spd, X, ZV) stacks over n in 0..3, p in 1..4, k in {1, 3, 9};
    every other stack has a zero eigenvalue in each z, so that the
    projection elements meet their kernel block."""
    rng = np.random.default_rng(14)
    for n in range(4):
        for p in range(1, 5):
            spd = random_kernel_problem(rng, n, p)
            rows, cols = svec_indices(p)
            for k in (1, 3, 9):
                X = rng.standard_normal((k, n))
                Q = np.linalg.qr(rng.standard_normal((k, p, p)))[0]
                lam = rng.standard_normal((k, p))
                if (n + p + k) % 2:
                    lam[:, 0] = 0.0
                Z = (Q * lam[:, None, :]) @ np.swapaxes(Q, 1, 2)
                yield spd, X, Z[:, rows, cols] * svec_scale(p)


def dense_from_svec(ZV, p):
    """The scatter definition of the dense symmetric stack of svec rows."""
    rows, cols = svec_indices(p)
    U = ZV / svec_scale(p)
    Z = np.zeros((len(ZV), p, p))
    Z[:, rows, cols] = U
    Z[:, cols, rows] = U
    return Z


def test_packing_tables_match_index_definitions():
    rng = np.random.default_rng(2)
    for p in range(1, 5):
        t = packing_tables(p)
        assert packing_tables(p) is t
        assert all(not table.flags.writeable for table in t)
        rows, cols = svec_indices(p)
        m = rows.size
        for k in (1, 3, 9):
            A = rng.standard_normal((k, p, p))
            flat = A.reshape(k, p * p)
            assert flat.take(t.upper, 1).tobytes() == A[:, rows, cols].tobytes()
            U = rng.standard_normal((k, m))
            Z = np.zeros((k, p, p))
            Z[:, rows, cols] = U
            Z[:, cols, rows] = U
            assert U.take(t.gather, 1).reshape(k, p, p).tobytes() == Z.tobytes()
            M = A.copy()
            M[:, cols, rows] = M[:, rows, cols]
            assert flat.take(t.mirror, 1).reshape(k, p, p).tobytes() == M.tobytes()
            r, c = rows[:, None], cols[:, None]
            factors = (A[:, r, rows], A[:, c, cols], A[:, c, rows], A[:, r, cols])
            for index, factor in zip(t.rotation, factors):
                assert flat.take(index, 1).tobytes() == factor.tobytes()
        assert t.half_s.tobytes() == (0.5 * svec_scale(p))[:, None].tobytes()


def test_residual_rows_match_normal_map():
    # the residual rows are normal_map_stack at the dense z, packed by svec
    # through the fancy index; the norms are one dot product per row
    for spd, X, ZV in kernel_stacks():
        p = spd.p
        rows, cols = svec_indices(p)
        Z = dense_from_svec(ZV, p)
        R, RN, split = perturb._residuals(spd, X, ZV)
        psi1, psi2 = normal_map_stack(spd, X, Z)
        want = np.concatenate([psi1, psi2[:, rows, cols] * svec_scale(p)], axis=1)
        assert R.tobytes() == want.tobytes()
        assert RN.tobytes() == np.sqrt((want[:, None, :] @ want[:, :, None])[:, 0, 0]).tobytes()
        for got, ref in zip(split, spectral_stack(Z)):
            assert got.tobytes() == ref.tobytes()


def assembled_newton_elements(spd, X, ZV, split):
    """The Newton elements assembled entry by entry from scatters and
    fancy-indexed frames."""
    k, n, p = len(X), spd.n, spd.p
    m = p * (p + 1) // 2
    rows, cols = svec_indices(p)
    svs = svec_scale(p)
    lam, P, Pz = split
    Y = dense_from_svec(ZV - Pz[:, rows, cols] * svs, p)
    Dsv = jacobian_array(spd, X)[:, :, rows, cols] * svs
    tol = default_tol_zero(lam)[:, None]
    li, lj = lam[:, rows], lam[:, cols]
    w = np.where(lj >= -tol, 1.0, 0.0)
    np.divide(li, li - lj, out=w, where=(li > tol) & (lj < -tol))
    r, c = rows[:, None], cols[:, None]
    B = P[:, r, rows] * P[:, c, cols] + P[:, c, rows] * P[:, r, cols]
    B = (0.5 * svs)[:, None] * B * svs
    JP = (B * w[:, None, :]) @ np.swapaxes(B, 1, 2)
    J = np.zeros((k, n + m, n + m))
    J[:, :n, :n] = hessian_array(spd, Y)
    J[:, :n, n:] = Dsv @ (np.eye(m) - JP)
    J[:, n:, :n] = np.swapaxes(Dsv, 1, 2)
    J[:, n:, n:] = -JP
    return J


def test_newton_elements_match_assembly():
    for spd, X, ZV in kernel_stacks():
        split = perturb._residuals(spd, X, ZV)[2]
        got = perturb._newton_elements(spd, X, ZV, split)
        assert got.tobytes() == assembled_newton_elements(spd, X, ZV, split).tobytes()
