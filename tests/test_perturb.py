"""Perturbed solves, order fitting, block-order regression, bound verdicts."""

import math

import numpy as np
import pytest

from conftest import context
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
    kkt_residual,
    normal_map_stack,
    shifted_problem,
)
from kkt_spectra.sosc import check_soscy, theorem3_conditions
from kkt_spectra.symmat import SymMat


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
    # kernel: one per start, per trial point and per certification
    fam = fam2 if name == "example2" else fam3
    rows = []
    steps = []

    def counted(spd, x, z):
        rows.append(len(x))
        return normal_map_stack(spd, x, z)

    def recorded(*args):
        outcomes = solve_perturbed_starts(*args)
        for out in outcomes:
            steps.append(out.best.newton_iters if isinstance(out, ConvergenceError) else out.newton_iters)
        return outcomes

    monkeypatch.setattr(perturb, "normal_map_stack", counted)
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
