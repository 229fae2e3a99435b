"""Acceptance gate: one test per advertised guarantee, with runtime budgets.

Each test prints a single pass/fail line, so running this file with
`pytest -s tests/test_acceptance.py` yields a per-criterion scoreboard.
"""

import math
import time
from pathlib import Path

import numpy as np

from conftest import context, random_cone_context, random_symmetric, sample_diag_problem
from kkt_spectra.cones import cone_context, graph_tangent_membership
from kkt_spectra.criticality import (
    CRITICAL,
    NONCRITICAL,
    build_system,
    classify_multiplier,
    classify_nlp,
    common_rows,
    diagonal_reduction,
    entry_rows,
    witness_residual,
)
from kkt_spectra.lpkernel import null_space
from kkt_spectra.perturb import (
    PerturbationSample,
    error_bound_experiment,
    lemma6_order_check,
    solve_perturbed_starts,
)
from kkt_spectra.problem import (
    ProblemKernels,
    builtin_family,
    kkt_point,
    make_problem,
)
from kkt_spectra.sosc import SOSCY_HOLDS, check_soscy, sigma_term
from kkt_spectra.symmat import SymMat, dir_deriv_projection, project_psd, sym_mat

from test_sosc import grid_sigma_oracle, sample_sigma_case

REPO_ROOT = Path(__file__).resolve().parents[1]


def criterion(num, label, budget, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"criterion {num:2d} [{label}] FAIL ({elapsed:.2f}s, budget {budget:g}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget
    print(
        f"criterion {num:2d} [{label}] {'PASS' if ok else 'FAIL'}"
        f" ({elapsed:.2f}s, budget {budget:g}s)"
    )
    assert ok, f"runtime {elapsed:.2f}s exceeds budget {budget:g}s"


def test_criterion_01_closed_form_path():
    def body():
        fam = builtin_family("example3")
        start = (fam.xbar, SymMat(ProblemKernels(fam.problem).G(fam.xbar)) + fam.ybar)
        for t in (1e-2, 1e-3, 1e-4):
            p1, p2 = fam.perturbation(t)
            (smp,) = solve_perturbed_starts(fam.problem, p1, p2, [start])
            assert isinstance(smp, PerturbationSample), (t, smp)
            ref = np.array([2.0, 1.0]) * (math.sqrt(3.0) / 3.0) * math.sqrt(t)
            assert np.max(np.abs(smp.x - ref)) <= 1e-6, (t, smp.x, ref)
            assert smp.Y.norm() <= 1e-6, t

    criterion(1, "reference-path solve", 1.0, body)


def test_criterion_02_reference_classification():
    def body():
        fam = builtin_family("example3")
        sysm = build_system(fam.problem, kkt_point(fam.problem, fam.xbar, fam.ybar))
        v = classify_multiplier(sysm)
        assert v.tag == NONCRITICAL, v
        assert "exhaustive" in v.certificate or "linear rows alone" in v.certificate, v

    criterion(2, "degenerate-pair classification", 1.0, body)


def test_criterion_03_order_two_thirds():
    def body():
        schedule = np.geomspace(1e-2, 1e-5, 13)
        for A in (None, [[0.0, 0.7], [0.7, 0.3]]):
            fam = builtin_family("example2", A)
            rep = error_bound_experiment(fam, schedule)
            e, _ = rep.exponent_fit
            assert abs(e - 2.0 / 3.0) <= 0.05, (A, rep.exponent_fit)
            assert rep.verdict_101 == "diverging", (A, rep.verdict_101)

    criterion(3, "two-thirds order fit", 10.0, body)


def test_criterion_04_adjudication_vs_brute_force():
    def body():
        fam = builtin_family("example2")
        sysm = build_system(fam.problem, kkt_point(fam.problem, fam.xbar, fam.ybar))
        verdict = classify_multiplier(sysm)

        # Exact branch enumeration, derived by hand for this fixture.
        # Unknowns z = (xi1, xi2, e11, e22, e12) with H = diag(xi1, xi2):
        # stationarity 2 xi + (e11, e22) = 0, the strictly-negative block
        # forces xi1 = 0, and the scalar degenerate block splits into the
        # two complementarity branches e22 = 0 and xi2 = 0.
        common = [
            [2.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
        ]
        branch_found = False
        for extra in ([0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]):
            M = np.array(common + [extra])
            _, s, Vt = np.linalg.svd(M)
            rank = int(np.sum(s > 1e-12))
            N = Vt[rank:].T  # null-space basis
            if N.size and np.linalg.norm(N[:2, :]) > 1e-9:
                branch_found = True
        oracle_tag = CRITICAL if branch_found else NONCRITICAL

        # 1e5 seeded samples through witness_residual, restricted to the
        # forced linear rows so the sampling has a fighting chance
        Z = null_space(common_rows(sysm, *entry_rows(sysm)))
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(10**5):
            z = Z @ rng.standard_normal(Z.shape[1])
            nx = np.linalg.norm(z[:2])
            if nx <= 1e-9:
                continue
            z = z / nx
            if witness_residual(sysm, z[:2], sym_mat(z[2:], 2)) <= 1e-7:
                hits += 1
        sampled_tag = CRITICAL if hits else NONCRITICAL

        assert verdict.tag == oracle_tag == sampled_tag, (verdict.tag, oracle_tag, hits)

        findings = (REPO_ROOT / "FINDINGS.md").read_text()
        assert verdict.tag in findings
        assert "critical" in findings.lower()

    criterion(4, "adjudication vs brute force", 30.0, body)


def test_criterion_05_projection_derivative_fd():
    def body():
        rng = np.random.default_rng(0)
        t = 1e-6
        for k in range(100):
            p = int(rng.integers(1, 7))
            if k % 3 == 0:
                A = rng.normal(size=(p, p))
                A = 0.5 * (A + A.T)
            else:
                lamv = np.concatenate(
                    [rng.normal(size=p - p // 2) * 3, np.zeros(p // 2)]
                )
                Q = np.linalg.qr(rng.normal(size=(p, p)))[0]
                A = (Q * lamv) @ Q.T
            H = rng.normal(size=(p, p))
            H = 0.5 * (H + H.T)
            lhs = dir_deriv_projection(SymMat(A), SymMat(H)).full()
            fd = (
                project_psd(SymMat(A + t * H)).full() - project_psd(SymMat(A)).full()
            ) / t
            rel = np.linalg.norm(lhs - fd) / max(1, np.linalg.norm(H))
            assert rel <= 1e-3, (k, rel)

    criterion(5, "projection derivative vs FD", 5.0, body)


def test_criterion_06_graph_characterizations_agree():
    def body():
        rng = np.random.default_rng(1)
        for trial in range(1000):
            p = int(rng.integers(1, 7))
            ctx = random_cone_context(rng, p)
            H1 = random_symmetric(rng, p)
            H2 = random_symmetric(rng, p)
            g = graph_tangent_membership(ctx, H1, H2)
            assert g.member_blocks == g.member_deriv, (trial, g)

    criterion(6, "block vs derivative graph test", 10.0, body)


def test_criterion_07_diagonal_reduction_agreement():
    def body():
        rng = np.random.default_rng(7)
        for trial in range(200):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, 5))
            pd, xbar, Y, mu = sample_diag_problem(rng, n, p)
            v_sdp = classify_multiplier(build_system(pd, kkt_point(pd, xbar, Y)))
            v_nlp = classify_nlp(diagonal_reduction(pd), xbar, mu)
            assert v_sdp.tag == v_nlp.tag, (trial, v_sdp.tag, v_nlp.tag)

    criterion(7, "diagonal reduction agreement", 30.0, body)


def test_criterion_08_sufficiency_forbids_critical():
    def body():
        fam2 = builtin_family("example2")
        fam3 = builtin_family("example3")
        pd_pd = make_problem(
            [0.0, 0.0],
            [[2.0, 0.0], [0.0, 2.0]],
            SymMat.zeros(2),
            [SymMat.diag([1.0, 0.0]), SymMat([[0.0, 1.0], [1.0, 2.0]])],
        )
        cases = [
            (fam2.problem, fam2.xbar, fam2.ybar),
            (fam3.problem, fam3.xbar, fam3.ybar),
            (pd_pd, np.zeros(2), SymMat.zeros(2)),
        ]
        rng = np.random.default_rng(8)
        while len(cases) < 100:
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, 5))
            pd, xbar, Y, _ = sample_diag_problem(rng, n, p, pd_quad=len(cases) % 2 == 0)
            cases.append((pd, xbar, Y))
        holds = 0
        for i, (pd, xbar, Y) in enumerate(cases):
            if check_soscy(context(pd, xbar, Y)).verdict != SOSCY_HOLDS:
                continue
            holds += 1
            v = classify_multiplier(build_system(pd, kkt_point(pd, xbar, Y)))
            assert v.tag != CRITICAL, (i, v)
        assert len(cases) >= 100 and holds >= 25, (len(cases), holds)

    criterion(8, "sufficiency forbids critical", 60.0, body)


def test_criterion_09_sigma_term_grid_oracle():
    def body():
        rng = np.random.default_rng(11)
        for trial in range(50):
            X, Y, H = sample_sigma_case(rng)
            s_closed = sigma_term(cone_context(X, Y), H)
            s_grid = grid_sigma_oracle(X, Y, H)
            tol = max(0.05 * abs(s_closed), 1e-6)
            assert abs(s_closed - s_grid) <= tol, (trial, s_closed, s_grid)

    criterion(9, "sigma term vs grid oracle", 60.0, body)


def test_criterion_10_displacement_equivalence():
    def body():
        from test_sosc import constructed_lemma4_triple
        from kkt_spectra.sosc import lemma4_check

        rng = np.random.default_rng(11)
        for trial in range(500):
            p = int(rng.integers(2, 5))
            if trial % 2 == 0:
                C, dA, dB = constructed_lemma4_triple(rng, p)
            else:
                C = random_symmetric(rng, p, 2.0)
                dA = random_symmetric(rng, p)
                dB = random_symmetric(rng, p)
            out = lemma4_check(C, dA, dB)
            assert out["lhs"] == out["rhs"], (trial, out)

    criterion(10, "displacement equivalence", 10.0, body)


def test_criterion_11_block_order_fits():
    def body():
        ctx = cone_context(SymMat.diag([2.0, 0.0, 0.0]), SymMat.diag([0.0, 0.0, -3.0]))
        tab = lemma6_order_check(ctx, samples=6, seed=3)
        for name, row in tab.items():
            if row.get("vanishes"):
                continue
            if row["kind"] == "product":
                assert row["exponent"] >= 1.9, (name, row)
            else:
                assert abs(row["exponent"] - 1.0) <= 0.1, (name, row)

    criterion(11, "perturbation block orders", 10.0, body)


def test_criterion_12_bounded_ratio_paths():
    def body():
        fam2 = builtin_family("example2")
        fam3 = builtin_family("example3")
        assert check_soscy(context(fam2.problem, fam2.xbar, fam2.ybar)).verdict == SOSCY_HOLDS
        assert check_soscy(context(fam3.problem, fam3.xbar, fam3.ybar)).verdict == SOSCY_HOLDS
        rep3 = error_bound_experiment(fam3, np.geomspace(1e-2, 1e-6, 13))
        tail = rep3.ratios_91[-6:]
        assert max(tail) / min(tail) <= 3.0, tail
        assert rep3.verdict_91 == "bounded", rep3.verdict_91
        rep2 = error_bound_experiment(fam2, np.geomspace(1e-2, 1e-5, 13))
        assert rep2.verdict_91 in ("bounded", "inconclusive"), rep2.verdict_91

    criterion(12, "bounded multiplier-ratio paths", 10.0, body)
