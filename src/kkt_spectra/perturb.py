"""Perturbed KKT solving and empirical error-bound experiments.

The solver tracks roots of the normal-map system of a canonically
perturbed problem; the experiment layer sweeps perturbation schedules,
fits order exponents, and renders boundedness verdicts for the
solution-distance ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import ConeContext
from .criticality import CriticalitySystem
from .errors import ConvergenceError, InputDataError, merged_options
from .problem import (
    PerturbationFamily,
    ProblemData,
    eval_G,
    jacobian_stack,
    lagrangian_hessian,
    robinson_normal_map,
    shifted_problem,
)
from .sosc import SOSCY_HOLDS, check_soscy
from .symmat import (
    SpectralDecomp,
    SymMat,
    as_symmat,
    project_psd,
    spectral_decompose,
    svec_indices,
    svec_scale,
    sym_mat,
    sym_vec,
)

NEWTON_STEPS = 60  # semismooth Newton iterations before the fallback
BACKTRACKS = 20  # step halvings per Newton line search
LM_STEPS = 60  # Levenberg-Marquardt fallback iterations
RESIDUAL_TOL = 1e-12  # stopping residual, relative to the perturbation scale
JITTER_STARTS = 8  # jittered starts per schedule point

DEFAULT_EXPERIMENT_OPTIONS = {"seed": 42}

CERT_FACTOR = 1e-10


@dataclass(frozen=True)
class PerturbationSample:
    """One certified root of a perturbed KKT system."""

    p1: np.ndarray
    p2: SymMat
    x: np.ndarray
    Y: SymMat
    newton_iters: int
    residual: float


@dataclass(frozen=True)
class ErrorBoundReport:
    """Sweep results: samples, ratio sequences, and trend verdicts."""

    samples: list
    exponent_fit: tuple
    ratios_101: list
    ratios_91: list
    verdict_101: str
    verdict_91: str
    schedule: np.ndarray
    deviations: list
    p_norms: list
    y_devs: list
    multiple_roots: bool
    excluded: int


def _svec_basis_rotation(P: np.ndarray) -> np.ndarray:
    """Orthogonal change of basis taking svec coordinates to the P frame.

    Column k, for the packed pair (i, j), is svec of the symmetrized
    outer product of columns i and j of P, scaled by sqrt(2) off the
    diagonal; entry (l, k) for the packed pair (a, b) is therefore
    s_l s_k (P_ai P_bj + P_bi P_aj) / 2 with the svec weights s.
    """
    rows, cols = svec_indices(P.shape[0])
    s = svec_scale(P.shape[0])
    Pa, Pb = P[rows], P[cols]
    R = Pa[:, rows] * Pb[:, cols] + Pb[:, rows] * Pa[:, cols]
    return (0.5 * s)[:, None] * R * s


def _projection_jacobian(d: SpectralDecomp) -> np.ndarray:
    """Clarke element of the PSD-projection derivative in svec coordinates.

    Zero eigenvalue pairs take weight one, the element that acts as the
    identity on the kernel block.
    """
    rows, cols = svec_indices(d.p)
    # eigenvalues descend, so the class (alpha 0, beta 1, gamma 2) of the
    # row index never exceeds that of the column index
    cls = np.zeros(d.p, dtype=int)
    cls[d.beta] = 1
    cls[d.gamma] = 2
    w = np.where(cls[cols] <= 1, 1.0, np.where(cls[rows] == 0, d.sigma[rows, cols], 0.0))
    R = _svec_basis_rotation(d.P)
    return (R * w) @ R.T


def solve_perturbed_kkt(pd: ProblemData, p1, p2, start=None):
    """Track a KKT root of the canonically perturbed problem.

    Runs a semismooth Newton iteration on the normal-map system of the
    shifted data, with backtracking, and a Levenberg-Marquardt fallback
    on the same semismooth element once a line search fails or
    NEWTON_STEPS steps are spent. Iterates are (x, svec z) arrays; every
    residual evaluation is one robinson_normal_map call, and the Newton
    element is assembled from one spectral decomposition of z and the
    (n, p, p) constraint Jacobian stack. The iteration stops at residual
    RESIDUAL_TOL * scale, or once it is certifiable (CERT_FACTOR * scale)
    and a step no longer halves it; the root is then re-certified at the
    canonical splitting point. A non-finite iterate raises
    InputDataError. Raises ConvergenceError (carrying the best iterate)
    on stagnation.
    """
    p1 = np.asarray(p1, dtype=float).reshape(pd.n)
    p2 = as_symmat(p2)
    spd = shifted_problem(pd, p1, p2)
    n, p = pd.n, pd.p
    m = p * (p + 1) // 2

    if start is None:
        x0 = np.zeros(n)
        z0 = eval_G(spd, x0)
    else:
        x0, z0 = start
    x = np.asarray(x0, dtype=float).reshape(n).copy()
    zv = sym_vec(as_symmat(z0))

    scale = max(1.0, float(np.linalg.norm(p1)) + p2.norm())
    tol_stop = RESIDUAL_TOL * scale

    def full_residual(xc, zvc):
        psi1, psi2 = robinson_normal_map(spd, xc, sym_mat(zvc, p))
        return np.concatenate([psi1, sym_vec(psi2)])

    rows, cols = svec_indices(p)
    svs = svec_scale(p)

    def jacobian(xc, zvc):
        d = spectral_decompose(sym_mat(zvc, p))
        Pz = (d.P * np.maximum(d.lam, 0.0)) @ d.P.T
        Y = sym_mat(zvc - Pz[rows, cols] * svs, p)
        Hxx = lagrangian_hessian(spd, xc, Y)
        Dsv = jacobian_stack(spd, xc)[:, rows, cols] * svs
        JP = _projection_jacobian(d)
        J = np.zeros((n + m, n + m))
        J[:n, :n] = Hxx
        J[:n, n:] = Dsv @ (np.eye(m) - JP)
        J[n:, :n] = Dsv.T
        J[n:, n:] = -JP
        return J

    tol_cert = CERT_FACTOR * scale

    def finalize(xc, zvc, count):
        z = sym_mat(zvc, p)
        Y = z - project_psd(z)
        # certify at the canonical splitting point G(x) + Y
        z_canon = eval_G(spd, xc) + Y
        psi1, psi2 = robinson_normal_map(spd, xc, z_canon)
        res = math.hypot(float(np.linalg.norm(psi1)), psi2.norm())
        if res > tol_cert:
            raise ConvergenceError(
                f"root failed certification: residual {res:.3e}",
                best=PerturbationSample(p1, p2, xc, Y, count, res),
                residual=res,
            )
        return PerturbationSample(p1, p2, xc, Y, count, res)

    def settled(rn_new, rn_old):
        # a certifiable step that no longer halves the residual has reached
        # the round-off floor; halving still admits the linear convergence
        # of iterates attracted to a critical multiplier
        return rn_new <= tol_stop or tol_cert >= rn_new > 0.5 * rn_old

    r = full_residual(x, zv)
    rn = float(np.linalg.norm(r))
    if rn <= tol_stop:
        return finalize(x, zv, 0)

    iters = 0
    while iters < NEWTON_STEPS:
        J = jacobian(x, zv)
        rhs = -r
        try:
            delta = np.linalg.solve(J, rhs)
            if not np.all(np.isfinite(delta)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(J, rhs, rcond=None)[0]
        step = 1.0
        for _ in range(BACKTRACKS):
            xn = x + step * delta[:n]
            zn = zv + step * delta[n:]
            r_new = full_residual(xn, zn)
            rn_new = float(np.linalg.norm(r_new))
            if rn_new <= (1.0 - 1e-4 * step) * rn:
                break
            step *= 0.5
        else:
            # nothing changed, so a retry would repeat this line search
            if rn <= tol_cert:
                return finalize(x, zv, iters)
            break
        done = settled(rn_new, rn)
        x, zv, r, rn = xn, zn, r_new, rn_new
        iters += 1
        if done:
            return finalize(x, zv, iters)

    # Levenberg-Marquardt fallback on the same semismooth Newton element;
    # accepted steps decrease the residual, so the last iterate is the best
    lam = 1e-6
    u = np.concatenate([x, zv])
    for _ in range(LM_STEPS):
        J = jacobian(u[:n], u[n:])
        g = J.T @ r
        A = J.T @ J
        while lam <= 1e12:
            try:
                delta = np.linalg.solve(A + lam * np.eye(n + m), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            un = u + delta
            r_new = full_residual(un[:n], un[n:])
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < rn:
                break
            lam *= 10.0
        else:
            break
        done = settled(rn_new, rn)
        u, r, rn = un, r_new, rn_new
        lam = max(lam / 10.0, 1e-12)
        iters += 1
        if done:
            break

    xf, zvf = u[:n], u[n:]
    if rn <= tol_cert:
        return finalize(xf, zvf, iters)
    z = sym_mat(zvf, p)
    Y = z - project_psd(z)
    raise ConvergenceError(
        f"Newton stagnated at residual {rn:.3e} after {iters} steps",
        best=PerturbationSample(p1, p2, xf, Y, iters, rn),
        residual=rn,
    )


def fit_order_exponent(pairs):
    """Log-log slope of deviation against parameter, with its stderr."""
    pts = [(float(s), float(v)) for s, v in pairs if s > 0.0 and v > 0.0]
    if len(pts) < 2:
        raise InputDataError("need at least two positive (parameter, deviation) pairs")
    xs = np.log([s for s, _ in pts])
    ys = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    if len(pts) == 2:
        return float(slope), 0.0
    resid = ys - (slope * xs + intercept)
    dof = len(pts) - 2
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if sxx > 0 else math.inf
    return float(slope), float(stderr)


def _trend_verdict(params, ratios):
    """Boundedness verdict from the tail of a ratio sequence.

    Looks at the last six schedule points: diverging needs a monotone
    increase of at least 2x per decade, bounded needs max/min <= 3 with
    no monotone increase above 1.5x per decade.
    """
    pairs = [(p, r) for p, r in zip(params, ratios) if math.isfinite(r)]
    if len(pairs) != len(list(params)):
        return "inconclusive"
    pairs = pairs[-6:]
    if len(pairs) < 2:
        return "inconclusive"
    vals = [r for _, r in pairs]
    ps = [p for p, _ in pairs]
    vmax = max(vals)
    vmin = min(vals)
    if vmax <= 0.0:
        return "bounded"
    monotone = all(vals[i + 1] > vals[i] * (1.0 + 1e-12) for i in range(len(vals) - 1))
    growth = 0.0
    decades = abs(math.log10(ps[0]) - math.log10(ps[-1])) if ps[0] > 0 and ps[-1] > 0 else 0.0
    if monotone and decades > 0 and vals[0] > 0:
        growth = (vals[-1] / vals[0]) ** (1.0 / decades)
    if monotone and growth >= 2.0:
        return "diverging"
    if vmin > 0.0 and vmax / vmin <= 3.0 and not (monotone and growth > 1.5):
        return "bounded"
    return "inconclusive"


def error_bound_experiment(family: PerturbationFamily, schedule, options=None):
    """Sweep a perturbation schedule and collect distance ratios.

    Solves are warm-started by continuation along the schedule; at each
    parameter JITTER_STARTS jittered starts probe for additional roots
    and the root closest to the reference point is kept. options holds
    only the jitter "seed"; an unknown key raises InputDataError.
    """
    opts = merged_options(DEFAULT_EXPERIMENT_OPTIONS, options)
    rng = np.random.default_rng(opts["seed"])
    pd = family.problem
    xbar = np.asarray(family.xbar, dtype=float)
    ybar = family.ybar
    n, p = pd.n, pd.p

    schedule = np.asarray(list(schedule), dtype=float)
    prev_x = xbar.copy()
    prev_Y = ybar

    samples = []
    kept_params = []
    excluded = 0
    multiple_roots = False

    for s in schedule:
        p1, p2 = family.perturbation(float(s))
        p1 = np.asarray(p1, dtype=float).reshape(n)
        p2 = as_symmat(p2)
        pnorm = float(np.linalg.norm(p1)) + p2.norm()
        spd = shifted_problem(pd, p1, p2)
        roots = []

        def attempt(x0, Y0):
            z0 = eval_G(spd, x0) + Y0
            try:
                roots.append(solve_perturbed_kkt(pd, p1, p2, (x0, z0)))
            except ConvergenceError:
                pass

        attempt(prev_x, prev_Y)
        delta = 0.5 * max(
            float(np.max(np.abs(prev_x - xbar))) if n else 0.0,
            math.sqrt(pnorm),
            1e-8,
        )
        for _ in range(JITTER_STARTS):
            M = rng.standard_normal((p, p))
            attempt(
                prev_x + delta * rng.standard_normal(n),
                prev_Y + delta * SymMat(0.5 * (M + M.T)),
            )
        if not roots:
            excluded += 1
            continue
        distinct = []
        for smp in roots:
            if all(
                np.linalg.norm(smp.x - other.x) > 1e-6 * max(1.0, float(np.linalg.norm(smp.x)))
                for other in distinct
            ):
                distinct.append(smp)
        if len(distinct) > 1:
            multiple_roots = True
        # equidistant roots (symmetric branches) tie-break by multiplier drift
        dists = [float(np.linalg.norm(smp.x - xbar)) for smp in distinct]
        dmin = min(dists)
        near = [
            smp for smp, dx in zip(distinct, dists) if dx <= dmin + 1e-6 * max(1.0, dmin)
        ]
        best = min(near, key=lambda smp: (smp.Y - ybar).norm())
        samples.append(best)
        kept_params.append(float(s))
        prev_x = best.x.copy()
        prev_Y = best.Y

    deviations = [float(np.linalg.norm(smp.x - xbar)) for smp in samples]
    p_norms = [float(np.linalg.norm(smp.p1)) + smp.p2.norm() for smp in samples]
    y_devs = [(smp.Y - ybar).norm() for smp in samples]

    def ratio(num, den):
        if den > 0.0:
            return num / den
        return 0.0 if num == 0.0 else math.nan

    # a zero perturbation leaves nothing to compare against
    ratios_101 = [
        math.nan if pn == 0.0 else ratio(dv, pn) for dv, pn in zip(deviations, p_norms)
    ]
    ratios_91 = [
        math.nan if pn == 0.0 and yd == 0.0 else ratio(dv, pn + yd)
        for dv, pn, yd in zip(deviations, p_norms, y_devs)
    ]

    try:
        exponent_fit = fit_order_exponent(list(zip(kept_params, deviations)))
    except InputDataError:
        exponent_fit = (math.nan, math.nan)

    return ErrorBoundReport(
        samples=samples,
        exponent_fit=exponent_fit,
        ratios_101=ratios_101,
        ratios_91=ratios_91,
        verdict_101=_trend_verdict(kept_params, ratios_101),
        verdict_91=_trend_verdict(kept_params, ratios_91),
        schedule=np.asarray(kept_params),
        deviations=deviations,
        p_norms=p_norms,
        y_devs=y_devs,
        multiple_roots=multiple_roots,
        excluded=excluded,
    )


_BLOCK_SPECS = (
    ("X_aa", "X", "alpha", "alpha", "linear"),
    ("X_ab", "X", "alpha", "beta", "linear"),
    ("X_ag", "X", "alpha", "gamma", "min"),
    ("X_bb", "X", "beta", "beta", "linear"),
    ("X_bg", "X", "beta", "gamma", "product"),
    ("X_gg", "X", "gamma", "gamma", "product"),
    ("Y_aa", "Y", "alpha", "alpha", "product"),
    ("Y_ab", "Y", "alpha", "beta", "product"),
    ("Y_ag", "Y", "alpha", "gamma", "min"),
    ("Y_bb", "Y", "beta", "beta", "linear"),
    ("Y_bg", "Y", "beta", "gamma", "linear"),
    ("Y_gg", "Y", "gamma", "gamma", "linear"),
)


def lemma6_order_check(ctx: ConeContext, samples=8, seed=0, schedule=None):
    """Fit decay exponents of the frame blocks of nearby splitting pairs.

    Splits A-bar + s*Delta for random unit directions Delta and regresses
    each block norm (in the fixed base frame) against both the parameter
    s and its predicted predictor (the X deviation, the Y deviation,
    their minimum, or their product). The alpha-gamma coupling residual
    gets its own row under the key "eq89".
    """
    d = ctx.decomp
    P = d.P
    p = d.p
    Xb = ctx.X.full()
    Yb = ctx.Y.full()
    Ab = Xb + Yb
    if schedule is None:
        schedule = np.geomspace(1e-2, 1e-6, 9)
    schedule = np.asarray(list(schedule), dtype=float)
    rng = np.random.default_rng(seed)
    if isinstance(samples, (int, np.integer)):
        dirs = []
        for _ in range(int(samples)):
            M = rng.standard_normal((p, p))
            M = 0.5 * (M + M.T)
            M /= np.linalg.norm(M)
            dirs.append(M)
    else:
        dirs = [as_symmat(S).full() for S in samples]

    idx = {"alpha": d.alpha, "beta": d.beta, "gamma": d.gamma}
    lam_a = d.lam[d.alpha]
    lam_g = d.lam[d.gamma]
    names = [name for name, _, ri, ci, _ in _BLOCK_SPECS if idx[ri].size and idx[ci].size]
    if d.alpha.size and d.gamma.size:
        names.append("eq89")
    per_dir = {name: [] for name in names}

    base_scale = 1.0 + float(np.abs(Ab).max())
    for M in dirs:
        rows = {name: [] for name in names}
        for s in schedule:
            A = Ab + s * M
            X = project_psd(SymMat(A)).full()
            Y = A - X
            dX = float(np.linalg.norm(X - Xb))
            dY = float(np.linalg.norm(Y - Yb))
            Xt = P.T @ (X - Xb) @ P
            Yt = P.T @ (Y - Yb) @ P
            pred = {"linear_X": dX, "linear_Y": dY, "min": min(dX, dY), "product": dX * dY}
            for name, side, ri, ci, kind in _BLOCK_SPECS:
                if name not in rows:
                    continue
                block = (Xt if side == "X" else Yt)[np.ix_(idx[ri], idx[ci])]
                key = kind if kind in ("min", "product") else f"linear_{side}"
                rows[name].append((float(s), float(np.linalg.norm(block)), pred[key]))
            if "eq89" in rows:
                R = Yt[np.ix_(d.alpha, d.gamma)] + (
                    np.diag(1.0 / lam_a) @ Xt[np.ix_(d.alpha, d.gamma)] @ np.diag(lam_g)
                )
                rows["eq89"].append((float(s), float(np.linalg.norm(R)), pred["product"]))
        for name, triples in rows.items():
            per_dir[name].append(triples)

    kinds = {name: kind for name, _, _, _, kind in _BLOCK_SPECS}
    kinds["eq89"] = "product"
    table = {}
    for name in names:
        exps, errs, pexps, max_norm = [], [], [], 0.0
        for triples in per_dir[name]:
            norms = [t[1] for t in triples]
            max_norm = max(max_norm, max(norms, default=0.0))
            pos = [(t[0], t[1]) for t in triples if t[1] > 1e-14 * base_scale]
            if len(pos) >= 2:
                e, se = fit_order_exponent(pos)
                exps.append(e)
                errs.append(se)
            ppos = [(t[2], t[1]) for t in triples if t[1] > 1e-14 * base_scale and t[2] > 0]
            if len(ppos) >= 2:
                pe, _ = fit_order_exponent(ppos)
                pexps.append(pe)
        if not exps:
            table[name] = {"kind": kinds[name], "vanishes": True, "max_norm": max_norm}
            continue
        table[name] = {
            "kind": kinds[name],
            "exponent": min(exps),
            "stderr": max(errs),
            "exponent_vs_predictor": min(pexps) if pexps else math.inf,
            "max_norm": max_norm,
            "vanishes": False,
        }
    return table


def xpart_bound_check(sys: CriticalitySystem, report: ErrorBoundReport):
    """Pair the x-distance ratio trend with the second-order verdict.

    When the second-order condition is certified, the combined ratio
    sequence (distance over perturbation plus multiplier drift) should
    stay bounded; the returned table records both sides.
    """
    soscy = check_soscy(sys)
    rows = [
        {"parameter": float(s), "p_norm": pn, "x_dev": dv, "y_dev": yd, "ratio_91": r}
        for s, pn, dv, yd, r in zip(
            report.schedule, report.p_norms, report.deviations, report.y_devs, report.ratios_91
        )
    ]
    verdict = _trend_verdict(list(report.schedule), report.ratios_91)
    return {
        "soscy_verdict": soscy.verdict,
        "verdict_91": verdict,
        "rows": rows,
        "consistent": not (soscy.verdict == SOSCY_HOLDS and verdict == "diverging"),
    }


def report_to_dict(report: ErrorBoundReport) -> dict:
    """JSON-compatible rendering of an error-bound report."""

    def clean(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v

    return {
        "schedule": [float(s) for s in report.schedule],
        "samples": [
            {
                "p_norm": pn,
                "x_dev": dv,
                "y_dev": yd,
                "newton_iters": smp.newton_iters,
                "residual": smp.residual,
            }
            for smp, pn, dv, yd in zip(
                report.samples, report.p_norms, report.deviations, report.y_devs
            )
        ],
        "exponent_fit": {
            "exponent": clean(report.exponent_fit[0]),
            "stderr": clean(report.exponent_fit[1]),
        },
        "ratios_101": [clean(r) for r in report.ratios_101],
        "ratios_91": [clean(r) for r in report.ratios_91],
        "verdict_101": report.verdict_101,
        "verdict_91": report.verdict_91,
        "multiple_roots": report.multiple_roots,
        "excluded": report.excluded,
    }


def report_to_csv(report: ErrorBoundReport) -> str:
    """CSV rows (parameter, x deviation, perturbation norm, Y deviation)."""
    lines = ["parameter,x_dev,p_norm,y_dev"]
    for s, dv, pn, yd in zip(
        report.schedule, report.deviations, report.p_norms, report.y_devs
    ):
        lines.append(f"{float(s):.17g},{dv:.17g},{pn:.17g},{yd:.17g}")
    return "\n".join(lines) + "\n"
