"""Perturbed KKT solving and empirical error-bound experiments.

The solver tracks roots of the normal-map system of a canonically
perturbed problem from several starts at once, as one stacked iterate;
the experiment layer sweeps perturbation schedules, fits order
exponents, and renders boundedness verdicts for the solution-distance
ratios.
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
    _G_array,
    eval_G,
    hessian_array,
    jacobian_array,
    normal_map_spectral,
    shifted_problem,
)
from .sosc import SOSCY_HOLDS, check_soscy
from .symmat import (
    SymMat,
    as_symmat,
    default_tol_zero,
    packing_tables,
    project_psd,
    svec_indices,
    svec_scale,
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
    excluded_params: list  # schedule values where no start reached a certified root
    excluded_residuals: list  # the best residual any start reached at each of them

    @property
    def excluded(self) -> int:
        return len(self.excluded_params)


def _svec_basis_rotation(P: np.ndarray) -> np.ndarray:
    """Orthogonal changes of basis taking svec coordinates to the frames P.

    P has shape (k, p, p). Column c of slice q, for the packed pair (i, j),
    is svec of the symmetrized outer product of columns i and j of P[q],
    scaled by sqrt(2) off the diagonal; entry (l, c) for the packed pair
    (a, b) is therefore s_l s_c (P_ai P_bj + P_bi P_aj) / 2 with the svec
    weights s. The four factors come from one gather on the flat frames,
    stacked last in memory: the layout fancy indexing gives them, which
    the products of the projection elements run on.
    """
    k, p = len(P), P.shape[-1]
    tables = packing_tables(p)
    F = P.reshape(k, p * p).T.take(tables.rotation, 0)
    R = (F[0] * F[1] + F[2] * F[3]).transpose(2, 0, 1)
    return tables.half_s * R * svec_scale(p)


def _projection_jacobian(lam: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Clarke elements of the PSD-projection derivative in svec coordinates.

    lam (k, p) holds descending spectra and P (k, p, p) their frames. A
    pair (i, j) of a positive and a negative eigenvalue takes the divided
    difference lam_i / (lam_i - lam_j), a pair of two negative ones zero,
    and every other pair one, zero eigenvalues included: the element
    that acts as the identity on the kernel block.
    """
    rows, cols = svec_indices(lam.shape[1])
    tol = default_tol_zero(lam)[:, None]
    # laid out as lam[:, rows] is, a layout that R * w below inherits
    li, lj = lam.T.take(rows, 0).T, lam.T.take(cols, 0).T
    w = np.where(lj >= -tol, 1.0, 0.0)
    np.divide(li, li - lj, out=w, where=(li > tol) & (lj < -tol))
    R = _svec_basis_rotation(P)
    return (R * w[:, None, :]) @ R.swapaxes(1, 2)


def _svec_full(V: np.ndarray, p: int) -> np.ndarray:
    """Dense symmetric (k, p, p) arrays from rows of svec coordinates."""
    if not np.isfinite(V).all():
        raise InputDataError("matrix entries must be finite")
    return _packed_full(V / svec_scale(p), p)


def _packed_full(U: np.ndarray, p: int) -> np.ndarray:
    """Dense symmetric (k, p, p) arrays from rows of packed upper triangles."""
    return U.take(packing_tables(p).gather, 1).reshape(len(U), p, p)


def _packed_upper(A: np.ndarray) -> np.ndarray:
    """Packed upper triangles A[:, rows, cols] of a (k, p, p) stack, laid
    out as that fancy index lays them out: packed entries outermost in
    memory. Products and concatenations of these rows round by their
    layout, so the gather keeps the layout of the fancy index."""
    k, p = len(A), A.shape[-1]
    return A.reshape(k, p * p).T.take(packing_tables(p).upper, 0).T


def _packed_sym(A: np.ndarray) -> np.ndarray:
    """Packed upper triangles of the symmetric parts 0.5 (A + A^T) of a
    (k, p, p) stack, the entries SymMat keeps of each slice."""
    return _packed_upper(0.5 * (A + A.swapaxes(1, 2)))


def _multipliers(ZV: np.ndarray, Pz: np.ndarray, p: int) -> np.ndarray:
    """Packed multipliers Y = z - Pi(z) of rows of svec z, given Pi(z)."""
    return ZV / svec_scale(p) - _packed_sym(Pz)


def _perturbation(pd: ProblemData, p1, p2):
    """The canonical perturbation as (p1 array, p2 SymMat); InputDataError
    unless every entry is finite."""
    p1 = np.asarray(p1, dtype=float).reshape(pd.n)
    p2 = as_symmat(p2)
    if not (np.isfinite(p1).all() and math.isfinite(p2.max_abs())):
        raise InputDataError("perturbation entries must be finite")
    return p1, p2


def _residuals(spd: ProblemData, X: np.ndarray, ZV: np.ndarray):
    """Normal-map residual rows (Psi_1, svec Psi_2) of a stack of iterates,
    their norms, and the spectral split (lam, P, Pi(z)) of each z."""
    p = spd.p
    psi1, psi2, split = normal_map_spectral(spd, X, _svec_full(ZV, p))
    R = np.concatenate([psi1, _packed_upper(psi2) * svec_scale(p)], axis=1)
    # one dot product per row, the sum np.linalg.norm takes of one vector
    return R, np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0]), split


def _newton_elements(spd: ProblemData, X: np.ndarray, ZV: np.ndarray, split) -> np.ndarray:
    """Semismooth Newton elements of the normal map at a stack of iterates.

    split is the spectral split (lam, P, Pi(z)) of the (k, p, p) stack of
    z that the residual evaluation of the same iterates returned; it gives
    the frames, the multipliers Y = z - Pi(z) and the projection elements.
    The blocks are the Lagrangian Hessians, the svec constraint Jacobians
    and the projection elements, shape (k, n + m, n + m).
    """
    k, n, p = len(X), spd.n, spd.p
    m = p * (p + 1) // 2
    svs = svec_scale(p)
    lam, P, Pz = split
    Y = _svec_full(ZV - _packed_upper(Pz) * svs, p)
    # packed entries outermost in memory, as _packed_upper lays them out
    D = jacobian_array(spd, X).reshape(k, n, p * p).transpose(2, 0, 1)
    Dsv = D.take(packing_tables(p).upper, 0).transpose(1, 2, 0) * svs
    JP = _projection_jacobian(lam, P)
    J = np.empty((k, n + m, n + m))
    J[:, :n, :n] = hessian_array(spd, Y)
    J[:, :n, n:] = Dsv @ (np.eye(m) - JP)
    J[:, n:, :n] = Dsv.swapaxes(1, 2)
    J[:, n:, n:] = -JP
    return J


def _newton_directions(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Newton steps of a stack of elements in one batched solve.

    Where that solve raises, one stacked slogdet finds the elements whose
    LU meets a zero pivot (sign 0, the test the solve applies) and the
    others are solved in one batched call. A singular element, or one
    whose step is not finite, takes the least-squares step instead.
    """
    try:
        delta = np.linalg.solve(J, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        regular = np.linalg.slogdet(J)[0] != 0
        delta = np.full(rhs.shape, np.nan)
        if regular.any():
            delta[regular] = np.linalg.solve(J[regular], rhs[regular, :, None])[:, :, 0]
    if not np.isfinite(delta).all():
        for i in np.flatnonzero(~np.isfinite(delta).all(axis=1)):
            delta[i] = np.linalg.lstsq(J[i], rhs[i], rcond=None)[0]
    return delta


def _certify(spd: ProblemData, p1, p2, X, ZV, Pz, steps, tol_cert) -> list:
    """Certify a stack of roots at their canonical splitting points.

    Row i has the iterate (X[i], svec z ZV[i]), Pi(z) in Pz[i] and its
    step count. Its multiplier is Y = z - Pi(z) and its residual the
    normal-map norm at (x, G(x) + Y), all rows in one stacked pass with
    the packing SymMat applies. Returns a PerturbationSample per row whose
    residual is at most tol_cert and a ConvergenceError per other row.
    """
    p = spd.p
    Y = _multipliers(ZV, Pz, p)
    Zc = _packed_full(_packed_sym(_G_array(spd, X)) + Y, p)
    psi1, psi2, _ = normal_map_spectral(spd, X, Zc)
    out = []
    for x, y, count, r1, r2 in zip(X, Y, steps, psi1, psi2):
        res = math.hypot(float(np.linalg.norm(r1)), float(np.linalg.norm(r2)))
        sample = PerturbationSample(p1, p2, x, SymMat._from_packed(p, y), int(count), res)
        if not (res <= tol_cert):
            sample = ConvergenceError(
                f"root failed certification: residual {res:.3e}", best=sample, residual=res
            )
        out.append(sample)
    return out


def solve_perturbed_starts(pd: ProblemData, p1, p2, starts) -> list:
    """Track KKT roots of the canonically perturbed problem from k starts.

    starts lists (x, z) pairs. The semismooth Newton iteration on the
    normal-map system of the shifted data runs all starts in lockstep as
    one (k, n + p(p+1)/2) stack of (x, svec z) iterates. Each residual
    evaluation (one normal_map_spectral call per backtracking round, over
    the starts still searching) also returns the eigensolve of z it made;
    it is kept per start next to the residual, so each step builds the
    Newton elements of the live starts without a new eigensolve and solves
    them in one batched solve, with a masked batch around any singular
    element, whose step is taken by least squares. The kernels pack and
    unpack svec rows through the cached flat index tables of
    symmat.packing_tables, each gather laid out in memory as the
    corresponding fancy index lays it out, since the products downstream
    round by layout.

    The live starts are kept as one compact stack, gathered again only
    when a start leaves it. The first line-search round of a step tries
    the full step on that stack directly; only later rounds, which all
    halve to the same step, gather the starts still searching. Every
    start keeps its own control flow: its line search, its stop at
    residual RESIDUAL_TOL * scale, or once it is certifiable
    (CERT_FACTOR * scale) and a step no longer halves it, and its handoff
    to the fallback. A start whose line search fails uncertified, or that
    spends NEWTON_STEPS steps, goes on alone through a
    Levenberg-Marquardt fallback on the same kernels at k = 1. The roots
    of all starts are then certified together at their canonical
    splitting points in one stacked pass.
    Returns, in start order, a PerturbationSample per certified root and
    a ConvergenceError (carrying the best iterate) per stagnated start; a
    row's outcome does not depend on the other rows. A non-finite
    perturbation or iterate raises InputDataError.
    """
    p1, p2 = _perturbation(pd, p1, p2)
    spd = shifted_problem(pd, p1, p2)
    n, p = pd.n, pd.p
    m = p * (p + 1) // 2
    k = len(starts)
    X = np.array([np.asarray(x0, dtype=float).reshape(n) for x0, _ in starts]).reshape(k, n)
    ZV = np.array([sym_vec(as_symmat(z0)) for _, z0 in starts]).reshape(k, m)

    scale = max(1.0, float(np.linalg.norm(p1)) + p2.norm())
    tol_stop = RESIDUAL_TOL * scale
    tol_cert = CERT_FACTOR * scale

    def settled(rn_new, rn_old):
        # a certifiable step that no longer halves the residual has reached
        # the round-off floor; halving still admits the linear convergence
        # of iterates attracted to a critical multiplier
        return (rn_new <= tol_stop) | ((tol_cert >= rn_new) & (rn_new > 0.5 * rn_old))

    def levenberg_marquardt(i):
        # fallback on the same semismooth Newton element; accepted steps
        # decrease the residual, so the last iterate is the best, and row
        # i of the state ends there
        lam = 1e-6
        u = np.concatenate([X[i], ZV[i]])
        r, rn, iters = R[i], RN[i], int(steps[i])
        split = (LAM[i : i + 1], PF[i : i + 1], PZ[i : i + 1])
        eye = np.eye(n + m)
        for _ in range(LM_STEPS):
            J = _newton_elements(spd, u[None, :n], u[None, n:], split)[0]
            g = J.T @ r
            A = J.T @ J
            while lam <= 1e12:
                try:
                    delta = np.linalg.solve(A + lam * eye, -g)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                un = u + delta
                r_new, rn_new, split_new = _residuals(spd, un[None, :n], un[None, n:])
                if rn_new[0] < rn:
                    break
                lam *= 10.0
            else:
                break
            done = settled(rn_new[0], rn)
            u, r, rn, split = un, r_new[0], rn_new[0], split_new
            lam = max(lam / 10.0, 1e-12)
            iters += 1
            if done:
                break
        X[i], ZV[i], RN[i], steps[i] = u[:n], u[n:], rn, iters
        LAM[i], PF[i], PZ[i] = (a[0] for a in split)

    out = [None] * k
    steps = np.zeros(k, dtype=int)
    R, RN, (LAM, PF, PZ) = _residuals(spd, X, ZV)
    state = (X, ZV, R, RN, LAM, PF, PZ, steps)
    certify = ~(RN > tol_stop)
    fallback = []
    # the live starts a hold their state as one compact stack, gathered
    # again only when a start leaves it
    a = (~certify).nonzero()[0]
    stack = [A.take(a, 0) for A in state]
    while a.size:
        Xa, Za, Ra, RNa, La, Pa, PZa, Sa = stack
        J = _newton_elements(spd, Xa, Za, (La, Pa, PZa))
        delta = _newton_directions(J, -Ra)
        # the first round tries the full step on the whole stack; each later
        # round halves the step of the starts still searching, so they all
        # share the step t of that round
        Xt, Zt = Xa + delta[:, :n], Za + delta[:, n:]
        Rt, RNt, (Lt, Pt, PZt) = _residuals(spd, Xt, Zt)
        St = Sa + 1
        trial = [Xt, Zt, Rt, RNt, Lt, Pt, PZt, St]
        searching = ~(RNt <= (1.0 - 1e-4) * RNa)
        if np.count_nonzero(searching):
            b = searching.nonzero()[0]
            Xb, Zb, RNb, db = (A.take(b, 0) for A in (Xa, Za, RNa, delta))
            t = 1.0
            for _ in range(BACKTRACKS - 1):
                t *= 0.5
                Xs, Zs = Xb + t * db[:, :n], Zb + t * db[:, n:]
                Rs, RNs, (Ls, Ps, PZs) = _residuals(spd, Xs, Zs)
                ok = RNs <= (1.0 - 1e-4 * t) * RNb
                if np.count_nonzero(ok):
                    hit, rest = ok.nonzero()[0], (~ok).nonzero()[0]
                    rows = b.take(hit)
                    for T, S in zip(trial, (Xs, Zs, Rs, RNs, Ls, Ps, PZs)):
                        T[rows] = S.take(hit, 0)
                    searching[rows] = False
                    b, Xb, Zb, RNb, db = (A.take(rest, 0) for A in (b, Xb, Zb, RNb, db))
                    if not b.size:
                        break
            # a start whose line search failed keeps its iterate and leaves:
            # nothing changed, so a retry would repeat the same search
            for T, A in zip(trial, stack):
                T[b] = A.take(b, 0)
        done = ~searching & settled(RNt, RNa)
        leave = done | searching | (St >= NEWTON_STEPS)
        stack = trial
        if np.count_nonzero(leave):
            out_rows, keep = leave.nonzero()[0], (~leave).nonzero()[0]
            gone = a.take(out_rows)
            for A, T in zip(state, trial):
                A[gone] = T.take(out_rows, 0)
            # a failed search at a certifiable residual is certified as well
            cert = (done | searching & (RNt <= tol_cert)).take(out_rows)
            certify[gone[cert]] = True
            fallback.extend(gone[~cert])
            a = a.take(keep)
            stack = [T.take(keep, 0) for T in trial]
    for i in fallback:
        levenberg_marquardt(i)
        if RN[i] <= tol_cert:
            certify[i] = True
            continue
        rn, iters = float(RN[i]), int(steps[i])
        Y = SymMat._from_packed(p, _multipliers(ZV[i : i + 1], PZ[i : i + 1], p)[0])
        out[i] = ConvergenceError(
            f"Newton stagnated at residual {rn:.3e} after {iters} steps",
            best=PerturbationSample(p1, p2, X[i].copy(), Y, iters, rn),
            residual=rn,
        )
    c = np.flatnonzero(certify)
    if c.size:
        for i, o in zip(c, _certify(spd, p1, p2, X[c], ZV[c], PZ[c], steps[c], tol_cert)):
            out[i] = o
    return out


def solve_perturbed_kkt(pd: ProblemData, p1, p2, start=None):
    """Track a KKT root of the canonically perturbed problem from one start.

    The k = 1 case of solve_perturbed_starts; start is an (x, z) pair and
    defaults to x = 0, z = G(0) of the shifted data. Returns the certified
    PerturbationSample, raises its ConvergenceError (carrying the best
    iterate) on stagnation, and InputDataError on a non-finite
    perturbation or iterate.
    """
    p1, p2 = _perturbation(pd, p1, p2)
    if start is None:
        x0 = np.zeros(pd.n)
        start = (x0, eval_G(shifted_problem(pd, p1, p2), x0))
    (out,) = solve_perturbed_starts(pd, p1, p2, [start])
    if isinstance(out, ConvergenceError):
        raise out
    return out


def _jitter_draws(rng, n: int, p: int):
    """The JITTER_STARTS jitters of one schedule point from one block draw:
    per start its multiplier noise (p, p), then its x noise (n,), the
    stream and order of one draw after another. Returns the noise stacks
    of shape (JITTER_STARTS, p, p) and (JITTER_STARTS, n)."""
    W = rng.standard_normal((JITTER_STARTS, p * p + n))
    return W[:, : p * p].reshape(JITTER_STARTS, p, p), W[:, p * p :]


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
    parameter the continuation start and JITTER_STARTS jittered starts
    (drawn as one block: per start its multiplier noise, then its x noise)
    are assembled as one stack, x0 and z0 = G(x0) + Y0, and solved in
    lockstep by one solve_perturbed_starts call, and the certified root
    closest to the reference point is kept. A parameter where no start
    certifies is dropped and named in excluded_params. options holds only
    the jitter "seed"; an unknown key raises InputDataError.
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
    excluded_params = []
    excluded_residuals = []
    multiple_roots = False

    rows, cols = svec_indices(p)
    for s in schedule:
        p1, p2 = _perturbation(pd, *family.perturbation(float(s)))
        pnorm = float(np.linalg.norm(p1)) + p2.norm()
        spd = shifted_problem(pd, p1, p2)
        delta = 0.5 * max(
            float(np.max(np.abs(prev_x - xbar))) if n else 0.0,
            math.sqrt(pnorm),
            1e-8,
        )
        # the continuation start, then the jittered ones: x0 and z0 = G(x0) + Y0
        M, dx = _jitter_draws(rng, n, p)
        X0 = np.vstack([prev_x, prev_x + delta * dx])
        Y_up = prev_Y.full()[rows, cols]
        Y0 = np.vstack([Y_up, Y_up + delta * _packed_sym(0.5 * (M + np.swapaxes(M, 1, 2)))])
        Z0 = _packed_sym(_G_array(spd, X0)) + Y0
        outcomes = solve_perturbed_starts(
            pd, p1, p2, [(x0, SymMat._from_packed(p, z0)) for x0, z0 in zip(X0, Z0)]
        )
        roots = [o for o in outcomes if isinstance(o, PerturbationSample)]
        if not roots:
            excluded_params.append(float(s))
            excluded_residuals.append(min(o.residual for o in outcomes))
            continue
        distinct = []
        for smp in roots:
            tol = 1e-6 * max(1.0, float(np.linalg.norm(smp.x)))
            if all(np.linalg.norm(smp.x - other.x) > tol for other in distinct):
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
        excluded_params=excluded_params,
        excluded_residuals=excluded_residuals,
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
