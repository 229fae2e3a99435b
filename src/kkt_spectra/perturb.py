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
from .errors import ConvergenceError, InputDataError
from .problem import PerturbationFamily, ProblemData, ProblemKernels, _checked_order, _checked_vector, shifted_problem
from .sosc import SOSCY_HOLDS, check_soscy
from .symmat import (
    SymMat,
    as_symmat,
    default_tol_zero,
    packing_tables,
    project_psd,
    svec_indices,
    svec_scale,
    svec_stack,
    sym_mat_stack,
    sym_vec,
    upper_stack,
)

NEWTON_STEPS = 60  # semismooth Newton iterations before the fallback
BACKTRACKS = 20  # step halvings per Newton line search
LM_STEPS = 60  # Levenberg-Marquardt fallback iterations
RESIDUAL_TOL = 1e-12  # stopping residual, relative to the perturbation scale
JITTER_STARTS = 8  # jittered starts per schedule point

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
    weights s. The four factors come from one take on the flat frames.
    """
    k, p = len(P), P.shape[-1]
    tables = packing_tables(p)
    F = P.reshape(k, p * p).take(tables.rotation, 1)
    return tables.half_s * (F[:, 0] * F[:, 1] + F[:, 2] * F[:, 3]) * svec_scale(p)


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
    li, lj = lam.take(rows, 1), lam.take(cols, 1)
    w = np.where(lj >= -tol, 1.0, 0.0)
    np.divide(li, li - lj, out=w, where=(li > tol) & (lj < -tol))
    R = _svec_basis_rotation(P)
    return (R * w[:, None, :]) @ R.swapaxes(1, 2)


def _packed_sym(A: np.ndarray) -> np.ndarray:
    """Packed upper triangles of the symmetric parts 0.5 (A + A^T) of a
    (k, p, p) stack, the entries SymMat keeps of each slice."""
    return upper_stack(0.5 * (A + A.swapaxes(1, 2)))


def _multipliers(ZV: np.ndarray, Pz: np.ndarray, p: int) -> np.ndarray:
    """Packed multipliers Y = z - Pi(z) of rows of svec z, given Pi(z)."""
    return ZV / svec_scale(p) - _packed_sym(Pz)


def _perturbation(pd: ProblemData, p1, p2):
    """The canonical perturbation as (p1 array, p2 SymMat); InputDataError
    unless p1 has n entries, p2 has order p and every entry is finite."""
    p1, p2 = _checked_vector(p1, pd.n, "p1"), _checked_order(pd, p2, "p2")
    if not (np.isfinite(p1).all() and math.isfinite(p2.max_abs())):
        raise InputDataError("perturbation entries must be finite")
    return p1, p2


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (k, m) array: one dot product per
    row, the sum np.linalg.norm takes of one vector."""
    return np.sqrt((A[:, None, :] @ A[:, :, None])[:, 0, 0])


def _residuals(kern: ProblemKernels, X: np.ndarray, ZV: np.ndarray):
    """Normal-map residual rows (Psi_1, svec Psi_2) of a stack of iterates,
    their norms, and the split (lam, P, Pi(z), D) kern.normal_map computed
    them from."""
    p = kern.p
    psi1, psi2, split = kern.normal_map(X, sym_mat_stack(ZV, p))
    R = np.concatenate([psi1, svec_stack(psi2.reshape(len(X), p, p))], axis=1)
    return R, _row_norms(R), split


def _newton_elements(kern: ProblemKernels, ZV: np.ndarray, split) -> np.ndarray:
    """Semismooth Newton elements of the normal map at a stack of iterates.

    ZV holds the svec z of the iterates and split the split (lam, P, Pi(z),
    D) that their residual evaluation returned; it gives the frames, the
    multipliers Y = z - Pi(z), the projection elements and the Jacobian
    stack of G at x. The blocks are the Lagrangian Hessians, the svec
    constraint Jacobians and the projection elements, shape
    (k, n + m, n + m).
    """
    n, p = kern.n, kern.p
    m = p * (p + 1) // 2
    lam, P, Pz, D = split
    Y = sym_mat_stack(ZV - svec_stack(Pz), p)
    Dsv = svec_stack(D.reshape(len(ZV), n, p, p))
    JP = _projection_jacobian(lam, P)
    J = np.empty((len(ZV), n + m, n + m))
    J[:, :n, :n] = kern.hessians(Y)
    J[:, :n, n:] = Dsv @ (np.eye(m) - JP)
    J[:, n:, :n] = Dsv.swapaxes(1, 2)
    J[:, n:, n:] = -JP
    return J


def _backtracks(kern: ProblemKernels, Xb, Zb, RNb, db):
    """Armijo backtracking of the starts whose full Newton step failed.

    Start i searches from (Xb[i], Zb[i]) at residual RNb[i] along db[i]
    and accepts the first t = 2^-j, j = 1 ... BACKTRACKS - 1, whose
    residual is at most (1 - 1e-4 t) RNb[i]. The halvings run in doubling
    blocks, j = 1, then 2-3, 4-7, 8-15 and so on: each block is one
    stacked residual evaluation over the starts still searching times the
    steps of the block, and each start keeps its first accepted t, so the
    outcome is that of halving one step at a time. Yields per block the
    accepted starts (positions in Xb), the evaluated stack (X, svec z,
    residual rows, norms and split) and the row of that stack each
    accepted start takes. A start never yielded found no step.
    """
    n = kern.n
    live = np.arange(len(Xb))
    j0 = 1
    while live.size and j0 < BACKTRACKS:
        j1 = min(2 * j0, BACKTRACKS)
        t = 0.5 ** np.arange(j0, j1)
        Xs = (Xb[:, None] + t[:, None] * db[:, None, :n]).reshape(-1, n)
        Zs = (Zb[:, None] + t[:, None] * db[:, None, n:]).reshape(-1, Zb.shape[1])
        Rs, RNs, split = _residuals(kern, Xs, Zs)
        ok = RNs.reshape(-1, t.size) <= (1.0 - 1e-4 * t) * RNb[:, None]
        hit = ok.any(axis=1)
        if hit.any():
            h, rest = hit.nonzero()[0], (~hit).nonzero()[0]
            yield live.take(h), (Xs, Zs, Rs, RNs, *split), h * t.size + ok.argmax(axis=1).take(h)
            live, Xb, Zb, RNb, db = (A.take(rest, 0) for A in (live, Xb, Zb, RNb, db))
        j0 = j1


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


def _certify(kern: ProblemKernels, p1, p2, X, ZV, Pz, steps, tol_cert) -> list:
    """Certify a stack of roots at their canonical splitting points.

    Row i has the iterate (X[i], svec z ZV[i]), Pi(z) in Pz[i] and its
    step count. Its multiplier is Y = z - Pi(z) and its residual the
    normal-map norm at (x, G(x) + Y), all rows in one stacked pass with
    the packing SymMat applies; the norms of Psi_1 and of the full
    symmetric Psi_2 are stacked too. Returns a PerturbationSample per row
    whose residual is at most tol_cert and a ConvergenceError per other
    row.
    """
    p = kern.p
    Y = _multipliers(ZV, Pz, p)
    Zc = (_packed_sym(kern.G(X)) + Y).take(packing_tables(p).gather, 1).reshape(len(X), p, p)
    psi1, psi2, _ = kern.normal_map(X, Zc)
    norms = zip(_row_norms(psi1).tolist(), _row_norms(psi2.take(packing_tables(p).mirror, 1)).tolist())
    out = []
    for x, y, count, (r1, r2) in zip(X, Y, steps, norms):
        res = math.hypot(r1, r2)
        sample = PerturbationSample(p1, p2, x, SymMat._from_packed(p, y), int(count), res)
        if not (res <= tol_cert):
            sample = ConvergenceError(
                f"root failed certification: residual {res:.3e}", best=sample, residual=res
            )
        out.append(sample)
    return out


def solve_perturbed_starts(pd: ProblemData, p1, p2, starts) -> list:
    """Track KKT roots of the canonically perturbed problem from k starts.

    starts lists (x, z) pairs. Checks the perturbation and the starts,
    packs the starts as one stack and solves it with _solve_stack on the
    kernels of the shifted problem. Returns, in start order, a
    PerturbationSample per certified root and a ConvergenceError (carrying
    the best iterate) per stagnated start; each start gets bit for bit
    what it gets alone. InputDataError unless p1 has n entries, p2 and
    every z order p and every x n entries, or if an entry of the
    perturbation or an iterate is not finite.
    """
    p1, p2 = _perturbation(pd, p1, p2)
    k, m = len(starts), pd.p * (pd.p + 1) // 2
    X = np.array([_checked_vector(x, pd.n, f"x of start {i}") for i, (x, _) in enumerate(starts)]).reshape(k, pd.n)
    ZV = np.array([sym_vec(_checked_order(pd, z, f"z of start {i}")) for i, (_, z) in enumerate(starts)]).reshape(k, m)
    return _solve_stack(ProblemKernels(shifted_problem(pd, p1, p2)), p1, p2, X, ZV)


def _solve_stack(kern: ProblemKernels, p1: np.ndarray, p2: SymMat, X: np.ndarray, ZV: np.ndarray) -> list:
    """Track KKT roots of the perturbed problem whose shifted data kern
    evaluates, from the starts (X[i], svec z ZV[i]).

    The semismooth Newton iteration on the normal-map system runs all
    starts in lockstep as one (k, n + p(p+1)/2) stack of (x, svec z)
    iterates; the kernels (problem.ProblemKernels, built once by the
    caller) are shared by the Newton steps, the line search, the fallback
    and the certification. Each residual evaluation is one normal_map
    call over a stack of iterates, which also returns the eigensolve of z
    and the Jacobian stack of G at x it made; both are kept per start next
    to the residual, so each step builds the Newton elements of the live
    starts without a new eigensolve or Jacobian and solves them in one
    batched solve, with a masked batch around any singular element, whose
    step is taken by least squares. The svec rows are packed by
    symmat.svec_stack and unpacked by symmat.sym_mat_stack, so every row
    is laid out alike in any stack.

    The live starts are kept as one compact stack, gathered again only
    when a start leaves it. The first line-search round of a step tries
    the full step on that stack directly. The starts it rejects search
    the halvings t = 2^-j, j = 1 ... BACKTRACKS - 1, in doubling blocks
    (j = 1, 2-3, 4-7, 8-15, 16-19): one residual call per block over the
    starts still searching times the block's steps, each start keeping
    its first accepted t, so every outcome is that of halving one step at
    a time. Every start keeps its own control flow: its line search, its
    stop at residual RESIDUAL_TOL * scale, or once it is certifiable
    (CERT_FACTOR * scale) and a step no longer halves it, and its handoff
    to the fallback. A start whose line search fails uncertified, or that
    spends NEWTON_STEPS steps, goes on alone through a
    Levenberg-Marquardt fallback on the same kernels at k = 1. The roots
    of all starts are then certified together at their canonical
    splitting points in one stacked pass. Returns, in start order, a
    PerturbationSample per certified root and a ConvergenceError per
    stagnated start; a row's outcome does not depend on the other rows.
    X and ZV are not changed.
    """
    n, p = kern.n, kern.p
    m = p * (p + 1) // 2
    k = len(X)
    X, ZV = X.copy(), ZV.copy()

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
        split = tuple(A[i : i + 1] for A in (LAM, PF, PZ, DJ))
        eye = np.eye(n + m)
        for _ in range(LM_STEPS):
            J = _newton_elements(kern, u[None, n:], split)[0]
            g = J.T @ r
            A = J.T @ J
            while lam <= 1e12:
                try:
                    delta = np.linalg.solve(A + lam * eye, -g)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                un = u + delta
                r_new, rn_new, split_new = _residuals(kern, un[None, :n], un[None, n:])
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
        LAM[i], PF[i], PZ[i], DJ[i] = (a[0] for a in split)

    out = [None] * k
    steps = np.zeros(k, dtype=int)
    R, RN, (LAM, PF, PZ, DJ) = _residuals(kern, X, ZV)
    state = (X, ZV, R, RN, LAM, PF, PZ, DJ, steps)
    certify = ~(RN > tol_stop)
    fallback = []
    # the live starts a hold their state as one compact stack, gathered
    # again only when a start leaves it
    a = (~certify).nonzero()[0]
    stack = [A.take(a, 0) for A in state]
    while a.size:
        Xa, Za, Ra, RNa, *split, Sa = stack
        delta = _newton_directions(_newton_elements(kern, Za, split), -Ra)
        # the first round tries the full step on the whole stack; the
        # starts it rejects backtrack in blocks of halvings
        Xt, Zt = Xa + delta[:, :n], Za + delta[:, n:]
        Rt, RNt, split_t = _residuals(kern, Xt, Zt)
        St = Sa + 1
        trial = [Xt, Zt, Rt, RNt, *split_t, St]
        searching = ~(RNt <= (1.0 - 1e-4) * RNa)
        if np.count_nonzero(searching):
            b = searching.nonzero()[0]
            for found, evaluated, src in _backtracks(
                kern, *(A.take(b, 0) for A in (Xa, Za, RNa, delta))
            ):
                rows = b.take(found)
                for T, S in zip(trial, evaluated):
                    T[rows] = S.take(src, 0)
                searching[rows] = False
            # a start whose line search failed keeps its iterate and leaves:
            # nothing changed, so a retry would repeat the same search
            if np.count_nonzero(searching):
                b = searching.nonzero()[0]
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
        for i, o in zip(c, _certify(kern, p1, p2, X[c], ZV[c], PZ[c], steps[c], tol_cert)):
            out[i] = o
    return out


def _jitter_draws(rng, n: int, p: int):
    """The JITTER_STARTS jitters of one schedule point from one block draw:
    per start its multiplier noise (p, p), then its x noise (n,), the
    stream and order of one draw after another. Returns the noise stacks
    of shape (JITTER_STARTS, p, p) and (JITTER_STARTS, n)."""
    W = rng.standard_normal((JITTER_STARTS, p * p + n))
    return W[:, : p * p].reshape(JITTER_STARTS, p, p), W[:, p * p :]


def fit_order_exponent(pairs):
    """Log-log slope of deviation against parameter, with its stderr.

    Only pairs whose parameter and deviation are both finite and positive
    count. The slope needs two distinct parameters; with fewer, InputDataError.
    """
    pts = [(float(s), float(v)) for s, v in pairs if 0.0 < s < math.inf and 0.0 < v < math.inf]
    if len({s for s, _ in pts}) < 2:
        raise InputDataError("need positive (parameter, deviation) pairs at two distinct parameters")
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


def error_bound_experiment(family: PerturbationFamily, schedule, *, seed: int = 42):
    """Sweep a perturbation schedule and collect distance ratios.

    Solves are warm-started by continuation along the schedule; at each
    parameter the continuation start and JITTER_STARTS jittered starts
    (drawn as one block: per start its multiplier noise, then its x noise)
    are assembled as one stack of arrays, x0 and svec(G(x0) + Y0), and
    solved in lockstep by one _solve_stack call on the one kernel set of
    the shifted problem, and the certified root closest to the reference
    point is kept. A parameter where no start certifies is dropped and
    named in excluded_params. seed seeds the jitter.
    """
    rng = np.random.default_rng(seed)
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

    # an overflow in a point's arithmetic is decided by the finiteness
    # checks and the dropped-point rule, not reported as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for s in schedule:
            p1, p2 = _perturbation(pd, *family.perturbation(float(s)))
            pnorm = float(np.linalg.norm(p1)) + p2.norm()
            kern = ProblemKernels(shifted_problem(pd, p1, p2))
            delta = 0.5 * max(
                float(np.max(np.abs(prev_x - xbar))) if n else 0.0,
                math.sqrt(pnorm),
                1e-8,
            )
            # the continuation start, then the jittered ones: x0 and z0 = G(x0) + Y0
            M, dx = _jitter_draws(rng, n, p)
            X0 = np.vstack([prev_x, prev_x + delta * dx])
            Y0 = np.vstack([prev_Y._upper, prev_Y._upper + delta * _packed_sym(M)])
            outcomes = _solve_stack(kern, p1, p2, X0, (_packed_sym(kern.G(X0)) + Y0) * svec_scale(p))
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
    gets its own row under the key "eq89". InputDataError without a
    direction of order p or two distinct schedule values, the least a fit
    needs.
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
    if np.unique(schedule).size < 2:
        raise InputDataError(f"the schedule needs two distinct values, got {schedule.tolist()}")
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
    if not dirs or any(M.shape != Ab.shape for M in dirs):
        raise InputDataError(f"samples must give at least one direction, each of order {p}")

    idx = dict(zip(("alpha", "beta", "gamma"), d.slices))
    sa, _, sg = d.slices
    names = [name for name, _, ri, ci, _ in _BLOCK_SPECS if Ab[idx[ri], idx[ci]].size]
    if d.curvature.size:
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
                block = (Xt if side == "X" else Yt)[idx[ri], idx[ci]]
                key = kind if kind in ("min", "product") else f"linear_{side}"
                rows[name].append((float(s), float(np.linalg.norm(block)), pred[key]))
            if "eq89" in rows:
                R = Yt[sa, sg] + d.curvature.T * Xt[sa, sg]
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
            if len({s for s, _ in pos}) >= 2:
                e, se = fit_order_exponent(pos)
                exps.append(e)
                errs.append(se)
            ppos = [(t[2], t[1]) for t in triples if t[1] > 1e-14 * base_scale and t[2] > 0]
            if len({s for s, _ in ppos}) >= 2:
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
    return {
        "soscy_verdict": soscy.verdict,
        "verdict_91": report.verdict_91,
        "rows": rows,
        "consistent": not (soscy.verdict == SOSCY_HOLDS and report.verdict_91 == "diverging"),
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
