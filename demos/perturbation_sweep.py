"""Empirical error bounds under canonical perturbations.

Each built-in family carries a perturbation of its data parametrized by
a scalar magnitude. Sweeping the magnitude down a geometric schedule
and solving each perturbed KKT system measures how fast the primal and
dual solutions drift, and whether the drift is controlled by the
perturbation size alone or needs the multiplier drift as well.
"""

import numpy as np

from kkt_spectra import (
    SymMat,
    builtin_family,
    error_bound_experiment,
    fit_order_exponent,
    report_to_csv,
    shifted_problem,
    solve_perturbed_starts,
)
from kkt_spectra.problem import ProblemKernels

schedule = np.geomspace(1e-2, 1e-5, 13)

# The well-behaved family first: primal drift of order sqrt(magnitude),
# both ratio series bounded.
fam = builtin_family("example3")
rep = error_bound_experiment(fam, schedule)
print("example3 ratio verdicts:", rep.verdict_101, "/", rep.verdict_91)
e, se = fit_order_exponent(list(zip(rep.schedule, rep.deviations)))
print(f"example3 drift order: {e:.4f} (stderr {se:.1g})")

# The degenerate family: the multiplier has a zero eigenvalue matched
# with a zero constraint eigenvalue, and the primal drift is of order
# magnitude^(2/3). Dividing by the magnitude alone diverges; charging
# the multiplier drift restores boundedness.
fam2 = builtin_family("example2")
rep2 = error_bound_experiment(fam2, schedule)
print("example2 ratio verdicts:", rep2.verdict_101, "/", rep2.verdict_91)
e2, _ = fit_order_exponent(list(zip(rep2.schedule, rep2.deviations)))
print(f"example2 drift order: {e2:.4f} (expected 2/3)")

print("magnitude        dist/pert         dist/(pert+dual)")
for s, r1, r2 in zip(rep2.schedule, rep2.ratios_101, rep2.ratios_91):
    print(f"{s:9.3e}   {r1:14.6f}   {r2:14.6f}")

# The sweep can be exported for plotting.
with open("example2_sweep.csv", "w") as fh:
    fh.write(report_to_csv(rep2))
print("wrote example2_sweep.csv")

# Individual solves are available directly. solve_perturbed_starts runs
# a list of (x, z) starts in lockstep, z = G(x) + Y on the perturbed
# data, and returns per start the certified pair with its iteration
# diagnostics, or the ConvergenceError that carries its best iterate.
# Here one cold start: x = 0 with a zero multiplier, so z = G(0).
p1, p2 = fam2.perturbation(1e-4)
x0 = np.zeros(2)
z0 = SymMat(ProblemKernels(shifted_problem(fam2.problem, p1, p2)).G(x0))
(sol,) = solve_perturbed_starts(fam2.problem, p1, p2, [(x0, z0)])
print("single solve at 1e-4: x =", sol.x, " iters =", sol.newton_iters)
