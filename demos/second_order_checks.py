"""Second-order sufficiency over the critical cone.

The check minimizes the Lagrangian-Hessian quadratic form, corrected by
the cone curvature term, over unit-norm directions in the critical
cone of the primal point. A strictly positive minimum certifies a local
error bound; a zero minimum attained at a feasible direction refutes
strictness while the necessary condition may still hold.
"""

import numpy as np

from kkt_spectra import (
    SymMat,
    build_system,
    builtin_family,
    check_soscy,
    cone_context,
    kkt_point,
    make_problem,
    sigma_term,
    theorem3_conditions,
)

# The curvature correction. For a constraint value X and multiplier Y,
# directions H in the critical cone pick up the extra term
# 2 <Y, H X^+ H>, which is nonpositive and vanishes when Y = 0.
X = SymMat.diag([2.0, 0.0])
Y = SymMat.diag([0.0, -3.0])
ctx = cone_context(X, Y)
H = SymMat(np.array([[0.0, 1.0], [1.0, 0.0]]))
print("sigma term for an off-diagonal direction:", sigma_term(ctx, H))
print("sigma term with zero multiplier:", sigma_term(cone_context(X, SymMat.zeros(2)), H))

# The checks below take the analysis context of a certified KKT pair,
# which fixes one eigenvalue partition for every check of that pair.
def context(pd, x, Y):
    return build_system(pd, kkt_point(pd, x, Y))


# Both built-in families satisfy the sufficient condition. The solver
# reports which path decided it: a subspace cone, a halfspace section
# and a polyhedral cone (commuting degenerate blocks, settled face by
# face) are handled exactly; non-commuting blocks take an S-procedure
# lower bound, which the S-lemma makes exact for a 2x2 block.
for name in ("example3", "example2"):
    fam = builtin_family(name)
    r = check_soscy(context(fam.problem, fam.xbar, fam.ybar))
    print(
        f"{name}: {r.verdict}  min {r.min_value:.6g}  via {r.search_stats['path']!r}"
    )

# A failing case: zero objective, scalar constraint. The form vanishes
# on the whole cone, so sufficiency fails while the necessary condition
# (nonnegativity) still holds.
pd = make_problem([0.0], [[0.0]], SymMat.zeros(1), [SymMat.eye(1)])
r = check_soscy(context(pd, [0.0], SymMat.zeros(1)))
print("degenerate scalar case:", r.verdict, " necessary condition:", r.sonc_verdict)
print("minimum", r.min_value, "attained at", r.minimizer)

# An indefinite case decided by the S-procedure path: the form 4 d1 d2
# is negative inside the cone. The bound max over mu >= 0 of
# lambda_min(Q - mu K), with K the determinant form of the 2x2 block,
# equals the minimum here, and a direction re-verified in the cone
# attains it.
pd_ind = make_problem(
    [0.0, 0.0],
    [[0.0, 2.0], [2.0, 0.0]],
    SymMat.zeros(2),
    [SymMat.diag([1.0, 0.0]), SymMat([[0.0, 1.0], [1.0, 2.0]])],
)
r = check_soscy(context(pd_ind, [0.0, 0.0], SymMat.zeros(2)))
print(f"indefinite case: {r.verdict}  min {r.min_value:.3g}  lower bound {r.search_stats['lower_bound']:.3g}")

# Conditions for a local error bound around the primal point: closed
# adjoint image plus an orthogonality property of projected pairs. Both
# are decided without sampling: the first by exact special cases and a
# kernel test (Rockafellar, Thm 9.1) that may leave it Undetermined, the
# second by Moreau's decomposition, with evidence saying whether it
# holds vacuously.
fam = builtin_family("example3")
t3 = theorem3_conditions(context(fam.problem, fam.xbar, fam.ybar))
for key, row in t3.items():
    print(key, row["verdict"], {k: v for k, v in row.items() if k != "verdict"})
