"""Classifying Lagrange multipliers as critical or noncritical.

A multiplier is critical when the linearized KKT system at the pair
admits a nonzero primal-dual direction that stays inside the graph of
the normal cone. Critical multipliers are the ones that slow Newton
methods down and break standard error bounds.
"""

from kkt_spectra import (
    SymMat,
    build_system,
    check_rcq,
    check_srcq,
    classify_multiplier,
    builtin_family,
    kkt_point,
    make_problem,
    witness_residual,
    xpart_condition,
)

# Built-in family with a rank-one multiplier at the origin. Both
# reference multipliers of the two families are noncritical; the
# classifier certifies this by exhausting the branch structure of the
# degenerate block.
fam = builtin_family("example3")
pair = kkt_point(fam.problem, fam.xbar, fam.ybar)
print("example3 residuals:", pair.residuals)
sys3 = build_system(fam.problem, pair)
v = classify_multiplier(sys3)
print("example3 verdict:", v.tag)
print("certificate:", v.certificate)

# The x-part condition isolates the primal component: if the rows that
# do not involve the dual direction already force xi = 0, no witness
# can exist regardless of the eta block.
print("x-part forces xi = 0:", xpart_condition(sys3)["holds"])

# Constraint qualifications. RCQ concerns the primal point only; the
# strict version also involves the multiplier and is stronger. For the
# degenerate family RCQ holds but the strict one fails, which is
# exactly the regime where criticality is informative.
deg = builtin_family("example2")
print("example2 RCQ:", check_rcq(deg.problem, deg.xbar))
print("example2 strict RCQ:", check_srcq(deg.problem, deg.xbar, deg.ybar))

# A minimal critical example: zero objective with G(x) = [x] at the
# origin. The KKT system is 0 = 0, so every scaled direction survives
# and the multiplier is critical.
pd = make_problem([0.0], [[0.0]], SymMat.zeros(1), [SymMat.eye(1)])
sys1 = build_system(pd, kkt_point(pd, [0.0], SymMat.zeros(1)))
v1 = classify_multiplier(sys1)
print("scalar example verdict:", v1.tag)
xi, eta = v1.witness
print("witness xi:", xi, " eta:", eta.full())

# Any verdict of criticality comes with a witness whose residual in the
# linearized system is numerically zero.
print("witness residual:", witness_residual(sys1, xi, eta))
