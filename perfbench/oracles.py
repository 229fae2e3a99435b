"""Answer checks. Each returns a list of problems; an empty list passes.

They run outside every operation's timed region and are pure functions
of an operation's output plus the oracle answers made during set-up, so
the benchmark's own tests can feed them seeded bad answers.
"""

from __future__ import annotations

ORDER_TOL = 0.05
WITNESS_TOL = 1e-7
PATH_TOL = 1e-6


def check_analyze(doc, expected_tag, membership=None, form_value=None, tol_pos=1e-8):
    """Full analyze report of a diagonal pair.

    expected_tag is the scalar-reduction verdict; membership and
    form_value are the re-evaluated critical-cone membership and
    second-order form at the reported minimizer (needed when the report
    says SOSCy_fails).
    """
    problems = []
    tag = doc["criticality"]["tag"]
    verdict = doc["soscy"]["verdict"]
    if tag != expected_tag:
        problems.append(f"tag {tag} != scalar-reduction tag {expected_tag}")
    if verdict == "SOSCy_holds" and tag == "Critical":
        problems.append("SOSCy_holds reported together with a Critical multiplier")
    if verdict == "SOSCy_fails":
        if membership is None or not membership:
            problems.append("SOSCy_fails minimizer is outside the critical cone")
        if form_value is None or form_value > tol_pos:
            problems.append(f"SOSCy_fails minimizer has form value {form_value} > {tol_pos}")
    return problems


def check_family(doc, name):
    """Both builtin families are noncritical with sufficiency holding."""
    problems = []
    tag = doc["criticality"]["tag"]
    verdict = doc["soscy"]["verdict"]
    if tag != "Noncritical":
        problems.append(f"{name}: tag {tag}, expected Noncritical")
    if verdict != "SOSCy_holds":
        problems.append(f"{name}: SOSC verdict {verdict}, expected SOSCy_holds")
    return problems


def check_classification(tag, expected_tag=None, witness_res=None):
    """Library-level classification of a rotated or coupled pair.

    expected_tag is given for rotated pairs (scalar reduction of the
    unrotated problem); witness_res is the re-evaluated residual of a
    Critical verdict's witness.
    """
    problems = []
    if expected_tag is not None and tag != expected_tag:
        problems.append(f"tag {tag} != unrotated scalar-reduction tag {expected_tag}")
    if tag == "Critical" and (witness_res is None or not witness_res <= WITNESS_TOL):
        problems.append(f"Critical witness residual {witness_res} > {WITNESS_TOL}")
    return problems


def check_sweep(doc, theory=None, reference=None, points=None):
    """Perturbation sweep report.

    theory: expected order of the primal drift; reference: closed-form
    |x(t) - xbar| per schedule point; points: schedule length requested.
    """
    problems = []
    if doc["excluded"]:
        problems.append(f"{doc['excluded']} excluded schedule points")
    if points is not None and len(doc["samples"]) != points:
        problems.append(f"{len(doc['samples'])} certified points, expected {points}")
    if theory is not None:
        exponent = doc["exponent_fit"]["exponent"]
        if exponent is None or not abs(exponent - theory) <= ORDER_TOL:
            problems.append(f"fitted order {exponent} is not within {ORDER_TOL} of {theory:.4f}")
    if reference is not None:
        devs = [s["x_dev"] for s in doc["samples"]]
        worst = max((abs(a - b) for a, b in zip(devs, reference)), default=0.0)
        if len(devs) != len(reference) or not worst <= PATH_TOL:
            problems.append(f"x_dev is {worst:.3e} from the closed-form path")
    return problems


def exponent_error(doc, theory):
    exponent = doc["exponent_fit"]["exponent"]
    return float("inf") if exponent is None else abs(exponent - theory)
