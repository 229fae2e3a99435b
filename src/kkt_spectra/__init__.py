"""KKT-point analysis for nonlinear semidefinite programs.

Core capabilities: spectral calculus on the PSD cone, variational cone
geometry, multiplier criticality classification, second-order condition
checks, and empirical error-bound experiments under canonical
perturbations.
"""

from .errors import ConvergenceError, InputDataError, KKTSpectraError, NumericError
from .symmat import (
    SpectralDecomp,
    SymMat,
    as_symmat,
    dir_deriv_projection,
    jacobi_eigh,
    moreau_split,
    project_psd,
    pseudoinverse,
    spectral_decompose,
    sym_mat,
    sym_vec,
)
from .cones import (
    ConeContext,
    cone_context,
    cone_context_from_matrix,
    critical_cone_nsd_membership,
    critical_cone_psd_membership,
    graph_tangent_membership,
    is_normal_cone_polyhedral,
    normal_membership,
    project_critical_cone,
    project_critical_cone_polar,
    strict_complementarity,
    tangent_membership,
)
from .problem import (
    FAMILY_NAMES,
    KKTPoint,
    PerturbationFamily,
    ProblemData,
    builtin_family,
    example2_family,
    example3_family,
    kkt_point,
    load_point,
    load_problem,
    make_problem,
    problem_from_dict,
    problem_to_dict,
    shifted_problem,
)
from .criticality import (
    CriticalitySystem,
    CriticalityVerdict,
    NLPSystem,
    analysis_context,
    build_system,
    check_rcq,
    check_srcq,
    classify_multiplier,
    classify_nlp,
    diagonal_reduction,
    rcq_holds,
    srcq_holds,
    witness_residual,
    xpart_condition,
)
from .sosc import (
    SecondOrderReport,
    check_soscy,
    critical_cone_x_membership,
    evaluate_second_order_form,
    lemma4_check,
    multiplier_distance_estimate,
    sigma_term,
    theorem3_conditions,
)
from .perturb import (
    ErrorBoundReport,
    PerturbationSample,
    error_bound_experiment,
    fit_order_exponent,
    lemma6_order_check,
    report_to_csv,
    report_to_dict,
    solve_perturbed_starts,
    xpart_bound_check,
)

__version__ = "0.1.0"
