"""The optional parameters of the package's exported functions."""

import inspect

import kkt_spectra

# every optional parameter some caller sets: the --tol-eig partition chain,
# the critical-cone membership tol that check_soscy and lemma4_check scale,
# and the inputs of the families and experiments; a tolerance no caller
# varies is a constant of its module instead
OPTIONAL_PARAMETERS = {
    ("analysis_context", "tol"),
    ("build_system", "tol"),
    ("cone_context_from_matrix", "tol_zero"),
    ("moreau_split", "tol_zero"),
    ("spectral_decompose", "tol_zero"),
    ("critical_cone_psd_membership", "tol"),
    ("critical_cone_nsd_membership", "tol"),
    ("builtin_family", "matrix"),
    ("example2_family", "A"),
    ("make_problem", "G_quad"),
    ("error_bound_experiment", "seed"),
    ("lemma6_order_check", "samples"),
    ("lemma6_order_check", "seed"),
    ("lemma6_order_check", "schedule"),
}


def test_exported_functions_have_only_the_optional_parameters_callers_set():
    found = {
        (name, param.name)
        for name, obj in vars(kkt_spectra).items()
        if inspect.isfunction(obj)
        for param in inspect.signature(obj).parameters.values()
        if param.default is not inspect.Parameter.empty
    }
    assert found == OPTIONAL_PARAMETERS
