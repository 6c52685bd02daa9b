"""Discrete weak-dependence laws, integral-equation functionals,
adversarial law sequences, and confidence-set coverage experiments."""

from types import ModuleType as _ModuleType

from .laws import (
    DiscreteLaw,
    SupportSpec,
    estimate,
    law_from_dict,
    law_to_dict,
    marginal,
    sample,
    tv_distance,
    validate,
)
from .functionals import (
    FunctionalSpec,
    ModelReport,
    NoSolution,
    check_model_membership,
    cond_mean_operator,
    evaluate_phi,
    response_vector,
    riesz_alpha,
    solve_g,
    solve_q,
)
from .adversarial import (
    AdversarialSequence,
    BaseLawSpec,
    PerturbationParams,
    build_M,
    closed_form_phi,
    default_params,
    gamma_for_target,
    generate_sequence,
    perturb_kernels,
    sherman_morrison_inverse,
)
from .confsets import (
    Interval,
    binary_union_estimand,
    binary_union_set,
    normal_quantile,
    score_invert_late,
    wald_ci,
)
from .simulate import (
    CoverageReport,
    ExperimentPlan,
    LawCase,
    MethodConfig,
    run,
    wilson_interval,
)

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
