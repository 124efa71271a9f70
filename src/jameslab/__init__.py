"""Exact-arithmetic laboratory for James-space geometry.

Norms and dual functionals over Q(sqrt(2)), unconditional-constant
certificates, the atomic measure-space embedding with its product
matrix, bounded-fluctuation machinery, the fast-growing hierarchy, and
the end-to-end refutation pipeline.
"""

from .scalars import Root2Scalar
from .james_core import (
    Cycle,
    DualBallCertificate,
    DualFunctional,
    JVector,
    NormCertificate,
    ViolationWitness,
    canonical,
    chain_stability_check,
    coordinate_chain_check,
    cycle_value,
    dual_ball_sample,
    dual_norm_lower_bound,
    eval_functional,
    james_norm_sq,
    james_norm_sq_oracle,
    violation_to_witness,
)
from .basis_tools import (
    Basis,
    DualBasis,
    SignPattern,
    UCEstimate,
    modulus_functional,
    modulus_vector,
    ratio_sq,
    sign_align,
    uc_lower_bound,
)
from .measure_space import (
    MeasureSpaceModel,
    ProductMatrix,
    build,
    check_identities,
    integrate_over,
    pi,
    pi_star,
    product_matrix,
)
from .metastability import (
    IndexFunction,
    StableInterval,
    conclusion_search,
    count_fluctuations,
    find_stable_interval,
    fluctuation_harness,
    hypothesis_report,
)
from .hierarchy import (
    EvalBudget,
    HierarchyExpr,
    fgh_compare,
    fgh_eval,
    threshold_arg,
)

__all__ = [
    "Basis",
    "Cycle",
    "DualBallCertificate",
    "DualBasis",
    "DualFunctional",
    "EvalBudget",
    "HierarchyExpr",
    "IndexFunction",
    "JVector",
    "MeasureSpaceModel",
    "NormCertificate",
    "ProductMatrix",
    "Root2Scalar",
    "SignPattern",
    "StableInterval",
    "UCEstimate",
    "ViolationWitness",
    "build",
    "canonical",
    "chain_stability_check",
    "check_identities",
    "conclusion_search",
    "coordinate_chain_check",
    "count_fluctuations",
    "cycle_value",
    "dual_ball_sample",
    "dual_norm_lower_bound",
    "eval_functional",
    "fgh_compare",
    "fgh_eval",
    "find_stable_interval",
    "fluctuation_harness",
    "hypothesis_report",
    "integrate_over",
    "james_norm_sq",
    "james_norm_sq_oracle",
    "modulus_functional",
    "modulus_vector",
    "pi",
    "pi_star",
    "product_matrix",
    "ratio_sq",
    "sign_align",
    "threshold_arg",
    "uc_lower_bound",
    "violation_to_witness",
]
