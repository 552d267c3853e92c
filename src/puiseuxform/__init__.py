"""Exact Newton-polygon analysis and Puiseux branch expansion for plane 1-forms.

The package works with a singular differential 1-form w = a dx + b dy,
where a and b are polynomials with exact rational coefficients.  It
builds the Newton polygon of the form, expands the invariant branches
y = Gamma(x) term by term with exact arithmetic, counts their Puiseux
(characteristic) exponents, and verifies the bound

    number of Puiseux exponents <= y-order <= multiplicity.
"""

from .algebra import (
    INFINITY,
    OneForm,
    PuiseuxPoly,
    differential,
    order,
    rat_str,
    transform_form,
)
from .expansion import (
    BoundReport,
    BranchStep,
    CheckOutcome,
    ExpansionResult,
    LemmaReport,
    Limits,
    PuiseuxBranch,
    StepLemmaReport,
    TraceStep,
    admissible_steps,
    characteristic_poly,
    expand_branches,
    invariance_residual,
    lemma_checks,
    rational_roots,
    series_text,
    verify_bound,
)
from .oracle import (
    STANDARD_SIGNATURES,
    GeneratedCase,
    branch_to_curve,
    gen_case,
)
from .polygon import (
    CloudPoint,
    MalformedFormError,
    NewtonPolygon,
    Side,
    SupportContact,
    cloud,
    multiplicity,
    polygon_of,
    support,
    y_order,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "OneForm",
    "PuiseuxPoly",
    "differential",
    "order",
    "rat_str",
    "transform_form",
    "BoundReport",
    "BranchStep",
    "CheckOutcome",
    "ExpansionResult",
    "LemmaReport",
    "Limits",
    "PuiseuxBranch",
    "StepLemmaReport",
    "TraceStep",
    "admissible_steps",
    "characteristic_poly",
    "expand_branches",
    "invariance_residual",
    "lemma_checks",
    "rational_roots",
    "series_text",
    "verify_bound",
    "STANDARD_SIGNATURES",
    "GeneratedCase",
    "branch_to_curve",
    "gen_case",
    "CloudPoint",
    "MalformedFormError",
    "NewtonPolygon",
    "Side",
    "SupportContact",
    "cloud",
    "multiplicity",
    "polygon_of",
    "support",
    "y_order",
    "__version__",
]
