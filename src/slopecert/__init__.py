"""slopecert: exact certificates that rational surgery descriptions of
3-manifolds by knots are never unique.

For each rational slope p/q with p > 1 the package constructs a companion
positive braid cable knot, computes HOMFLYPT-derived invariants exactly,
and emits a machine-readable certificate that two explicitly described
knots share the p/q-surgery yet have different zeroth coefficient
polynomials.
"""

from .surgery import (
    GluingMatrix,
    SlopeParams,
    choose_params,
    dual_gluing,
    double_dual_gluing,
    induced_slopes,
)
from .braid import (
    BraidWord,
    bennequin_euler_char,
    cable_braid,
    cable_word,
    closure_components,
    torus_braid,
    total_linking,
)
from .homfly import (
    OracleBudgetError,
    gamma_linking_formula,
    gamma_positive,
    homfly_oracle,
    zeroth_gamma,
)
from .skein_tree import (
    closed_form_kb,
    closed_form_kg,
    difference,
    eval_tree,
    expand,
    format_tree,
    kb_root,
    kg_root,
)
from .certify import (
    Certificate,
    CertificateError,
    batch,
    certify_slope,
)

__version__ = "0.1.0"
