"""Exact Gysin pushforwards for projectivized vector bundles.

The pushforward along P(V) -> M is the sum of restrictions over the torus
fixed points of the fiber, divided by equivariant Euler classes.  Its
Chern-class form is computed by the closed form of that sum over the Segre
series, and checked against the sum itself evaluated exactly at one integer
point per rank; ``localize`` reads the closed form in the roots.  All
arithmetic is exact over the rationals, and every result can be
cross-checked against two independent classical descriptions of the map.
"""

from .errors import (
    ArityError,
    ExponentError,
    GradingError,
    NotDivisibleError,
    NotInvertibleError,
    ParseError,
    PushkitError,
    SymmetryError,
    TableMismatchError,
    UnboundVariableError,
    UnsupportedVariableError,
)
from .polyring import (
    Monomial,
    Polynomial,
    VariableTable,
    divide_exact_linear,
    series_inverse,
)
from .symfun import (
    elementary_symmetric,
    expand_elementary,
    is_symmetric,
    reduce_to_elementary,
    root_generators,
)
from .localization import (
    FixedPointChart,
    LocalizationResult,
    bundle_ring,
    fixed_point_charts,
    localize,
)
from .gysin import (
    ClassExpr,
    PushforwardResult,
    VerificationCheck,
    VerificationReport,
    presentation_oracle,
    pushforward,
    segre_oracle,
    verify_classical,
)
from .expressions import ExprAst, elaborate, parse_expression

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "ClassExpr",
    "ExponentError",
    "ExprAst",
    "FixedPointChart",
    "GradingError",
    "LocalizationResult",
    "Monomial",
    "NotDivisibleError",
    "NotInvertibleError",
    "ParseError",
    "Polynomial",
    "PushforwardResult",
    "PushkitError",
    "SymmetryError",
    "TableMismatchError",
    "UnboundVariableError",
    "UnsupportedVariableError",
    "VariableTable",
    "VerificationCheck",
    "VerificationReport",
    "bundle_ring",
    "divide_exact_linear",
    "elaborate",
    "elementary_symmetric",
    "expand_elementary",
    "fixed_point_charts",
    "is_symmetric",
    "localize",
    "parse_expression",
    "presentation_oracle",
    "pushforward",
    "reduce_to_elementary",
    "root_generators",
    "segre_oracle",
    "series_inverse",
    "verify_classical",
]
