"""Exact construction of rational functions with prescribed dicritical divisors
on towers of admissible blow-ups, with symbolic verification on charts."""

from .candidates import Bindings, build_last, build_profile, build_single, build_support, mobius
from .charts import (
    BlowupStep,
    ChartTower,
    LineClassSpec,
    Restriction,
    ShearStep,
    Status,
    dicritical_degree,
    dicritical_status,
    divisor_order,
    restrict,
)
from .descriptor import (
    Center,
    ModificationDescriptor,
    SpecialRow,
    TailData,
    ValuationMatrix,
    default_curvette_mults,
    inverse_orders,
    leading_principal_minors,
    low_sets,
    make_descriptor,
    pullback_orders,
    special_matrix,
    validate_descriptor,
    valuation_matrix,
)
from .errors import (
    BoundViolation,
    ChartError,
    DescriptorError,
    DicriticalError,
    GenericityError,
    MatrixError,
    PolynomialError,
    ScenarioError,
    SolverError,
)
from .linalg import bareiss_determinant, leading_minors, solve_row_system
from .poly import Polynomial, polynomial_gcd
from .ratfunc import LeafQuotient, Quotient, RationalFunction
from .solver import (
    LastDicriticalCertificate,
    LinearForm,
    ProfileCertificate,
    SingleDicriticalCertificate,
    SupportCertificate,
    aux_order_bounds,
    combine_profile,
    solve_last_dicritical,
    solve_single_dicritical,
    solve_support,
)

__version__ = "0.1.0"
