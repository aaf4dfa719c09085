"""Intermediate-ring lattices of finite algebra extensions over GF(q)."""

__version__ = "0.1.0"

from .algebra import (  # noqa: F401
    Algebra,
    AlgebraError,
    Extension,
    Ideal,
    InternalInvariantError,
    LocalDecomposition,
    Subalgebra,
    base_algebra,
    conductor,
    frobenius,
    generated_subalgebra,
    local_decomposition,
    localize_extension,
    make_poly_quotient,
    make_product,
    module_length,
    nilradical,
    quotient,
    support,
)
from .analysis import Analysis, BudgetExceeded  # noqa: F401
from .canonical import (  # noqa: F401
    CanonicalDecomposition,
    MinimalKind,
    ResidualExtension,
    canonical_decomposition,
    classify_minimal,
    cover_kind,
    crucial_ideal,
    is_infra_integral,
    is_subintegral,
    is_t_closed,
    lambda_invariant,
    length_additivity_check,
    seminormalization,
    t_closure,
    verify_chain_classification,
)
from .gen import GenSpec, random_extension  # noqa: F401
from .gfq import GF  # noqa: F401
from .lattice import (  # noqa: F401
    ExtensionLattice,
    brute_force_interval,
    check_distributivity,
    enumerate_interval,
    interval_length,
    is_arithmetic,
    is_chained,
    is_delta_extension,
    is_pinched_at,
    maximal_chains,
)
from .nagata import (  # noqa: F401
    NagataReport,
    SubintegralLocalData,
    filtration_data,
    filtration_conditions,
    nagata_has_fip,
    nagata_report,
)
