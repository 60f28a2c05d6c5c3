"""Exact computation of order-ell Dirichlet L-functions over F_q(t), zeta
functions of superelliptic curves, central-point vanishing tests, vanishing
families via dominant maps, and squarefree sieve densities."""

from .census import family_experiment, run_census, seed_check
from .characters import DirichletChar, char_from_model, count_order_ell_exact
from .curves import (
    SuperellipticModel,
    ZetaNum,
    base_change,
    count_points,
    find_central_extension,
    genus,
    has_central_eigenvalue,
    is_supersingular_np,
    numerator_divides,
    zeta_numerator,
)
from .cyclo import CycInt, conjugate, mu_embed
from .density import empirical_density, excluded_primes, local_factor, truncated_density
from .errors import (
    InputError,
    InvariantViolation,
    ResourceLimit,
    SuperellError,
)
from .families import (
    BinaryForm,
    RationalMap,
    generate_family,
    homogenize,
)
from .ffield import Field, FieldElem, extend_field, make_field, primitive_root
from .lfunction import (
    LPoly,
    central_value_is_zero,
    l_polynomial,
    strip_trivial_factor,
)
from .oracle import (
    MuValue,
    count_all_primitive,
    enumerate_order_ell,
    genus_bound_degree,
    residue_symbol,
    specialize,
)
from .polyring import Factorization, Poly, factor, irreducibles, is_squarefree

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "CycInt",
    "DirichletChar",
    "Factorization",
    "Field",
    "FieldElem",
    "InputError",
    "InvariantViolation",
    "LPoly",
    "MuValue",
    "Poly",
    "RationalMap",
    "ResourceLimit",
    "SuperellError",
    "SuperellipticModel",
    "ZetaNum",
    "base_change",
    "central_value_is_zero",
    "char_from_model",
    "conjugate",
    "count_all_primitive",
    "count_order_ell_exact",
    "count_points",
    "empirical_density",
    "enumerate_order_ell",
    "excluded_primes",
    "extend_field",
    "factor",
    "family_experiment",
    "find_central_extension",
    "generate_family",
    "genus",
    "genus_bound_degree",
    "has_central_eigenvalue",
    "homogenize",
    "irreducibles",
    "is_squarefree",
    "is_supersingular_np",
    "l_polynomial",
    "local_factor",
    "make_field",
    "mu_embed",
    "numerator_divides",
    "primitive_root",
    "residue_symbol",
    "run_census",
    "seed_check",
    "specialize",
    "strip_trivial_factor",
    "truncated_density",
    "zeta_numerator",
]
