"""Resource guards.

Defaults keep every exhaustive loop honest at desk scale. The two
environment overrides are SUPERELL_LIMIT_CENSUS (monics scanned per
character-sum histogram pass; the primes an Euler product reads at each
degree, with the tables it builds for them; enumeration sizes in the census
paths, the factor table and the exhaustive squarefree count; a family's
pairs and a density sampler's draws) and SUPERELL_ZECH_LIMIT (largest field
whose log and Zech tables are built, and so the largest field a point count
runs over).  Every guard on them goes through `require` or `require_power`.
"""

import os

from .errors import InputError, ResourceLimit

# largest field the constructor will build (q = p^e)
FIELD_SIZE_LIMIT = 2**40

# largest residue field |P| for which a per-prime symbol table is built
SYMBOL_TABLE_LIMIT = 2**20

# the environment overrides and their defaults: monics per character-sum
# histogram pass / census enumeration size, and the largest field for which
# discrete-log tables are materialised
_DEFAULTS = {
    "SUPERELL_LIMIT_CENSUS": 2 * 10**7,
    "SUPERELL_ZECH_LIMIT": 2**21,
}


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"environment variable {name} must be an integer, got {raw!r}") from None


def require(var: str, needed: int, what: str) -> None:
    """Raise ResourceLimit naming `var` when `what` needs more than it allows."""
    limit = _env_int(var, _DEFAULTS[var])
    if needed > limit:
        raise ResourceLimit(f"{what} needs {var} >= {needed}, it is {limit}")


def require_power(var: str, base: int, exp: int, what: str) -> None:
    """`require` for base^exp, base >= 2, refusing a huge exp unpowered."""
    limit = _env_int(var, _DEFAULTS[var])
    if exp >= limit.bit_length():
        raise ResourceLimit(f"{what} needs {var} >= {base}^{exp}, it is {limit}")
    require(var, base**exp, what)
