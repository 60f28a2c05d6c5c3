"""Resource guards.

Defaults keep every exhaustive loop honest at desk scale. The three
environment overrides are SUPERELL_LIMIT_POINTS (elements scanned per point
count), SUPERELL_LIMIT_CENSUS (monics scanned per character-sum histogram
pass, the q^(D-1) monics the sums defining an L-polynomial of conductor
degree D run over, and enumeration sizes in the census paths, the factor
table and the exhaustive squarefree count) and SUPERELL_ZECH_LIMIT (largest field whose
log and Zech tables are built).
"""

import os

from .errors import InputError

# largest field the constructor will build (q = p^e)
FIELD_SIZE_LIMIT = 2**40

# elements enumerated per point count (one projective line scan)
DEFAULT_LIMIT_POINTS = 10**9

# monics per character-sum histogram pass / census enumeration size
DEFAULT_LIMIT_CENSUS = 2 * 10**7

# largest field for which discrete-log tables are materialised
DEFAULT_ZECH_LIMIT = 2**21

# largest residue field |P| for which a per-prime symbol table is built
SYMBOL_TABLE_LIMIT = 2**20


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"environment variable {name} must be an integer, got {raw!r}") from None


def limit_points() -> int:
    return _env_int("SUPERELL_LIMIT_POINTS", DEFAULT_LIMIT_POINTS)


def limit_census() -> int:
    return _env_int("SUPERELL_LIMIT_CENSUS", DEFAULT_LIMIT_CENSUS)


def zech_limit() -> int:
    return _env_int("SUPERELL_ZECH_LIMIT", DEFAULT_ZECH_LIMIT)
