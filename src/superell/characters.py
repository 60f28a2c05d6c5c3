"""Power residue symbols of prime order ell, the Dirichlet characters they
generate, enumeration of all primitive order-ell characters, and exact
counting formulas.

The embedding of mu_ell(F_q) into Z[zeta_ell] is fixed once per (field, ell):
zeta := g0^((q-1)/ell) for g0 the canonical primitive root, mapped to the
formal zeta.  Any fixed choice of embedding only replaces every character by
a fixed power of itself, which permutes the enumerated list; determinism is
what matters here.

A character is an exponent map over the distinct monic irreducible factors of
its (squarefree) conductor.  Bulk evaluation goes through per-prime residue
symbol tables built from a discrete log over (A/P)^*, which
`polyring.residue_dlog` finds by walking the powers of candidate generators
on integer residue indices, the one search that also builds the field log
tables.  The tests check the tables against the square-and-multiply symbol
of `oracle.residue_symbol`.

The L-polynomials of `lfunction` need chi(Q) on the monic irreducibles Q of
small degree only.  By ell-th power reciprocity (Q/P) = (P/Q), so each symbol
is read from the table of the smaller of P and Q, at the residue of the other
(`CharContext.symbol_vector`), and one joint histogram per (conductor, degree)
serves every character on the conductor (`prime_symbol_histogram`).  The
residues come from an `ffield.AffineIndexMap`: g -> g mod P is affine in the
base-p digits of g's index, with the images of `polyring.unit_images`
(`CharContext.residue_map`), and a symbol vector reads it in bulk, a
histogram row by row.  Sums over all monics of a degree
(`symbol_histogram`, `char_value_counts`) are the definitional route to the
same L-polynomials, which the census spot check runs.

A character has one identity, `DirichletChar.int_key`: the integer codes
(degree, index among the monics of that degree) of its conductor primes with
their exponents.  Equality, hashing, the L-cache and the census's duality
check all read it.  Every character fills its slots through one call, from
validated primes and their codes.  The key and the report object
(`to_json`) come from `char_key` and `char_json`, which need no character.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import limits
from .errors import InputError, InvariantViolation, ResourceLimit
from .ffield import AffineIndexMap, Field, is_prime, primitive_root
from .polyring import (
    Poly,
    factor,
    factor_table,
    irreducible_count,
    irreducibles,
    poly_from_json,
    poly_to_json,
    residue_dlog,
    unit_images,
)

# symbol-table entry for residues divisible by P; real entries lie in 0..ell-1
_ZERO_SENTINEL = -1


# -- per-(field, ell) context ---------------------------------------------------


class CharContext:
    """Fixed zeta embedding plus cached residue-symbol tables for one (F_q, ell)."""

    def __init__(self, field: Field, ell: int):
        if not is_prime(ell) or ell == 2:
            raise InputError(f"character order must be an odd prime, got {ell}")
        if (field.q - 1) % ell != 0:
            raise InputError(f"q = {field.q} is not 1 mod {ell}")
        self.field = field
        self.ell = ell
        g0 = primitive_root(field)
        self.zeta = field.pow(g0, (field.q - 1) // ell)
        self.zeta_pow_index = {}
        z = field.one()
        for k in range(ell):
            self.zeta_pow_index[field.index(z)] = k
            z = field.mul(z, self.zeta)
        # symbol tables by P.key(), residue maps and symbol vectors by
        # (P.key(), degree): each built once and kept for the life of the
        # context, which is the life of the field's `_cache`
        self._symbols: dict[tuple, list[int]] = {}
        self._residues: dict[tuple, AffineIndexMap] = {}
        self._vectors: dict[tuple, list[int]] = {}
        # work done through this context, for runtime statistics
        self.counts = dict.fromkeys(
            (
                "histogram_passes",
                "monics_scanned",
                "prime_histograms",
                "primes_scanned",
                "symbol_tables_built",
                "generator_candidates",
                "walk_steps",
            ),
            0,
        )

    def symbol_table(self, P: Poly) -> list[int]:
        """s0[residue index] = exponent k with (r/P) = zeta^k; sentinel for P | r.

        (r/P) = r^(m/ell) with m = |P| - 1 lands in mu_ell(F_q) because
        q = 1 mod ell, so for a generator g of (A/P)^* and r = g^k the exponent
        is k0 * k mod ell, where zeta^k0 = g^(m/ell).  Neither depends on which
        generator is used; g and its discrete log come from
        `polyring.residue_dlog`, which also proves P irreducible.
        """
        tab = self._symbols.get(P.key())
        if tab is not None:
            return tab
        F = self.field
        size = F.q**P.degree
        if size > limits.SYMBOL_TABLE_LIMIT:
            raise ResourceLimit(
                f"symbol table for |P| = {size} exceeds SYMBOL_TABLE_LIMIT = "
                f"{limits.SYMBOL_TABLE_LIMIT} (superell.limits); it needs at least {size}"
            )
        steps = residue_dlog(P, self.counts)[1]  # steps[r] = k with g^k = r
        # zeta' = g^(m/ell) must be the constant zeta^k0
        zp = steps.index((size - 1) // self.ell)
        if zp >= F.q:
            raise InvariantViolation("symbol-constant", f"{P!r}: zeta' not constant; P reducible?")
        k0 = self.zeta_pow_index.get(zp)
        if k0 is None:  # pragma: no cover
            raise InvariantViolation("symbol-root", f"{P!r}: zeta' outside mu_ell")
        ell = self.ell
        # filled in place: a list built by a comprehension is over-allocated
        tab = [_ZERO_SENTINEL] * size
        tab[1:] = [(k0 * k) % ell for k in steps[1:]]
        del steps
        self.counts["symbol_tables_built"] += 1
        self._symbols[P.key()] = tab
        return tab

    def residue_map(self, P: Poly, n: int) -> AffineIndexMap:
        """The map g -> g mod P from the index of a monic g of degree n to
        the index of its residue, affine in the base-p digits of g's index:
        the `unit_images` of 1 mod P, plus the residue of t^n (cached per
        (P, n))."""
        key = (P.key(), n)
        residues = self._residues.get(key)
        if residues is None:
            F = self.field
            images = unit_images(Poly.one(F), n, P)
            t_n = (Poly.from_index(F, n, 0) % P).vector_index()
            residues = self._residues[key] = AffineIndexMap(F.p, P.degree * F.e, images, t_n)
        return residues

    def symbol_vector(self, P: Poly, k: int) -> list[int]:
        """The exponents s with (P/Q) = zeta^s for the monic irreducibles Q of
        degree k in canonical order, and -1 for Q = P (cached per (P, k)).

        By the ell-th power reciprocity law (Q/P) = (P/Q) for monic
        irreducibles P, Q: its sign (-1)^(((q-1)/ell) deg P deg Q) is 1,
        since (q-1)/ell is even for odd q and -1 = 1 for even q.  So each
        symbol is read from the table of whichever of P and Q has the smaller
        degree, P on a tie, at the residue of the other, which comes from
        `residue_map` with no field arithmetic per Q.
        """
        key = (P.key(), k)
        vec = self._vectors.get(key)
        if vec is not None:
            return vec
        F = self.field
        if k >= P.degree:
            residues = self.residue_map(P, k).images(factor_table(F).level(k).primes)
            vec = list(map(self.symbol_table(P).__getitem__, residues))
        else:
            j = P.vector_index() - F.q**P.degree  # P's index among the monics of its degree
            vec = [self.symbol_table(Q)[self.residue_map(Q, P.degree)(j)]
                   for Q in irreducibles(F, k)]
        self._vectors[key] = vec
        return vec


def char_context(field: Field, ell: int) -> CharContext:
    key = ("charctx", ell)
    ctx = field._cache.get(key)
    if ctx is None:
        ctx = CharContext(field, ell)
        field._cache[key] = ctx
    return ctx


# -- Dirichlet characters ------------------------------------------------------------


def char_key(codes, exponents) -> tuple:
    """The `DirichletChar.int_key` of the character with these exponents on
    the primes with these codes, in canonical order."""
    return tuple(x for (k, j), e in zip(codes, exponents) for x in (k, j, e))


def char_json(field: Field, ell: int, exponent_map) -> dict:
    """{"ell": ..., "factors": [[P, e], ...], "field": ...}, the report object
    of the character with the (P, e) pairs in canonical order, which reports
    give with sorted keys.  The field's descriptor and each prime's
    coefficient lists are built once per field, kept in `Field._cache`, and
    shared by every character's object: they are never mutated, and a
    caller that wants to change one copies it first."""
    parts = field._cache.get("json_fragments")
    if parts is None:
        parts = field._cache["json_fragments"] = (field.descriptor(), {})
    field_obj, primes = parts
    factors = []
    for P, e in exponent_map:
        obj = primes.get(P.key())
        if obj is None:
            obj = primes[P.key()] = poly_to_json(P)
        factors.append([obj, e])
    return {"ell": ell, "factors": factors, "field": field_obj}


class DirichletChar:
    """An order-ell character given by exponents over its squarefree conductor."""

    # _ints: `int_key`, the character's identity
    __slots__ = ("ell", "field", "exponent_map", "degree", "even", "_conductor", "_ints")

    def __init__(self, field: Field, ell: int, exponent_map):
        char_context(field, ell)  # validates ell and q = 1 mod ell
        q = field.q
        coded = {}  # (degree, index among the monics of that degree) -> (P, e)
        for P, e in exponent_map:
            if P.field is not field:  # the codes index the monics over `field`
                raise InputError(f"conductor factor {P!r} is not over {field}")
            if not P.is_monic() or P.degree < 1:
                raise InputError("conductor factors must be monic and non-constant")
            if e % ell == 0:
                raise InputError("exponents must be nonzero mod ell")
            code = (P.degree, P.vector_index() - q**P.degree)
            if code in coded:
                raise InputError("repeated conductor factor")
            coded[code] = (P, e % ell)
        if not coded:
            raise InputError("a primitive order-ell character needs a non-trivial conductor")
        codes = tuple(sorted(coded))
        primes, exponents = zip(*(coded[c] for c in codes))
        self._set(field, ell, primes, codes, exponents)

    def _set(self, field: Field, ell: int, primes, codes: tuple, exponents) -> None:
        """Fill the slots from the conductor primes, monic, distinct and in
        canonical order, each one's code (degree, index among the monics of
        that degree) and its exponent in 1..ell-1.  The `int_key`, the
        conductor degree and the parity (chi is even when sum e deg P is 0
        mod ell, that is, trivial on the constants) are read from the codes."""
        self.field = field
        self.ell = ell
        self.exponent_map = tuple(zip(primes, exponents))
        self.degree = sum(k for k, _ in codes)
        self.even = sum(k * e for (k, _), e in zip(codes, exponents)) % ell == 0
        self._conductor = None
        self._ints = char_key(codes, exponents)

    @classmethod
    def _on_table_primes(
        cls, field: Field, ell: int, primes, codes: tuple, exponents: tuple
    ) -> "DirichletChar":
        """The character with the given exponents, in 1..ell-1, on primes
        already validated, such as a conductor of `squarefree_conductors`,
        whose `codes` are read from the factor table's marks.  The checks of
        `__init__` are skipped."""
        chi = object.__new__(cls)
        chi._set(field, ell, primes, codes, exponents)
        return chi

    @property
    def conductor(self) -> Poly:
        if self._conductor is None:
            f = Poly.one(self.field)
            for P, _ in self.exponent_map:
                f = f * P
            self._conductor = f
        return self._conductor

    def power(self, j: int) -> "DirichletChar":
        ell = self.ell
        if j % ell == 0:
            raise InputError("power would be the principal character")
        ints = self._ints
        return DirichletChar._on_table_primes(
            self.field,
            ell,
            [P for P, _ in self.exponent_map],
            tuple(zip(ints[0::3], ints[1::3])),
            tuple(e * j % ell for e in ints[2::3]),
        )

    def dual(self) -> "DirichletChar":
        return self.power(self.ell - 1)

    def __eq__(self, other):
        if not isinstance(other, DirichletChar):
            return NotImplemented
        return self.field is other.field and (self.ell, self._ints) == (other.ell, other._ints)

    def __hash__(self):
        return hash((id(self.field), self.ell) + self._ints)

    def __repr__(self):
        parts = ", ".join(f"({P!r})^{e}" for P, e in self.exponent_map)
        return f"DirichletChar(ell={self.ell}, {parts})"

    def int_key(self) -> tuple:
        """The character's identity as integers, and its L-cache key: for each
        conductor prime in canonical order, its degree, its index among the
        monics of that degree and its exponent.  It names neither the field
        nor ell, to which an L-cache file is bound."""
        return self._ints

    def to_json(self) -> dict:
        """The object that reports give (`char_json`)."""
        return char_json(self.field, self.ell, self.exponent_map)

    @classmethod
    def from_json(cls, field: Field, data: dict) -> "DirichletChar":
        ell = int(data["ell"])
        pairs = [(poly_from_json(field, pj), int(e)) for pj, e in data["factors"]]
        return cls(field, ell, pairs)


def char_from_model(model) -> DirichletChar:
    """The order-ell character attached to y^ell = c * prod D_i^i: exponent i on
    every prime dividing D_i.  The constant c does not enter; see
    `lfunction.twist_exponent` for how twists act on L-polynomials."""
    exponent_map = []
    for i, D in enumerate(model.components, start=1):
        if D.degree < 1:
            continue
        for P, _ in factor(D).factors:  # exponents are all 1: D is squarefree
            exponent_map.append((P, i))
    return DirichletChar(model.field, model.ell, exponent_map)


# -- bulk character sums -----------------------------------------------------------


def symbol_histogram(primes, ell: int, degree: int) -> dict[int, int]:
    """Joint histogram of the residue symbols of the monic g of the given
    degree modulo the primes P_1..P_r.

    For each g, s_i is the exponent k of (g/P_i) = zeta^k, or -1 when P_i | g.
    The tuple (s_1..s_r) is coded as sum_i (s_i + 1) (ell + 1)^(i-1), so a zero
    digit marks a prime dividing g; hist[code] is the number of g with that
    tuple.  The residues of every g mod each P_i come from the rows of
    `CharContext.residue_map`: for each low-half index of g, one pass per
    prime over its row codes a block of g.  One histogram serves
    every character on the conductor P_1 ... P_r: `project_counts` reads the
    value counts of one exponent assignment from it.
    """
    F = primes[0].field
    ctx = char_context(F, ell)
    q = F.q
    what = f"a character-sum pass over {q}^{degree} monics"
    limits.require("SUPERELL_LIMIT_CENSUS", q**degree, what)
    ctx.counts["histogram_passes"] += 1
    ctx.counts["monics_scanned"] += q**degree
    weights = [(ell + 1) ** i for i in range(len(primes))]
    # the codes add s_i * weight; the +1 of every digit is added at the end
    offset = sum(weights)
    if degree == 0:
        return {offset: 1}  # g = 1, whose every symbol is zeta^0
    tables = [(ctx.symbol_table(P), w) for P, w in zip(primes, weights)]
    hist = Counter()
    # the rows of every prime's map run over the same low and high halves
    for rows in zip(*(ctx.residue_map(P, degree).rows() for P in primes)):
        codes = itertools.repeat(0)
        for (s0, w), row in zip(tables, rows):
            codes = [c + w * s0[r] for c, r in zip(codes, row)]
        hist.update(codes)
    return {code + offset: n for code, n in hist.items()}


def prime_symbol_histogram(primes, ell: int, k: int) -> dict[int, int]:
    """Joint histogram of the residue symbols (Q/P_1)..(Q/P_r) over the monic
    irreducibles Q of degree k, coded as in `symbol_histogram`, with a zero
    digit for Q = P_i; `project_counts` reads from it the value counts of
    chi(Q) for every character on the conductor P_1 ... P_r.  The symbols
    are the `CharContext.symbol_vector`s of the P_i, which the census shares
    across conductors."""
    ctx = char_context(primes[0].field, ell)
    codes = None
    weight = 1
    for P in primes:
        vec = ctx.symbol_vector(P, k)
        if codes is None:
            codes = [weight * s for s in vec]
        else:
            codes = [c + weight * s for c, s in zip(codes, vec)]
        weight *= ell + 1
    offset = (weight - 1) // ell  # the +1 of every digit: sum of (ell + 1)^i
    ctx.counts["prime_histograms"] += 1
    ctx.counts["primes_scanned"] += len(codes)
    return {code + offset: n for code, n in Counter(codes).items()}


def project_counts(hist: dict[int, int], exponents, ell: int) -> tuple[list[int], int]:
    """(counts, zeros) of the character with the given exponents on the primes
    of a `symbol_histogram`: each bin adds its count to counts[sum e_i s_i mod
    ell], or to zeros when it marks a prime dividing g."""
    base = ell + 1
    esum = sum(exponents)  # the codes carry s_i + 1
    counts = [0] * ell
    zeros = 0
    for code, n in hist.items():
        tot = 0
        for e in exponents:
            code, d = divmod(code, base)
            if not d:
                zeros += n
                break
            tot += e * d
        else:
            counts[(tot - esum) % ell] += n
    return counts, zeros


def char_value_counts(chi: DirichletChar, degree: int) -> tuple[list[int], int]:
    """Over monic g of the given degree: counts[k] = #{g : chi(g) = zeta^k},
    plus the number of g with chi(g) = 0.  Exact, from `symbol_histogram`."""
    primes = [P for P, _ in chi.exponent_map]
    exponents = [e for _, e in chi.exponent_map]
    return project_counts(symbol_histogram(primes, chi.ell, degree), exponents, chi.ell)


# -- counting formulas ----------------------------------------------------------------


def count_order_ell_exact(q: int, ell: int, d: int) -> int:
    """Exact number of primitive order-ell characters with conductor degree d:
    the coefficient of u^d in prod_P (1 + (ell-1) u^{deg P}), truncated."""
    if (q - 1) % ell != 0:
        raise InputError(f"q = {q} is not 1 mod {ell}")
    if d < 0:
        raise InputError("negative conductor degree")
    coeffs = [0] * (d + 1)
    coeffs[0] = 1
    for m in range(1, d + 1):
        nm = irreducible_count(q, m)
        # multiply truncated series by (1 + (ell-1) u^m)^nm
        for _ in range(nm):
            for i in range(d, m - 1, -1):
                coeffs[i] += (ell - 1) * coeffs[i - m]
    return coeffs[d]


def squarefree_conductors(F: Field, ell: int, d: int, skip=None):
    """(j, primes, codes, assignments) for every squarefree monic conductor of
    degree d, in canonical order: its index j among the monics of degree d,
    its primes, the shared objects of `irreducibles`, their codes (degree,
    index among the monics of that degree) from the factor table's marks,
    and the (ell-1)^r exponent assignments over its r primes in
    `itertools.product` order.  The conductors and their primes are read
    from the field's factor table; no conductor is factored or built as a
    polynomial, and no character is built here.  A conductor whose index
    has `skip[j]` set is passed over before its primes are read (see
    `FactorTable.squarefree_primes`)."""
    char_context(F, ell)  # validates ell and q = 1 mod ell
    assignments: dict[int, tuple] = {}  # r -> the exponent tuples over r primes
    for j, primes, codes in factor_table(F).squarefree_primes(d, skip):
        r = len(codes)
        got = assignments.get(r)
        if got is None:
            got = assignments[r] = tuple(itertools.product(range(1, ell), repeat=r))
        yield j, primes, codes, got
