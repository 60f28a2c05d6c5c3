"""Local densities of the squarefree sieve for binary forms over F_q[t].

For a form F(u, v) and a monic irreducible pi, the local count c_pi is the
number of pairs (u, v) in (A/pi^2)^2 with F(u, v) = 0 mod pi^2, and the local
factor is 1 - c_pi / |pi|^4.  Products of these factors over pi (with the
finitely many primes of norm <= deg F excluded, where a factor could vanish)
converge to the density of squarefree specializations F(numer, denom).

c_pi is counted from the factor degrees of f = F(t, 1) = c prod G^e and of
the v-multiplicity s_v = deg F - deg f, with no arithmetic mod pi
(`local_count`): a pair with v a unit is (w v, v) for a root w of f mod
pi^2, a pair with u a unit and pi | v needs v = 0 mod pi^2 when s_v = 1,
and the pairs with u = v = 0 mod pi count by deg F alone.  The literal
brute force over the |pi|^4 pairs, `oracle.local_count_brute`, is its
oracle in the tests.

The seeded sampler draws (numer, denom) from the box of polynomials of degree
<= h, which holds only q^(h+1) polynomials, so each is drawn many times.  It
decides a pair on the factors of F = c prod G_k, the homogenized monic
irreducible factors of F(t, 1), found by one `polyring.factor` call: F(n, d)
is squarefree away from the excluded primes exactly when (i) every G_k(n, d)
is nonzero and squarefree away from them and (ii), when F has two or more
factors, no other prime divides both n and d.  Each drawn g keeps one row:
its powers up to the largest degree of a nonlinear G_k, the bitmask of the
primes dividing it (from the factorization of its monic associate), and the
spread codes that make the value n + a d of a linear factor t + a one
carry-free integer add, normalised back to an index by table lookups on
chunks of its base-p digits (two lookups when the whole value fits one
chunk).  The filter on a value depends on the value alone, so the factors
share one verdict per value, keyed by its `vector_index`, since distinct pairs
and distinct factors often meet the same one; so rule (ii) is one `&` of two
masks, and the squarefree tests run on values of degree at most h times the
largest factor degree, not h deg F.  Over a field of at most
`ffield.ELEM_TABLE_CAP` elements all coefficients are shared elements, so the
evaluation and the squarefree test build no new field elements.
"""

from __future__ import annotations

from .curves import SuperellipticModel
from .errors import InputError, InvariantViolation
from .families import POWER_CACHE_LIMIT, BinaryForm, homogenize
from .ffield import spread_coding
from .polyring import (
    Poly,
    factor,
    irreducibles,
    is_squarefree,
    poly_to_json,
)


def product_form(M0: SuperellipticModel) -> BinaryForm:
    """The homogenized product F = prod F_i of all non-constant components."""
    f = Poly.one(M0.field)
    for D in M0.components:
        f = f * D
    return homogenize(f)


class LocalFactor:
    """The local factor 1 - c/|prime|^4 of the density at one prime; equal
    when prime, c and factor are."""

    __slots__ = ("prime", "c", "factor")

    def __init__(self, prime: Poly, c: int, factor: Fraction):
        self.prime = prime
        self.c = c
        self.factor = factor

    def __eq__(self, other):
        if not isinstance(other, LocalFactor):
            return NotImplemented
        return (self.prime, self.c, self.factor) == (other.prime, other.c, other.factor)

    def __repr__(self):
        return f"LocalFactor(prime={self.prime!r}, c={self.c}, factor={self.factor!r})"

    @property
    def flagged_zero(self) -> bool:
        """True when the factor vanishes: the excluded-prime scenario."""
        return self.factor == 0

    def to_json(self) -> dict:
        return {
            "prime": poly_to_json(self.prime),
            "c": self.c,
            "num": str(self.factor.numerator),
            "den": str(self.factor.denominator),
        }


class DensityReport:
    """The truncated density product of a form, with the excluded primes and
    the local factors it multiplies, and the empirical density once sampled;
    equal when every field is."""

    __slots__ = ("form", "truncation_degree", "excluded", "factors", "truncated_product", "empirical")

    def __init__(
        self,
        form: BinaryForm,
        truncation_degree: int,
        excluded: list[Poly],
        factors: list[LocalFactor],
        truncated_product: Fraction,
        empirical: "dict | None" = None,
    ):
        self.form = form
        self.truncation_degree = truncation_degree
        self.excluded = excluded
        self.factors = factors
        self.truncated_product = truncated_product
        self.empirical = empirical

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if not isinstance(other, DensityReport):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"DensityReport({fields})"

    def to_json(self) -> dict:
        out = {
            "schema_version": 1,
            "kind": "density",
            "form": self.form.to_json(),
            "truncation_degree": self.truncation_degree,
            "excluded": [poly_to_json(p) for p in self.excluded],
            "factors": [f.to_json() for f in self.factors],
            "truncated_product": {
                "num": str(self.truncated_product.numerator),
                "den": str(self.truncated_product.denominator),
            },
            "empirical": self.empirical,
        }
        return out


def excluded_primes(F_form: BinaryForm) -> list[Poly]:
    """All monic irreducibles with norm at most deg F; only at these could a
    local factor vanish, because F mod pi has at most deg(F) * |pi| zeros."""
    d = F_form.degree
    F = F_form.field
    out: list[Poly] = []
    deg = 1
    while F.q**deg <= d:
        out.extend(irreducibles(F, deg))
        deg += 1
    return out


# -- local counts ----------------------------------------------------------------


def _factor_degrees(F_form: BinaryForm) -> tuple:
    """((deg G, e) for the monic irreducible factors G^e of f = F(t, 1), the
    v-multiplicity deg F - deg f), from one `polyring.factor` of f per form,
    kept in the field's `_cache`."""
    field = F_form.field
    key = ("factor_degrees", F_form.degree, tuple(c.idx for c in F_form.coeffs))
    got = field._cache.get(key)
    if got is None:
        f = F_form.dehomogenized()
        parts = tuple((G.degree, e) for G, e in factor(f).factors)
        got = field._cache[key] = (parts, F_form.degree - f.degree)
    return got


def local_count(F_form: BinaryForm, pi: Poly) -> int:
    """c_pi = (|pi|^2 - |pi|) (R + V) + Z, from the factor degrees of f.

    R counts the roots of f mod pi^2: a factor G^e with deg G | deg pi has
    deg G roots mod pi, each a simple root of f that lifts once when e = 1
    and a root that lifts |pi| ways when e >= 2; every pair with v a unit is
    (w v, v) for one such root w.  V counts v/u mod pi^2 for u a unit and
    pi | v: none when s_v = 0, only 0 when s_v = 1, all |pi| multiples of
    pi when s_v >= 2.  Z counts the |pi|^2 pairs with u = v = 0 mod pi:
    all of them when deg F >= 2, the |pi| zeros of a linear form in
    (u/pi, v/pi) when deg F = 1, none when F is a constant."""
    size = F_form.field.q**pi.degree
    parts, s_v = _factor_degrees(F_form)
    roots = sum(k * (1 if e == 1 else size) for k, e in parts if pi.degree % k == 0)
    at_v = (0, 1, size)[min(s_v, 2)]
    at_zero = (0, size, size * size)[min(F_form.degree, 2)]
    return (size * size - size) * (roots + at_v) + at_zero


def local_factor(F_form: BinaryForm, pi: Poly) -> LocalFactor:
    if not pi.is_monic() or pi.degree < 1:
        raise InputError("local factors need a monic irreducible prime")
    from fractions import Fraction  # here, so census and family runs never load it

    c = local_count(F_form, pi)
    norm4 = F_form.field.q ** (4 * pi.degree)
    return LocalFactor(prime=pi, c=c, factor=1 - Fraction(c, norm4))


def truncated_density(F_form: BinaryForm, deg_max: int) -> DensityReport:
    """Exact product of local factors over non-excluded primes of degree <= deg_max."""
    from fractions import Fraction

    if deg_max < 0:
        raise InputError(f"deg_max (--deg-max) must be at least 0, got {deg_max}")
    excluded = excluded_primes(F_form)
    excluded_keys = {p.key() for p in excluded}
    factors = []
    prod = Fraction(1)
    F = F_form.field
    for deg in range(1, deg_max + 1):
        for pi in irreducibles(F, deg):
            if pi.key() in excluded_keys:
                continue
            lf = local_factor(F_form, pi)
            if lf.flagged_zero:
                raise InvariantViolation(
                    "nonvanishing-local-factor",
                    f"included prime {pi!r} has vanishing local factor",
                )
            factors.append(lf)
            prod *= lf.factor
    return DensityReport(
        form=F_form,
        truncation_degree=deg_max,
        excluded=excluded,
        factors=factors,
        truncated_product=prod,
    )


# -- seeded sampling -------------------------------------------------------------------


class _LCG:
    """64-bit linear congruential generator; platform-independent.  The
    sampler takes the steps of `below` inline."""

    __slots__ = ("state",)

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & self.MASK
        for _ in range(4):
            self.next_raw()

    def next_raw(self) -> int:
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return self.state

    def below(self, n: int) -> int:
        return (self.next_raw() >> 24) % n


def _strip_excluded(val: Poly, excluded: list[Poly]) -> Poly:
    for pi in excluded:
        while not val.is_zero():
            quo, rem = divmod(val, pi)
            if not rem.is_zero():
                break
            val = quo
    return val


def _passes_stripped(val: Poly, excluded) -> bool:
    """The filter on a computed value: nonzero and squarefree away from the
    excluded primes."""
    if val.is_zero():
        return False
    val = _strip_excluded(val, excluded)
    return val.degree == 0 or is_squarefree(val)


class _FactorFilter:
    """The squarefree filter on F(numer, denom), decided on the factors of
    F = c prod G_k, for draws of degree <= h_deg; F is the homogenization of
    F(t, 1), as `product_form` makes it.

    A draw g, by its box index (`vector_index`), has a row (mask, powers,
    code, codes): the bitmask of the monic primes dividing g (every bit for
    g = 0), from the `polyring.factor` of its monic associate; the powers
    [1, g, ...] up to the largest degree of a nonlinear G_k; the spread code
    of g's index, all of its e (h_deg + 1) base-p digits, and that of a g for
    each linear factor t + a.  The value n + a d of a linear factor is then
    the carry-free sum of two codes, normalised in chunks of base-p digits
    with the `norm_lo`/`norm_hi` tables of `spread_coding(p, width)`, each
    chunk as wide as tables of at most `POWER_CACHE_LIMIT` entries allow: one
    chunk, two lookups, when the whole value fits, digit by digit with no
    table when not even one digit's tables fit.  A nonlinear factor's value
    comes from `BinaryForm.evaluate_powers`.  The filter on a value depends
    only on the value, so all factors share one verdict per value, keyed by
    its `vector_index`.  At most `POWER_CACHE_LIMIT` rows, and as many
    verdicts, are kept."""

    def __init__(self, F_form: BinaryForm, h_deg: int):
        F = F_form.field
        parts = factor(F_form.dehomogenized()).factors
        if any(e != 1 for _, e in parts):
            raise InvariantViolation(
                "squarefree-product-form", f"{F_form!r} has a repeated factor"
            )
        self.field = F
        self.excluded = excluded_primes(F_form)
        # primes get bits as draws meet them, the excluded ones first
        self.bits = {P.key(): 1 << i for i, P in enumerate(self.excluded)}
        # rule (ii) needs two factors; no bit of an excluded prime counts
        self.coprime_bits = ~((1 << len(self.excluded)) - 1) if len(parts) > 1 else 0
        self.shifts = [P.coeffs[0] for P, _ in parts if P.degree == 1]
        self.forms = [homogenize(P) for P, _ in parts if P.degree > 1]
        self.widest = max(self.forms, key=lambda G: G.degree, default=None)
        self.weights = [F.q**k for k in range(h_deg + 1)]
        # the widest chunk whose tables, (2p - 1)^(w - w // 2) entries each,
        # fit; 0 when even one digit's do not
        p, radix, digits = F.p, 2 * F.p - 1, F.e * (h_deg + 1)
        width = 0
        while width < digits and radix ** ((width + 2) // 2) <= POWER_CACHE_LIMIT:
            width += 1
        self.p, self.radix = p, radix
        self.spread = spread_coding(p, width).spread  # the method reads no table
        self.chunks = []  # (radix^w, norm_lo, norm_hi, b_lo, p^start) per chunk of w digits
        for start in range(0, digits, width) if width else ():
            w = min(width, digits - start)
            coding = spread_coding(p, w)
            self.chunks.append((radix**w, coding.norm_lo, coding.norm_hi, coding.b_lo, p**start))
        # the tables of a value that fits in one chunk, for two lookups and no loop
        self.norm = self.chunks[0][1:4] if len(self.chunks) == 1 else None
        self.rows: dict[int, tuple] = {}
        self.verdicts: dict[int, bool] = {}

    def row(self, index: int) -> tuple:
        row = self.rows.get(index)
        if row is None:
            row = self._new_row(index)
            if len(self.rows) < POWER_CACHE_LIMIT:
                self.rows[index] = row
        return row

    def _new_row(self, index: int) -> tuple:
        F, bits, spread, weights = self.field, self.bits, self.spread, self.weights
        g = Poly.from_vector_index(F, index)
        if g.is_zero():
            mask = -1
        elif not g.is_monic():  # the primes of its monic associate
            mask = self.row(g.monic()[1].vector_index())[0]
        else:
            mask = 0
            for P, _ in factor(g).factors:
                mask |= bits.setdefault(P.key(), 1 << len(bits))
        powers = None if self.widest is None else self.widest.powers(g)
        codes = [
            spread(sum(F.mul(a, c).idx * w for c, w in zip(g.coeffs, weights)))
            for a in self.shifts
        ]
        return mask, powers, spread(index), codes

    def _sum_index(self, s: int) -> int:
        """The vector index of the value whose spread code is s, a sum of two
        codes, normalised chunk by chunk."""
        key = 0
        for size, norm_lo, norm_hi, b_lo, place in self.chunks:
            s, c = divmod(s, size)
            key += (norm_lo[c % b_lo] + norm_hi[c // b_lo]) * place
        p, radix, place = self.p, self.radix, 1
        while s:  # left only when there are no chunks: one digit at a time
            s, c = divmod(s, radix)
            key += c % p * place
            place *= p
        return key

    def _verdict(self, key: int, val: Poly) -> bool:
        """The filter on the value val, kept while there is room."""
        ok = _passes_stripped(val, self.excluded)
        if len(self.verdicts) < POWER_CACHE_LIMIT:
            self.verdicts[key] = ok
        return ok

    def passes(self, nrow: tuple, drow: tuple) -> bool:
        """True when F(numer, denom) is nonzero and squarefree away from the
        excluded primes, given the rows of numer and denom: (ii) no
        non-excluded prime divides both when F has two or more factors, and
        (i) every factor value passes the filter."""
        nmask, npows, ncode, _ = nrow
        dmask, dpows, _, dcodes = drow
        if nmask & dmask & self.coprime_bits:
            return False
        verdicts, norm = self.verdicts, self.norm
        if norm is not None:
            norm_lo, norm_hi, b_lo = norm
        for acode in dcodes:
            s = ncode + acode
            key = self._sum_index(s) if norm is None else norm_lo[s % b_lo] + norm_hi[s // b_lo]
            ok = verdicts.get(key)
            if ok is None:
                ok = self._verdict(key, Poly.from_vector_index(self.field, key))
            if not ok:
                return False
        for G in self.forms:
            val = G.evaluate_powers(npows, dpows)
            key = val.vector_index()
            ok = verdicts.get(key)
            if ok is None:
                ok = self._verdict(key, val)
            if not ok:
                return False
        return True


def empirical_density(
    M0: SuperellipticModel,
    h_deg: int,
    samples: int,
    seed: int,
    *,
    coprime_only: bool = False,
) -> "dict | None":
    """Fraction of seeded-random pairs (numer, denom) with deg <= h_deg whose
    specialization product F(numer, denom) is squarefree away from the
    excluded primes; deterministic given seed.

    By default pairs are drawn uniformly from the full box (all pairs of degree
    <= h_deg), the regime in which the local-factor product is the limit.
    With coprime_only=True, pairs with a common prime factor are rejected and
    resampled, which rescales the frequency by roughly the inverse density of
    coprime pairs, about q/(q-1).

    Each draw is h_deg + 1 digits from the seeded generator, the coefficients
    of the drawn polynomial low degree first.  A pair is decided on the
    factors G_k of F (`_FactorFilter.passes`): F(n, d) passes exactly when
    (i) every G_k(n, d) is nonzero and squarefree away from the excluded
    primes and (ii), when F has two or more factors, no non-excluded prime
    divides both n and d.  (ii) holds because the resultant of two distinct
    factors is a nonzero constant R, and R n^N, R d^N lie in the ideal of the
    two forms, so a prime dividing two factor values divides n and d; and a
    prime dividing n and d divides every factor value.
    """
    if h_deg < 0:
        raise InputError(f"h_deg (--h-deg) must be at least 0, got {h_deg}")
    if samples < 0:
        raise InputError(f"samples (--samples) must be at least 0, got {samples}")
    if samples == 0:
        return None
    rule = _FactorFilter(product_form(M0), h_deg)
    row, passes, weights, q = rule.row, rule.passes, rule.weights, M0.field.q
    mult, inc, mask = _LCG.MULT, _LCG.INC, _LCG.MASK
    state = _LCG(seed).state
    hits = 0
    for _ in range(samples):
        while True:
            n = d = 0
            for w in weights:
                state = (state * mult + inc) & mask
                n += (state >> 24) % q * w
            for w in weights:
                state = (state * mult + inc) & mask
                d += (state >> 24) % q * w
            if not (n or d):
                continue
            nrow, drow = row(n), row(d)
            if coprime_only and nrow[0] & drow[0]:
                continue
            break
        hits += passes(nrow, drow)
    return {
        "samples": samples,
        "hits": hits,
        "frequency": hits / samples,
        "seed": seed,
        "coprime_only": coprime_only,
    }
