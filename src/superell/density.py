"""Local densities of the squarefree sieve for binary forms over F_q[t].

For a form F(u, v) and a monic irreducible pi, the local count c_pi is the
number of pairs (u, v) in (A/pi^2)^2 with F(u, v) = 0 mod pi^2, and the local
factor is 1 - c_pi / |pi|^4.  Products of these factors over pi (with the
finitely many primes of norm <= deg F excluded, where a factor could vanish)
converge to the density of squarefree specializations F(numer, denom).

Two exact routes to c_pi are implemented: a literal brute force over |pi|^4
pairs, and a valuation-structured shortcut for forms with constant
coefficients (split off the u- and v-multiplicities, count the dehomogenized
roots mod pi^2, and count the locus (u, v) = (0, 0) mod pi separately).  The
shortcut is cross-checked against brute force in the tests.

The seeded sampler draws (numer, denom) from the box of polynomials of degree
<= h, which holds only q^(h+1) polynomials, so each is drawn many times: it
keeps the power list [1, g, ..., g^(deg F)] of every polynomial g it draws,
keyed by g's digits, and evaluates F on the cached powers in one pass
(`BinaryForm.evaluate_powers`).  The filter is a pure function of the value
F(numer, denom), and distinct pairs often share a value ((l n, l d) gives
l^(deg F) F(n, d) for a constant l), so it keeps one verdict per value, keyed
by the value's `vector_index`.  Over a field of at most
`ffield.ELEM_TABLE_CAP` elements all coefficients are shared elements, so the
evaluation and the squarefree test build no new field elements.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import SuperellipticModel
from .errors import InputError, InvariantViolation, ResourceLimit
from .families import BinaryForm, homogenize
from .ffield import Field
from .polyring import (
    Poly,
    gcd,
    irreducibles,
    is_squarefree,
    poly_to_json,
)

BRUTE_FORCE_LIMIT = 10**8
# Most power lists, and most verdicts, the sampler keeps; beyond this many
# distinct draws (values) it computes the powers (verdict) afresh each time.
POWER_CACHE_LIMIT = 1 << 14


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


def _residues(F: Field, degree: int):
    """All polynomials of degree < degree, canonical order."""
    for j in range(F.q**degree):
        yield Poly.from_vector_index(F, j)


def local_count_brute(F_form: BinaryForm, pi: Poly) -> int:
    F = F_form.field
    pi2 = pi * pi
    size = F.q ** (2 * pi.degree)
    if size * size > BRUTE_FORCE_LIMIT:
        raise ResourceLimit(f"brute-force local count at |pi|^4 = {size * size}")
    res = list(_residues(F, 2 * pi.degree))
    d = F_form.degree
    count = 0
    for u in res:
        upows = [Poly.one(F)]
        for _ in range(d):
            upows.append((upows[-1] * u) % pi2)
        for v in res:
            vpows = [Poly.one(F)]
            for _ in range(d):
                vpows.append((vpows[-1] * v) % pi2)
            acc = Poly.zero(F)
            for i, c in enumerate(F_form.coeffs):
                if c.is_zero():
                    continue
                acc = acc + upows[i] * vpows[d - i] * c
            if (acc % pi2).is_zero():
                count += 1
    return count


def _root_count_mod_pi2(g: Poly, pi: Poly) -> int:
    """Number of w in A/pi^2 with g(w) = 0 mod pi^2, by root scan plus lifting:
    a simple root mod pi lifts uniquely; a critical root lifts |pi| ways or 0."""
    F = g.field
    pi2 = pi * pi
    gp = g.derivative()
    total = 0
    for r in _residues(F, pi.degree):
        if not _eval_mod(g, r, pi).is_zero():
            continue
        if not _eval_mod(gp, r, pi).is_zero():
            total += 1
        elif _eval_mod(g, r, pi2).is_zero():
            total += F.q**pi.degree
    return total


def _eval_mod(g: Poly, r: Poly, mod: Poly) -> Poly:
    """g(r) mod `mod` by Horner on polynomial residues."""
    F = g.field
    acc = Poly.zero(F)
    for c in reversed(g.coeffs):
        acc = (acc * r + Poly.constant(c)) % mod
    return acc


def _split_uv_multiplicity(F_form: BinaryForm) -> tuple[int, int]:
    """(mult of u, mult of v) in F: v-multiplicity is deg F - deg f, and
    u-multiplicity is the valuation of f at 0."""
    f = F_form.dehomogenized()
    s_v = F_form.degree - f.degree
    s_u = 0
    for c in f.coeffs:
        if c.is_zero():
            s_u += 1
        else:
            break
    return s_u, s_v


def local_count(F_form: BinaryForm, pi: Poly) -> int:
    """c_pi via the valuation-structured shortcut when applicable, else brute
    force.  Applicable: constant coefficients, squarefree-form multiplicity
    pattern (u- and v-multiplicities at most 1) and total degree >= 2."""
    d = F_form.degree
    s_u, s_v = _split_uv_multiplicity(F_form)
    if d < 2 or s_u > 1 or s_v > 1:
        return local_count_brute(F_form, pi)
    F = F_form.field
    size = F.q**pi.degree
    g = F_form.dehomogenized()  # F(x, 1)
    count = _root_count_mod_pi2(g, pi) * (size * size - size)
    if s_v == 1:
        count += size * size - size  # pi | v needs v = 0 mod pi^2, u a unit
    count += size * size  # (u, v) = (0, 0) mod pi: valuation >= d >= 2
    return count


def local_factor(F_form: BinaryForm, pi: Poly) -> LocalFactor:
    if not pi.is_monic() or pi.degree < 1:
        raise InputError("local factors need a monic irreducible prime")
    c = local_count(F_form, pi)
    norm4 = F_form.field.q ** (4 * pi.degree)
    return LocalFactor(prime=pi, c=c, factor=1 - Fraction(c, norm4))


def truncated_density(F_form: BinaryForm, deg_max: int) -> DensityReport:
    """Exact product of local factors over non-excluded primes of degree <= deg_max."""
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
    """64-bit linear congruential generator; platform-independent."""

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
    """The filter on a computed value F(numer, denom)."""
    if val.is_zero():
        return False
    val = _strip_excluded(val, excluded)
    return val.degree == 0 or is_squarefree(val)


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
    <= h_deg), the regime in which the local-factor product is the limit; when
    no prime is excluded, a non-coprime pair never passes the filter, since
    gcd^d divides the product and d >= 2.  With coprime_only=True, non-coprime
    pairs are rejected and resampled, which rescales the frequency by roughly
    the inverse density of coprime pairs, about q/(q-1).

    Each draw is h_deg + 1 digits from the seeded generator, the coefficients
    of the drawn polynomial low degree first; its powers come from a cache
    keyed by those digits, and the verdict on a value from a cache keyed by
    its `vector_index`.
    """
    if h_deg < 0:
        raise InputError(f"h_deg (--h-deg) must be at least 0, got {h_deg}")
    if samples < 0:
        raise InputError(f"samples (--samples) must be at least 0, got {samples}")
    if samples == 0:
        return None
    F_form = product_form(M0)
    excluded = excluded_primes(F_form)
    F = M0.field
    q = F.q
    rng = _LCG(seed)
    cache: dict[tuple, list[Poly]] = {}
    verdicts: dict[int, bool] = {}

    def draw() -> list[Poly]:
        digits = tuple(rng.below(q) for _ in range(h_deg + 1))
        pows = cache.get(digits)
        if pows is None:
            pows = F_form.powers(Poly(F, [F.elem_at(i) for i in digits]))
            if len(cache) < POWER_CACHE_LIMIT:
                cache[digits] = pows
        return pows

    hits = 0
    for _ in range(samples):
        while True:
            npows = draw()
            dpows = draw()
            numer, denom = npows[1], dpows[1]
            if numer.is_zero() and denom.is_zero():
                continue
            if coprime_only and gcd(numer, denom).degree != 0:
                continue
            break
        val = F_form.evaluate_powers(npows, dpows)
        key = val.vector_index()
        ok = verdicts.get(key)
        if ok is None:
            ok = _passes_stripped(val, excluded)
            if len(verdicts) < POWER_CACHE_LIMIT:
                verdicts[key] = ok
        hits += ok
    return {
        "samples": samples,
        "hits": hits,
        "frequency": hits / samples,
        "seed": seed,
        "coprime_only": coprime_only,
    }
