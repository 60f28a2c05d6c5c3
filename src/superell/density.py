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
decides a pair on the factors G_k of F, the factorization of F(t, 1) the
local counts read, through `families.FactorValues` (the `families` module
docstring proves the rule): every G_k(n, d) is nonzero and squarefree away
from the excluded primes, and, when F has two or more factors, no other
prime divides both n and d.  The second rule is data here, the mask bits a
pair may not share (none for one factor), so it and `--coprime-only` are
each one `&` of two masks.  Over a field of at most `ffield.ELEM_TABLE_CAP`
elements all coefficients are shared elements, so the evaluation and the
squarefree test build no new field elements.
"""

from __future__ import annotations

from . import limits
from .curves import SuperellipticModel
from .errors import InputError, InvariantViolation
from .families import BinaryForm, FactorValues, homogenize
from .polyring import Poly, factor, irreducibles, poly_to_json


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


def _form_factors(F_form: BinaryForm) -> tuple:
    """(the factors (G, e) of f = F(t, 1), the v-multiplicity deg F - deg f),
    from one `polyring.factor` of f per form, kept in the field's `_cache`."""
    field = F_form.field
    key = ("form_factors", F_form.degree, tuple(c.idx for c in F_form.coeffs))
    got = field._cache.get(key)
    if got is None:
        f = F_form.dehomogenized()
        got = field._cache[key] = (factor(f).factors, F_form.degree - f.degree)
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
    parts, s_v = _form_factors(F_form)
    roots = sum(G.degree * (1 if e == 1 else size) for G, e in parts if pi.degree % G.degree == 0)
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
    F = F_form.field
    what = f"the local factors at the primes of degree <= {deg_max} over {F}"
    limits.require_power("SUPERELL_LIMIT_CENSUS", F.q, deg_max, what)  # its factor-table level
    excluded = excluded_primes(F_form)
    excluded_keys = {p.key() for p in excluded}
    factors = []
    prod = Fraction(1)
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


def _pair_rule(F_form: BinaryForm, h_deg: int) -> tuple:
    """(the `FactorValues` of F's factors for draws of degree <= h_deg, the
    mask bits two draws may not share): the bits of the primes outside the
    excluded ones when F has two or more factors, none when one."""
    parts, _ = _form_factors(F_form)
    if any(e != 1 for _, e in parts):
        raise InvariantViolation("squarefree-product-form", f"{F_form!r} has a repeated factor")
    rule = FactorValues([G for G, _ in parts], h_deg, excluded_primes(F_form))
    return rule, rule.outside if len(parts) > 1 else 0


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
    factors of F (`_pair_rule`, and the `families` module docstring).
    """
    if h_deg < 0:
        raise InputError(f"h_deg (--h-deg) must be at least 0, got {h_deg}")
    if samples < 0:
        raise InputError(f"samples (--samples) must be at least 0, got {samples}")
    if samples == 0:
        return None
    # each sample draws two polynomials of h_deg + 1 coefficients, and its
    # values multiply them: (h_deg + 1)^2 coefficient products each
    what = f"{samples} samples of draws of degree <= {h_deg} over {M0.field}"
    limits.require("SUPERELL_LIMIT_CENSUS", samples * (h_deg + 1) ** 2, what)
    rule, shared = _pair_rule(product_form(M0), h_deg)
    mask, values, weights, q = rule.mask, rule.values, rule.weights, M0.field.q
    mult, inc, low64 = _LCG.MULT, _LCG.INC, _LCG.MASK
    state = _LCG(seed).state
    hits = 0
    for _ in range(samples):
        while True:
            n = d = 0
            for w in weights:
                state = (state * mult + inc) & low64
                n += (state >> 24) % q * w
            for w in weights:
                state = (state * mult + inc) & low64
                d += (state >> 24) % q * w
            if not (n or d):
                continue
            if coprime_only and mask(n) & mask(d):
                continue
            break
        if not (shared and mask(n) & mask(d) & shared):
            hits += values(n, d) is not None
    return {
        "samples": samples,
        "hits": hits,
        "frequency": hits / samples,
        "seed": seed,
        "coprime_only": coprime_only,
    }
