"""Families of superelliptic models admitting a dominant map to a fixed base.

The construction: homogenize each base component f_i to F_i(u, v), pick a
rational map h = numer/denom, and take D_i = F_i(numer, denom) made monic with
the unit absorbed into the twist.  The map (x, y) -> (h(x), y / denom^k) is
then a dominant map from the new curve to the base, so the base's Frobenius
eigenvalues (in particular a central one) transfer to every family member.

Specializations are filtered, never repaired: a candidate is dropped when the
product of components is not squarefree, when a leading-coefficient degeneracy
lowers some deg D_i below deg f_i * deg h, or (equivalently, given the degree
filter) when the result would not be normalized.

The family generator and the density sampler decide a pair (numer, denom)
on the factors of a form, through `FactorValues`.  Let F = c prod G_k, the
G_k distinct homogenized monic irreducibles.  F(numer, denom) is nonzero and
squarefree away from a set S of excluded primes exactly when (i) every value
G_k(numer, denom) is, and (ii), when F has two or more factors, no prime
outside S divides both numer and denom.  Two distinct factors have a nonzero
constant resultant R, and R numer^N, R denom^N lie in the ideal of the two
forms, so a prime dividing two factor values divides numer and denom; and a
prime dividing numer and denom divides every factor value.  So each value
gets one verdict, whichever pair or factor produces it, and the squarefree
tests run on values of degree at most deg h times the largest factor degree,
not deg h deg F.  A linear factor's value n + a d is added by `ffield.IndexSums`.

`generate_family` takes the G_k of every base component, one
`polyring.factor` per component, with S empty: F_i is the product of its
homogenized G_k, so D_i is the product of the values G_k(numer, denom), and
the pairs it decides are coprime, so (ii) holds.  deg D_i = deg f_i * deg h
exactly when every value has degree deg G_k * deg h.  A model is built only
for a member the run keeps.  The per-pair route, which multiplies the D_i
and tests their product, is `oracle.specialize`, the definitional route the
tests compare against.
"""

from __future__ import annotations

import itertools

from . import limits
from .curves import SuperellipticModel
from .errors import InputError
from .ffield import Field, FieldElem, IndexSums, power_classes
from .polyring import Poly, factor, gcd, is_squarefree, poly_to_json

# a family report lists its members only up to this many distinct models
MEMBER_LIST_LIMIT = 200

# Most rows, masks and verdicts a `FactorValues` keeps; beyond this many
# distinct draws (values) it computes a row or mask (verdict) afresh.  No spread
# table it reads has more entries.
POWER_CACHE_LIMIT = 1 << 14


class BinaryForm:
    """F(u, v) = sum coeffs[i] u^i v^{degree - i}; homogenize() of a source
    polynomial f gives degree = deg f, and degree > deg f encodes a v-factor."""

    __slots__ = ("field", "coeffs", "degree")

    def __init__(self, field: Field, coeffs, degree: "int | None" = None):
        coeffs = tuple(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = coeffs
        self.degree = len(coeffs) - 1 if degree is None else degree
        if self.degree < len(coeffs) - 1:
            raise InputError("form degree below the degree of its u-part")

    def dehomogenized(self) -> Poly:
        """F(x, 1); drops a factor v^{degree - deg} when present."""
        return Poly(self.field, self.coeffs)

    def powers(self, g: Poly) -> list[Poly]:
        """[1, g, ..., g^degree], the powers `evaluate_powers` reads."""
        out = [Poly.one(self.field)]
        for _ in range(self.degree):
            out.append(out[-1] * g)
        return out

    def evaluate(self, numer: Poly, denom: Poly) -> Poly:
        """F(numer, denom) as a polynomial in t."""
        return self.evaluate_powers(self.powers(numer), self.powers(denom))

    def evaluate_powers(self, npows: list[Poly], dpows: list[Poly]) -> Poly:
        """F(numer, denom) from the power lists of numer and denom, in one
        pass: each c_i numer^i denom^(d - i) with c_i nonzero is added into
        one coefficient list, with no intermediate polynomial."""
        F = self.field
        add, mul = F.add, F.mul
        d = self.degree
        # every term has degree at most d * max(deg numer, deg denom)
        out = [F.zero()] * max(len(npows[d].coeffs), len(dpows[d].coeffs))
        for i, c in enumerate(self.coeffs):
            if not c.idx:
                continue
            ys = dpows[d - i].coeffs
            for k, x in enumerate(npows[i].coeffs):
                if not x.idx:
                    continue
                cx = mul(c, x)
                for j, y in enumerate(ys, k):
                    if y.idx:
                        out[j] = add(out[j], mul(cx, y))
        return Poly(F, out)

    def __repr__(self):
        return f"BinaryForm(deg {self.degree}, f = {self.dehomogenized()!r})"

    def to_json(self) -> dict:
        return {
            "field": self.field.descriptor(),
            "degree": self.degree,
            "coeffs": poly_to_json(self.dehomogenized()),
        }


def homogenize(f: Poly) -> BinaryForm:
    if f.is_zero():
        raise InputError("cannot homogenize the zero polynomial")
    return BinaryForm(f.field, f.coeffs)


class RationalMap:
    """h = numer/denom, coprime and not both constant; deg h = max of degrees."""

    __slots__ = ("numer", "denom")

    def __init__(self, numer: Poly, denom: Poly):
        if denom.is_zero():
            raise InputError("rational map with zero denominator")
        if numer.is_constant() and denom.is_constant():
            raise InputError("rational map must be non-constant")
        if gcd(numer, denom).degree != 0:
            raise InputError("numer and denom must be coprime")
        self.numer = numer
        self.denom = denom

    @property
    def degree(self) -> int:
        return max(self.numer.degree, self.denom.degree)

    def __repr__(self):
        return f"RationalMap(({self.numer!r}) / ({self.denom!r}))"


def _require_family_base(M0: SuperellipticModel) -> None:
    if M0.ell == 2 or M0.ell % 2 == 0:
        raise InputError("family bases need odd prime ell")
    if not M0.normalized:
        raise InputError("family base must be normalized (sum i*deg D_i = 0 mod ell)")
    if factor(M0.radical()).num_prime_factors() < 2:
        raise InputError("family base must not be a power of an irreducible polynomial")


def twist_class_index(F: Field, c: FieldElem, ell: int) -> int:
    """The smallest index of a constant in the class of c modulo ell-th
    powers of constants (`ffield.power_classes`)."""
    classes = power_classes(F, ell)
    return classes.index(classes[c.idx], 1)


class FactorValues:
    """The values G_k(numer, denom) of distinct monic irreducibles G_k,
    homogenized, at pairs of draws of degree <= h_deg, each draw given by its
    `vector_index`, with one verdict per value: nonzero and squarefree away
    from the `excluded` primes (see the module docstring).

    A draw g has a row (powers, code, codes): powers is [1, g, ...] up to
    the largest degree of a nonlinear G_k, for `BinaryForm.evaluate_powers`;
    code is the `ffield.IndexSums` code of g's index, all of its
    e (h_deg + 1) base-p digits, and codes holds that of a g for each linear
    factor t + a.  The value n + a d of a linear factor is then the
    `IndexSums.add` of two codes, with tables of at most `POWER_CACHE_LIMIT`
    entries.  All factors share one verdict per value, keyed by its
    `vector_index`.  A draw's mask, the bitmask of the primes dividing it,
    is made only when a rule reads it (`mask`).  At most `POWER_CACHE_LIMIT`
    rows, as many masks and as many verdicts are kept.  `factors` lists the
    G_k in the order `values` gives them: the linear ones first."""

    def __init__(self, factors: list[Poly], h_deg: int, excluded: list[Poly]):
        F = factors[0].field
        self.field = F
        self.factors = [G for G in factors if G.degree == 1] + [G for G in factors if G.degree > 1]
        self.excluded = excluded
        # primes get bits as draws meet them, the excluded ones first
        self.bits = {P.key(): 1 << i for i, P in enumerate(excluded)}
        self.outside = ~((1 << len(excluded)) - 1)  # the bits of every other prime
        self.shifts = [G.coeffs[0] for G in self.factors if G.degree == 1]
        self.forms = [homogenize(G) for G in self.factors if G.degree > 1]
        self.widest = max(self.forms, key=lambda G: G.degree, default=None)
        self.weights = [F.q**k for k in range(h_deg + 1)]
        self.sums = IndexSums(F.p, F.e * (h_deg + 1), POWER_CACHE_LIMIT)
        self.rows: dict[int, tuple] = {}
        self.masks: dict[int, int] = {}
        self.verdicts: dict[int, bool] = {}

    def _row(self, index: int) -> tuple:
        """The row of the draw with this index, kept while there is room."""
        F, code, weights = self.field, self.sums.code, self.weights
        g = Poly.from_vector_index(F, index)
        powers = None if self.widest is None else self.widest.powers(g)
        codes = [
            code(sum(F.mul(a, c).idx * w for c, w in zip(g.coeffs, weights)))
            for a in self.shifts
        ]
        row = powers, code(index), codes
        if len(self.rows) < POWER_CACHE_LIMIT:
            self.rows[index] = row
        return row

    def mask(self, index: int) -> int:
        """The bitmask of the primes dividing the draw with this index (every
        bit for 0), from the `polyring.factor` of its monic associate."""
        mask = self.masks.get(index)
        if mask is None:
            g = Poly.from_vector_index(self.field, index)
            if g.is_zero():
                mask = -1
            elif not g.is_monic():
                mask = self.mask(g.monic()[1].vector_index())
            else:
                mask, bits = 0, self.bits
                for P, _ in factor(g).factors:
                    mask |= bits.setdefault(P.key(), 1 << len(bits))
            if len(self.masks) < POWER_CACHE_LIMIT:
                self.masks[index] = mask
        return mask

    def _verdict(self, key: int, val: Poly) -> bool:
        """Whether val is nonzero and squarefree away from the excluded
        primes, kept while there is room."""
        ok = not val.is_zero()
        if ok:
            for pi in self.excluded:
                while True:
                    quo, rem = divmod(val, pi)
                    if not rem.is_zero():
                        break
                    val = quo
            ok = val.degree == 0 or is_squarefree(val)
        if len(self.verdicts) < POWER_CACHE_LIMIT:
            self.verdicts[key] = ok
        return ok

    def values(self, jn: int, jd: int) -> "list[int] | None":
        """The vector indices of the values G_k(numer, denom), in the order
        of `factors`, for the draws numer and denom with these indices; None
        as soon as one fails its verdict."""
        rows = self.rows
        npows, ncode, _ = rows.get(jn) or self._row(jn)
        dpows, _, dcodes = rows.get(jd) or self._row(jd)
        verdicts, add = self.verdicts, self.sums.add
        out = []
        for acode in dcodes:
            key = add(ncode, acode)
            ok = verdicts.get(key)
            if ok is None:
                ok = self._verdict(key, Poly.from_vector_index(self.field, key))
            if not ok:
                return None
            out.append(key)
        for G in self.forms:
            val = G.evaluate_powers(npows, dpows)
            key = val.vector_index()
            ok = verdicts.get(key)
            if ok is None:
                ok = self._verdict(key, val)
            if not ok:
                return None
            out.append(key)
        return out


class FamilyReport:
    """Counts and members from one family enumeration."""

    def __init__(self, base: SuperellipticModel, n: int):
        self.base = base
        self.n = n
        self.raw_pairs = 0
        self.squarefree_pairs = 0
        self.members: list[SuperellipticModel] = []
        self.per_degree: dict[int, dict] = {}
        self.caps: dict = {}

    @property
    def distinct_models(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        out = {
            "schema_version": 1,
            "kind": "family",
            "base": self.base.to_json(),
            "n": self.n,
            "raw_pairs": self.raw_pairs,
            "squarefree_pairs": self.squarefree_pairs,
            "distinct_models": self.distinct_models,
            "per_degree": [
                {"h_degree": d, **stats} for d, stats in sorted(self.per_degree.items())
            ],
            "caps": self.caps,
        }
        if self.distinct_models <= MEMBER_LIST_LIMIT:
            out["members"] = [m.to_json() for m in self.members]
        else:
            out["members_elided"] = True
        return out


def _cap_for(cap, degree: int) -> "int | None":
    if cap is None or isinstance(cap, int):
        return cap
    return cap.get(degree)


def _require_pairs(q: int, max_h: int, cap, what: str) -> int:
    """The highest deg h <= max_h with a pair to visit, 0 when none has;
    first refuse, through `limits.require`, a family whose pairs to visit,
    the sum over deg h = a of min(cap_a, pairs_a), pass
    SUPERELL_LIMIT_CENSUS.  pairs_a = q^a (q^(a+1) - 1) + q^(2a) are the
    pairs of `_pairs_by_degree` at degree a.  An uncapped degree is refused
    by q^(2a) < pairs_a before pairs_a is computed, and a cap below
    4^a <= pairs_a is the degree's count, so no power above the limit or
    the caps is taken."""
    total = top = 0
    for a in range(1, max_h + 1):
        cap_a = _cap_for(cap, a)
        if cap_a is None:
            limits.require_power("SUPERELL_LIMIT_CENSUS", q, 2 * a, what)
        elif cap_a.bit_length() <= 2 * a:
            if isinstance(cap, int):  # and so at every later degree
                total += cap * (max_h - a + 1)
                top = max_h if cap else top
                break
            total += cap_a
            top = a if cap_a else top
            continue
        pairs = q**a * (q ** (a + 1) + q**a - 1)
        total += pairs if cap_a is None else min(cap_a, pairs)
        top = a
    limits.require("SUPERELL_LIMIT_CENSUS", total, what)
    return top


def generate_family(
    M0: SuperellipticModel,
    n: int,
    *,
    max_pairs_per_degree=None,
    max_members_per_degree=None,
) -> FamilyReport:
    """All distinct valid specializations with sum deg D_i <= n, deduplicated by
    (component tuple, twist class mod ell-th powers).

    The optional caps (an int, or a dict keyed by deg h) bound the enumeration
    deterministically; pairs are visited in canonical order.  They exist
    because the full pair count ~ q^(2 deg h + 1) is infeasible for larger
    fields.  Reported raw/filtered counts refer to the pairs actually visited.

    A pair is decided by `FactorValues` (see the module docstring): numer
    and denom must share no prime, by their masks, and every factor value
    must pass its verdict and have its full degree, read from its index.
    The dedupe key comes from the monic D_i and the twist, and a
    `SuperellipticModel` is built only for a kept member.
    """
    if n < 0:
        raise InputError(f"n (--n) must be at least 0, got {n}")
    _require_family_base(M0)
    d = M0.d
    report = FamilyReport(M0, n)
    report.caps = {
        "max_pairs_per_degree": str(max_pairs_per_degree),
        "max_members_per_degree": str(max_members_per_degree),
    }
    if n < d:
        report.caps["note"] = "n below base degree; family is empty"
        return report
    F, ell, q = M0.field, M0.ell, M0.field.q
    what = f"the (numer, denom) pairs of a family of deg h <= {n // d} over {F}"
    max_h = _require_pairs(q, n // d, max_pairs_per_degree, what)
    # (G, i) for the monic irreducible factors G of each non-constant f_i
    parts = [
        (G, i)
        for i, f_i in enumerate(M0.components, start=1)
        if f_i.degree >= 1
        for G, _ in factor(f_i).factors
    ]
    rule = FactorValues([G for G, _ in parts], max_h, [])
    mask, values = rule.mask, rule.values
    owners = {G.key(): i for G, i in parts}
    owner = [owners[G.key()] for G in rule.factors]
    nonconstant = sorted(set(owner))
    # a value has degree deg G_k * deg h exactly when its index reaches this
    floors = {a: [q ** (G.degree * a) for G in rule.factors] for a in range(1, max_h + 1)}
    one = Poly.one(F)
    seen: set = set()
    for deg_h, jn, jd in _pairs_by_degree(F, max_h, report, max_pairs_per_degree):
        # numer and denom share no prime; a constant denom has no bit, so the
        # numer's mask is not made, and a zero numer has every bit
        dmask = mask(jd)
        if dmask and dmask & mask(jn):
            continue
        deg_stats = report.per_degree.setdefault(deg_h, {"pairs": 0, "valid": 0, "distinct": 0})
        deg_stats["pairs"] += 1
        keys = values(jn, jd)
        if keys is None or any(key < floor for key, floor in zip(keys, floors[deg_h])):
            continue
        comps = [one] * (ell - 1)
        for i, key in zip(owner, keys):
            comps[i - 1] = comps[i - 1] * Poly.from_vector_index(F, key)
        twist = M0.twist
        for i in nonconstant:
            lead, comps[i - 1] = comps[i - 1].monic()
            twist = F.mul(twist, F.pow(lead, i))
        degrees = [D.degree for D in comps]
        # cannot fail once every value has its full degree, kept as guards
        if sum(degrees) < 1 or sum(i * k for i, k in enumerate(degrees, start=1)) % ell:
            continue
        report.squarefree_pairs += 1
        deg_stats["valid"] += 1
        key = (tuple(D.key() for D in comps), twist_class_index(F, twist, ell))
        if key in seen:
            continue
        member_cap = _cap_for(max_members_per_degree, deg_h)
        if member_cap is not None and deg_stats["distinct"] >= member_cap:
            continue
        seen.add(key)
        deg_stats["distinct"] += 1
        report.members.append(SuperellipticModel(ell, F, twist, comps))
    report.members.sort(key=lambda m: (m.d, m.key()))
    return report


def _pairs_by_degree(F: Field, max_h: int, report: FamilyReport, cap: "int | None"):
    """(deg h, numer, denom), numer and denom by vector index, for the
    unit-normalised pairs, grouped by deg h ascending, stopping each degree
    after `cap` visited pairs if given.  Within a degree the denominator
    index advances in the outer loop (constants first), so capped runs still
    sweep the full range of monic numerators."""
    q = F.q
    for a in range(1, max_h + 1):
        monic = q**a  # the vector index of t^a, the first monic of degree a
        # numer monic of degree a, denom arbitrary nonzero of degree <= a;
        # then denom monic of degree a, numer arbitrary of degree < a
        sweep_1 = ((jn, jd) for jd in range(1, q ** (a + 1)) for jn in range(monic, 2 * monic))
        sweep_2 = ((jn, jd) for jn in range(monic) for jd in range(monic, 2 * monic))
        for jn, jd in itertools.islice(itertools.chain(sweep_1, sweep_2), _cap_for(cap, a)):
            report.raw_pairs += 1
            yield a, jn, jd
