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

`generate_family` decides each coprime pair on the monic irreducible factors
G_k of the base components, one `polyring.factor` per component: F_i is the
product of the homogenized G_k, so D_i is the product of the values
G_k(numer, denom).  deg D_i = deg f_i * deg h exactly when every value has
degree deg G_k * deg h, and, numer and denom being coprime, the product of
the D_i is squarefree exactly when every value is: two distinct factors have
a nonzero constant resultant R, and R numer^N, R denom^N lie in the ideal of
the two forms, so a prime dividing two values would divide numer and denom.
Each value gets one squarefree verdict, kept by value, and each numer and
denom its powers once; a model is built only for a member the run keeps.
The per-pair route, which multiplies the D_i and tests their product, is
`oracle.specialize`, the definitional route the tests compare against.
"""

from __future__ import annotations

from .curves import SuperellipticModel
from .errors import InputError
from .ffield import Field, FieldElem
from .polyring import Poly, factor, gcd, is_squarefree, poly_to_json

# a family report lists its members only up to this many distinct models
MEMBER_LIST_LIMIT = 200

# Most power rows and most squarefree verdicts the family generator, and the
# density sampler, keep; beyond this many distinct polynomials (values) they
# compute the row (verdict) afresh.  No spread table the sampler reads has
# more entries.
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
    """Canonical representative index of c modulo ell-th powers of constants."""
    reps = F._cache.setdefault("twist_reps", {}).get(ell)
    if reps is None:
        q = F.q
        powers = {F.index(F.pow(F.elem_at(i), ell)) for i in range(1, q)}
        reps = [0] * q
        # ascending scan: the first index met in a coset is its minimum
        for i in range(1, q):
            if reps[i] == 0:
                e = F.elem_at(i)
                for j in powers:
                    reps[F.index(F.mul(e, F.elem_at(j)))] = i
        F._cache["twist_reps"][ell] = reps
    return reps[F.index(c)]


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

    A coprime pair is decided on the factor values G_k(numer, denom)
    (`_factor_values`, see the module docstring), from the powers of numer
    and denom kept by vector index; the dedupe key comes from the monic D_i
    and the twist, and a `SuperellipticModel` is built only for a kept
    member.  At most `POWER_CACHE_LIMIT` power rows, and as many verdicts,
    are kept.
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
    F, ell = M0.field, M0.ell
    # (i, homogenized monic irreducible factors of f_i) per non-constant f_i
    parts = [
        (i, [homogenize(G) for G, _ in factor(f_i).factors])
        for i, f_i in enumerate(M0.components, start=1)
        if f_i.degree >= 1
    ]
    widest = max((G for _, forms in parts for G in forms), key=lambda G: G.degree)
    rows: dict[int, tuple] = {}  # vector index of g -> (g, [1, g, ..., g^top])
    verdicts: dict[int, bool] = {}  # vector index of a factor value -> squarefree
    one = Poly.one(F)
    seen: set = set()
    for jn, jd in _pairs_by_degree(F, n // d, report, max_pairs_per_degree):
        numer, npows = rows.get(jn) or _power_row(rows, F, jn, widest)
        denom, dpows = rows.get(jd) or _power_row(rows, F, jd, widest)
        # denom is never zero, and a nonzero constant is coprime to anything
        if numer.is_zero() or numer.degree and denom.degree and gcd(numer, denom).degree:
            continue
        if numer.is_constant() and denom.is_constant():
            continue
        deg_h = max(numer.degree, denom.degree)
        deg_stats = report.per_degree.setdefault(deg_h, {"pairs": 0, "valid": 0, "distinct": 0})
        deg_stats["pairs"] += 1
        values = _factor_values(parts, npows, dpows, deg_h, verdicts)
        if values is None:
            continue
        comps = [one] * (ell - 1)
        twist = M0.twist
        for i, vals in values:
            D = vals[0]
            for val in vals[1:]:
                D = D * val
            lead, comps[i - 1] = D.monic()
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


def _power_row(rows: dict, F: Field, index: int, widest: BinaryForm) -> tuple:
    """(g, its powers up to the degree of `widest`) for the g with this
    vector index, kept in `rows` while there is room."""
    g = Poly.from_vector_index(F, index)
    row = (g, widest.powers(g))
    if len(rows) < POWER_CACHE_LIMIT:
        rows[index] = row
    return row


def _factor_values(parts: list, npows: list, dpows: list, deg_h: int, verdicts: dict):
    """[(i, [G_k(numer, denom) for the factors G_k of f_i])] for a coprime
    pair, from the powers of numer and denom; None when a value has degree
    below deg G_k * deg h (zero included) or is not squarefree.  Verdicts
    are kept in `verdicts` by the value's vector index while there is room."""
    out = []
    for i, forms in parts:
        vals = []
        for G in forms:
            val = G.evaluate_powers(npows, dpows)
            if val.degree != G.degree * deg_h:
                return None
            key = val.vector_index()
            ok = verdicts.get(key)
            if ok is None:
                ok = is_squarefree(val)
                if len(verdicts) < POWER_CACHE_LIMIT:
                    verdicts[key] = ok
            if not ok:
                return None
            vals.append(val)
        out.append((i, vals))
    return out


def _pairs_by_degree(F: Field, max_h: int, report: FamilyReport, cap: "int | None"):
    """Vector indices (numer, denom) of the unit-normalised pairs, grouped by
    deg h ascending, stopping each degree after `cap` visited pairs if given.
    Within a degree the denominator index advances in the outer loop
    (constants first), so capped runs still sweep the full range of monic
    numerators."""
    q = F.q
    for a in range(1, max_h + 1):
        cap_a = _cap_for(cap, a)
        emitted = 0
        monic = q**a  # the vector index of t^a, the first monic of degree a
        # numer monic of degree a, denom arbitrary nonzero of degree <= a
        for jd in range(1, q ** (a + 1)):
            if cap_a is not None and emitted >= cap_a:
                break
            for jn in range(monic, 2 * monic):
                if cap_a is not None and emitted >= cap_a:
                    break
                report.raw_pairs += 1
                emitted += 1
                yield jn, jd
        # denom monic of degree a, numer arbitrary of degree < a
        for jn in range(monic):
            if cap_a is not None and emitted >= cap_a:
                break
            for jd in range(monic, 2 * monic):
                if cap_a is not None and emitted >= cap_a:
                    break
                report.raw_pairs += 1
                emitted += 1
                yield jn, jd
