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
"""

from __future__ import annotations

from .curves import SuperellipticModel
from .errors import InputError
from .ffield import Field, FieldElem
from .polyring import Poly, factor, gcd, is_squarefree, poly_to_json

# a family report lists its members only up to this many distinct models
MEMBER_LIST_LIMIT = 200


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


def specialize(M0: SuperellipticModel, h: RationalMap) -> "SuperellipticModel | None":
    """The family member with components F_i(numer, denom), or None when a
    filter rejects it (non-squarefree product or leading-coefficient drop)."""
    _require_family_base(M0)
    return _specialize_checked(M0, h.numer, h.denom)


def _specialize_checked(
    M0: SuperellipticModel, numer: Poly, denom: Poly
) -> "SuperellipticModel | None":
    """`specialize` for a base already checked and a coprime, non-constant
    pair numer/denom."""
    F = M0.field
    deg_h = max(numer.degree, denom.degree)
    comps = []
    twist = M0.twist
    for i, f_i in enumerate(M0.components, start=1):
        if f_i.degree < 1:
            comps.append(Poly.one(F))
            continue
        Di = homogenize(f_i).evaluate(numer, denom)
        if Di.is_zero() or Di.degree != f_i.degree * deg_h:
            return None
        lead, monic = Di.monic()
        twist = F.mul(twist, F.pow(lead, i))
        comps.append(monic)
    prod = Poly.one(F)
    for D in comps:
        prod = prod * D
    if prod.degree < 1 or not is_squarefree(prod):
        return None
    member = SuperellipticModel(M0.ell, F, twist, comps)
    if not member.normalized:  # cannot happen once degrees are exact, kept as a guard
        return None
    return member


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
    """
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
    max_h = n // d
    seen: set = set()
    for numer, denom in _pairs_by_degree(M0.field, max_h, report, max_pairs_per_degree):
        if gcd(numer, denom).degree != 0:
            continue
        if numer.is_constant() and denom.is_constant():
            continue
        deg_h = max(numer.degree, denom.degree)
        deg_stats = report.per_degree.setdefault(deg_h, {"pairs": 0, "valid": 0, "distinct": 0})
        deg_stats["pairs"] += 1
        member = _specialize_checked(M0, numer, denom)
        if member is None:
            continue
        report.squarefree_pairs += 1
        deg_stats["valid"] += 1
        key = (
            tuple(D.key() for D in member.components),
            twist_class_index(M0.field, member.twist, M0.ell),
        )
        if key in seen:
            continue
        member_cap = _cap_for(max_members_per_degree, deg_h)
        if member_cap is not None and deg_stats["distinct"] >= member_cap:
            continue
        seen.add(key)
        deg_stats["distinct"] += 1
        report.members.append(member)
    report.members.sort(key=lambda m: (m.d, m.key()))
    return report


def _pairs_by_degree(F: Field, max_h: int, report: FamilyReport, cap: "int | None"):
    """Unit-normalised pairs grouped by deg h ascending, stopping each degree
    after `cap` visited pairs if given.  Within a degree the denominator index
    advances in the outer loop (constants first), so capped runs still sweep
    the full range of monic numerators."""
    q = F.q
    for a in range(1, max_h + 1):
        cap_a = _cap_for(cap, a)
        emitted = 0
        # numer monic of degree a, denom arbitrary nonzero of degree <= a
        for jd in range(q ** (a + 1)):
            if cap_a is not None and emitted >= cap_a:
                break
            denom = Poly.from_vector_index(F, jd)
            if denom.is_zero():
                continue
            for jn in range(q**a):
                if cap_a is not None and emitted >= cap_a:
                    break
                numer = Poly.from_index(F, a, jn)
                report.raw_pairs += 1
                emitted += 1
                yield numer, denom
        # denom monic of degree a, numer arbitrary of degree < a
        for jn in range(q**a):
            if cap_a is not None and emitted >= cap_a:
                break
            numer = Poly.from_vector_index(F, jn)
            for jd in range(q**a):
                if cap_a is not None and emitted >= cap_a:
                    break
                denom = Poly.from_index(F, a, jd)
                report.raw_pairs += 1
                emitted += 1
                yield numer, denom
