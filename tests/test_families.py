import itertools

import pytest

from superell import (
    InputError,
    RationalMap,
    SuperellipticModel,
    generate_family,
    genus,
    genus_bound_degree,
    homogenize,
    numerator_divides,
    specialize,
    zeta_numerator,
)
from superell import families
from superell.census import seed_model
from superell.families import BinaryForm, FamilyReport, twist_class_index
from superell.ffield import make_field
from superell.polyring import Poly, gcd

from conftest import poly, trigonal


def test_homogenize_examples(F7):
    t = Poly.x(F7)
    form = homogenize(t**3 - t)
    # F(x, 1) = f and F(1, v) picks up the reversed coefficients
    assert form.evaluate(t, Poly.one(F7)) == t**3 - t
    assert form.degree == 3
    const = homogenize(Poly.one(F7))
    assert const.degree == 0
    f2 = homogenize(t**2 + poly(F7, 3))
    # u^2 + 3 v^2 at (u, v) = (t, t) gives 4 t^2
    assert f2.evaluate(t, t) == poly(F7, 0, 0, 4)
    with pytest.raises(InputError):
        homogenize(Poly.zero(F7))


def test_binary_form_with_v_multiplicity(F7):
    uv = BinaryForm(F7, (F7.zero(), F7.one()), degree=2)
    t = Poly.x(F7)
    assert uv.evaluate(t, t + Poly.one(F7)) == t * (t + Poly.one(F7))
    with pytest.raises(InputError):
        BinaryForm(F7, (F7.one(), F7.one()), degree=0)


def test_genus_bound_degree():
    assert genus_bound_degree(4, 1, 3) == 2
    assert genus_bound_degree(7, 7, 3) == 1
    assert genus_bound_degree(10, 1, 3) == 4


def test_rational_map_validation(F7):
    t = Poly.x(F7)
    one = Poly.one(F7)
    with pytest.raises(InputError):
        RationalMap(t, Poly.zero(F7))
    with pytest.raises(InputError):
        RationalMap(one, poly(F7, 2))  # both constant
    with pytest.raises(InputError):
        RationalMap(t * t, t)  # not coprime
    h = RationalMap(t**2 + one, t)
    assert h.degree == 2


def test_specialize_examples(F7):
    base = trigonal(F7)
    t = Poly.x(F7)
    one = Poly.one(F7)
    # h = t^2: square factor, filtered
    assert specialize(base, RationalMap(t**2, one)) is None
    # h = t^2 + 3: valid genus-4 member (t^2+3)(t^2+2)(t^2+4)
    m = specialize(base, RationalMap(t**2 + poly(F7, 3), one))
    assert m is not None and genus(m) == 4
    expect = (t**2 + poly(F7, 3)) * (t**2 + poly(F7, 2)) * (t**2 + poly(F7, 4))
    assert m.components[0] == expect
    # identity returns the base
    assert specialize(base, RationalMap(t, one)) == base


def test_specialize_degeneracy_filter(F7):
    # deg numer < deg denom drops the leading term of u^3 - u v^2 below 3 deg h
    base = trigonal(F7)
    t = Poly.x(F7)
    h = RationalMap(poly(F7, 2), t)  # 2/t
    assert specialize(base, h) is None


def test_family_base_gates(F7):
    t = Poly.x(F7)
    one = Poly.one(F7)
    bad = SuperellipticModel(3, F7, F7.one(), (t, one))  # y^3 = t
    with pytest.raises(InputError):
        specialize(bad, RationalMap(t**2 + one, one))
    with pytest.raises(InputError):
        generate_family(bad, 6)
    # normalized but a prime power: y^3 = P * Q^... with one prime only
    irr = t**3 + poly(F7, 0, 6, 0) + poly(F7, 2)
    single = SuperellipticModel(3, F7, F7.one(), (irr, one))
    from superell.polyring import is_irreducible

    if is_irreducible(irr):
        with pytest.raises(InputError):
            generate_family(single, 6)


def test_generate_family_contains_base_and_monotone(F7):
    base = trigonal(F7)
    rep3 = generate_family(base, 3)
    assert any(m == base for m in rep3.members)
    assert rep3.raw_pairs >= rep3.squarefree_pairs >= rep3.distinct_models
    rep6 = generate_family(base, 6, max_pairs_per_degree={1: 10**9, 2: 1500})
    assert rep6.distinct_models >= rep3.distinct_models
    # caps bound the work deterministically
    again = generate_family(base, 6, max_pairs_per_degree={1: 10**9, 2: 1500})
    assert [m.key() for m in again.members] == [m.key() for m in rep6.members]


def test_generate_family_below_degree_is_empty(F7):
    rep = generate_family(trigonal(F7), 2)
    assert rep.distinct_models == 0 and "note" in rep.caps
    with pytest.raises(InputError, match="--n"):
        generate_family(trigonal(F7), -1)


def test_member_invariants_sample(F7):
    base = trigonal(F7)
    P0 = zeta_numerator(base)
    rep = generate_family(base, 6, max_pairs_per_degree={1: 60, 2: 120},
                          max_members_per_degree={1: 4, 2: 4})
    assert rep.members
    g_bound = (6 - 2) * (3 - 1) // 2
    for m in rep.members:
        assert genus(m) <= g_bound
        assert m.normalized
        Pm = zeta_numerator(m)
        assert numerator_divides(P0, Pm)


def test_twist_class_dedup(F7):
    # twists differing by a cube are identified
    g = F7.elem_at(3)  # 3 generates F_7^*
    cube = F7.pow(g, 3)
    a = twist_class_index(F7, g, 3)
    b = twist_class_index(F7, F7.mul(g, cube), 3)
    assert a == b
    c = twist_class_index(F7, F7.pow(g, 2), 3)
    assert c != a


@pytest.mark.parametrize("p,e,ell", [(7, 1, 3), (2, 4, 3), (2, 4, 5), (5, 2, 3), (5, 1, 3), (2, 3, 5)])
def test_twist_class_index_is_the_least_index_of_its_coset(p, e, ell):
    # the coset of c modulo ell-th powers of constants, by brute force; when
    # ell does not divide q - 1 (F_5 and F_8 here) there is one coset
    F = make_field(p, e)
    powers = {F.pow(F.elem_at(i), ell).idx for i in range(1, F.q)}
    for i in range(1, F.q):
        coset = {F.mul(F.elem_at(i), F.elem_at(j)).idx for j in powers}
        assert twist_class_index(F, F.elem_at(i), ell) == min(coset)
    if (F.q - 1) % ell:
        assert powers == set(range(1, F.q))


def test_family_report_json(F7):
    rep = generate_family(trigonal(F7), 3)
    data = rep.to_json()
    assert data["kind"] == "family" and data["schema_version"] == 1
    assert data["distinct_models"] == len(data["members"])
    assert data["per_degree"][0]["h_degree"] == 1


@pytest.mark.slow
def test_member_divisibility_exhaustive_q7(F7):
    # every member of the full n = 6 family over F_7 (genus <= 4) inherits the
    # base numerator as a factor
    base = trigonal(F7)
    P0 = zeta_numerator(base)
    rep = generate_family(base, 6)
    g_bound = (6 - 2) * (3 - 1) // 2
    assert rep.distinct_models > 500
    for m in rep.members:
        assert genus(m) <= g_bound
        assert numerator_divides(P0, zeta_numerator(m))


def _cap(cap, degree):
    return cap if cap is None or isinstance(cap, int) else cap.get(degree)


def _pairs(F, max_h, cap):
    """The unit-normalised pairs (numer, denom) of each deg h in canonical
    order, cut after `cap` pairs of that degree: monic numerators of degree
    a over every nonzero denominator of degree <= a (denominator outer),
    then monic denominators of degree a under every numerator of degree < a
    (numerator outer)."""
    q = F.q
    for a in range(1, max_h + 1):
        first = (
            (Poly.from_index(F, a, jn), Poly.from_vector_index(F, jd))
            for jd in range(1, q ** (a + 1))
            for jn in range(q**a)
        )
        second = (
            (Poly.from_vector_index(F, jn), Poly.from_index(F, a, jd))
            for jn in range(q**a)
            for jd in range(q**a)
        )
        yield from itertools.islice(itertools.chain(first, second), _cap(cap, a))


def _family_by_pairs(M0, n, *, max_pairs_per_degree=None, max_members_per_degree=None):
    """The report of `generate_family` by the definitional route:
    `oracle.specialize` on every coprime, non-constant pair in canonical
    order, deduplicated by (components, twist class) and capped per deg h."""
    report = FamilyReport(M0, n)
    report.caps = {
        "max_pairs_per_degree": str(max_pairs_per_degree),
        "max_members_per_degree": str(max_members_per_degree),
    }
    if n < M0.d:
        report.caps["note"] = "n below base degree; family is empty"
        return report
    seen = set()
    for numer, denom in _pairs(M0.field, n // M0.d, max_pairs_per_degree):
        report.raw_pairs += 1
        if gcd(numer, denom).degree != 0 or (numer.is_constant() and denom.is_constant()):
            continue
        deg_h = max(numer.degree, denom.degree)
        stats = report.per_degree.setdefault(deg_h, {"pairs": 0, "valid": 0, "distinct": 0})
        stats["pairs"] += 1
        member = specialize(M0, RationalMap(numer, denom))
        if member is None:
            continue
        report.squarefree_pairs += 1
        stats["valid"] += 1
        key = (tuple(D.key() for D in member.components),
               twist_class_index(M0.field, member.twist, M0.ell))
        cap = _cap(max_members_per_degree, deg_h)
        if key in seen or (cap is not None and stats["distinct"] >= cap):
            continue
        seen.add(key)
        stats["distinct"] += 1
        report.members.append(member)
    report.members.sort(key=lambda m: (m.d, m.key()))
    return report


def _model(F, ell, *components):
    """y^ell = prod D_i^i over F from the coefficient lists of the D_i."""
    return SuperellipticModel(ell, F, F.one(), [Poly.from_ints(F, c) for c in components])


def _f16_base():
    F = make_field(2, 4)
    t = Poly.x(F)
    return SuperellipticModel(3, F, F.one(), (t**3 + Poly.one(F), Poly.one(F)))


_F7 = make_field(7, 1)
_F4 = make_field(2, 2)


def _f4_split_cubic():
    # t (t + 1)(t + w), w a root of t^2 + t + 1, which splits over F_4
    t, w = Poly.x(_F4), Poly.constant(_F4.elem_at(2))
    D = t * (t + Poly.one(_F4)) * (t + w)
    return SuperellipticModel(3, _F4, _F4.one(), (D, Poly.one(_F4)))
_WORKLOAD_CAPS = {"max_pairs_per_degree": {1: 60, 2: 60}, "max_members_per_degree": {1: 12, 2: 0}}

# (base, n, caps): y^3 = t^3 - t over F_7 for n = 3..6; the f25 seed with the
# family-f25-g1 caps; a base over F_4; a base with a D_2 component; a base
# with the nonlinear irreducible factor t^2 + 1 mod 7; ell = 5 over F_3; and
# y^3 = t (t + 1)^2 over F_2 up to deg h = 3.  A specialization loses degree
# in one factor value only, by at most deg h, and a loss not divisible by
# ell leaves the model not normalized; so only the last base, with
# deg h = ell, has members that the degree law alone rejects
FAMILY_CASES = {
    **{f"f7-t3-t-n{n}": (lambda: _model(_F7, 3, [0, 6, 0, 1], [1]), n, {}) for n in (3, 4, 5, 6)},
    "f25-workload": (lambda: seed_model("f25twist", 5), 6, _WORKLOAD_CAPS),
    "f4-split-cubic": (_f4_split_cubic, 6, {}),
    "f7-d2-component": (lambda: _model(_F7, 3, [0, 1], [1, 1]), 4, {"max_pairs_per_degree": {2: 4000}}),
    "f7-nonlinear-factor": (lambda: _model(_F7, 3, [0, 1, 0, 1], [1]), 6, {"max_pairs_per_degree": {2: 4000}}),
    "f3-ell5": (lambda: _model(make_field(3, 1), 5, [0, 1], [1], [1], [1, 1]), 4, {}),
    "f2-deg-h-3": (lambda: _model(make_field(2, 1), 3, [0, 1], [1, 1]), 6, {}),
}


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_generate_family_matches_the_per_pair_oracle(case):
    make, n, caps = FAMILY_CASES[case]
    base = make()
    got = generate_family(base, n, **caps)
    assert got.to_json() == _family_by_pairs(base, n, **caps).to_json()
    assert got.raw_pairs > got.squarefree_pairs >= got.distinct_models > 0


def test_generate_family_f16_matches_the_oracle_with_560_members(monkeypatch):
    # y^3 = x^3 + 1 over F_16 at n = 3, uncapped: 4,336 raw pairs, 3,360
    # valid, 560 distinct members, and a model built only for each of those
    base = _f16_base()
    built = []

    def counted(*args):
        built.append(SuperellipticModel(*args))
        return built[-1]

    monkeypatch.setattr(families, "SuperellipticModel", counted)
    got = generate_family(base, 3)
    assert (got.raw_pairs, got.squarefree_pairs, got.distinct_models) == (4336, 3360, 560)
    assert len(built) == 560
    monkeypatch.undo()
    assert got.to_json() == _family_by_pairs(base, 3).to_json()


# (base, n, caps): three linear factors over F_4, whose indices have 6 base-2
# digits up to deg h = 2, and over F_7, 3 base-7 digits
_LINEAR_CASES = {
    "f4": (_f4_split_cubic, 6, {}),
    "f7": (lambda: _model(_F7, 3, [0, 6, 0, 1], [1]), 6, {"max_pairs_per_degree": {2: 3000}}),
}


@pytest.mark.parametrize("case,limit,chunks", [("f4", 4, 3), ("f4", 2, 0), ("f7", 20, 2), ("f7", 4, 0)])
def test_generate_family_linear_factors_past_the_cache_limit(monkeypatch, case, limit, chunks):
    """With POWER_CACHE_LIMIT lowered, a linear factor's value is normalised
    in several chunks of digits, or digit by digit with no table, and rows
    and verdicts overflow their caches; the family still matches the
    per-pair oracle, and still skips the pairs whose numer and denom share a
    non-constant factor and those with a zero numerator."""
    make, n, caps = _LINEAR_CASES[case]
    base = make()
    rules = []
    real_init = families.FactorValues.__init__

    def recorded(rule, *args):
        real_init(rule, *args)
        rules.append(rule)

    monkeypatch.setattr(families.FactorValues, "__init__", recorded)
    monkeypatch.setattr(families, "POWER_CACHE_LIMIT", limit)
    got = generate_family(base, n, **caps)
    assert [len(rule.sums.chunks) for rule in rules] == [chunks]
    assert len(rules[0].rows) == limit and len(rules[0].verdicts) == limit
    monkeypatch.undo()
    assert got.to_json() == _family_by_pairs(base, n, **caps).to_json()
    pairs = list(_pairs(base.field, n // base.d, caps.get("max_pairs_per_degree")))
    zero = sum(numer.is_zero() for numer, _ in pairs)
    shared = sum(gcd(numer, denom).degree > 0 for numer, denom in pairs if not numer.is_zero())
    assert zero > 0 and shared > 0
    assert sum(s["pairs"] for s in got.per_degree.values()) == got.raw_pairs - zero - shared
