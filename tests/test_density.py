from fractions import Fraction

import pytest

from superell import (
    InvariantViolation,
    ResourceLimit,
    SuperellipticModel,
    empirical_density,
    excluded_primes,
    homogenize,
    local_factor,
    make_field,
    truncated_density,
)
import superell.density as density_mod
from superell.density import LocalFactor, _LCG, product_form
import superell.families as families_mod
import superell.ffield as ffield_mod
from superell.families import BinaryForm, FactorValues
from superell.oracle import (
    exhaustive_squarefree_count,
    local_count_brute,
    monics,
    passes_squarefree_filter,
    squarefree_density_exact,
    squarefree_frequency,
)
from superell.polyring import Poly, gcd, irreducibles

from conftest import poly, trigonal


def test_local_factor_uv_example(F7):
    uv = BinaryForm(F7, (F7.zero(), F7.one()), degree=2)
    lf = local_factor(uv, Poly.x(F7))
    assert lf.c == 133
    assert lf.factor == Fraction(2268, 2401)
    assert local_count_brute(uv, Poly.x(F7)) == 133


def test_constant_form(F7):
    one_form = BinaryForm(F7, (F7.one(),), degree=0)
    lf = local_factor(one_form, Poly.x(F7))
    assert lf.c == 0 and lf.factor == 1


def test_flagged_zero_scenario(F7):
    # by definition: c = |pi|^4 forces factor 0 (the excluded-prime scenario)
    lf = LocalFactor(prime=Poly.x(F7), c=7**4, factor=Fraction(0))
    assert lf.flagged_zero
    assert not local_factor(BinaryForm(F7, (F7.zero(), F7.one()), degree=2), Poly.x(F7)).flagged_zero


def test_truncated_density_rejects_vanishing_factor(F7, monkeypatch):
    form = homogenize(Poly.x(F7) ** 3 - Poly.x(F7))

    def fake(F_form, pi):
        return LocalFactor(prime=pi, c=F7.q**4, factor=Fraction(0))

    monkeypatch.setattr(density_mod, "local_factor", fake)
    with pytest.raises(InvariantViolation):
        density_mod.truncated_density(form, 1)


def test_shortcut_matches_brute_force(F7):
    F3 = make_field(3, 1)
    trig7 = product_form(trigonal(F7))
    for pi in irreducibles(F7, 1):
        assert local_count_brute(trig7, pi) == local_factor(trig7, pi).c
    # quadratic primes at a smaller field, plus a form with u and v factors
    t3 = Poly.x(F3)
    cubic3 = homogenize(t3**3 + t3**2 + poly(F3, 1))
    uvw = BinaryForm(F3, (F3.zero(), F3.one(), F3.one()), degree=3)  # u v (u + v)... = (x + x^2) v
    for pi in list(irreducibles(F3, 1)) + list(irreducibles(F3, 2))[:2]:
        assert local_count_brute(cubic3, pi) == local_factor(cubic3, pi).c
        assert local_count_brute(uvw, pi) == local_factor(uvw, pi).c

    # u- and v-multiplicities up to 3, repeated factors, deg F = 0 and 1, at
    # the primes of degree 1 to 3 with at most 5,000 pairs mod pi^2
    F2, F4 = make_field(2, 1), make_field(2, 2)
    forms = [
        (F3, (0, 0, 1, 1), 5),  # u^2 v^2 (u + v): s_u = s_v = 2
        (F3, (0, 0, 0, 1), 3),  # u^3
        (F3, (1,), 3),  # v^3
        (F3, (1, 2, 2, 2, 1), 6),  # (u + v)^2 (u^2 + v^2) v^2
        (F3, (2,), None),  # deg F = 0
        (F3, (1, 1), None),  # u + v
        (F3, (0, 1), None),  # u
        (F3, (1,), 1),  # v
        (F2, (1, 1, 1, 0, 0, 1), 7),  # (u + v)^2 (u^3 + u v^2 + v^3) v^2
        (F2, (0, 0, 1, 0, 1), 4),  # u^2 (u + v)^2: no simple root
        (F4, (0, 1, 2, 3), 4),  # a unit times u (u + v) (u + w v) v
    ]
    for F, ints, degree in forms:
        form = BinaryForm(F, poly(F, *ints).coeffs, degree)
        for k in range(1, 4):
            if F.q ** (4 * k) > 5000:
                break
            for pi in irreducibles(F, k)[:2]:
                assert local_count_brute(form, pi) == local_factor(form, pi).c, (form, pi)


def test_unit_scaling_invariance(F7):
    t = Poly.x(F7)
    f = t**3 - t
    form = homogenize(f)
    scaled = homogenize(f * Poly.constant(F7.elem_at(3)))
    for pi in irreducibles(F7, 1)[:3]:
        assert local_factor(form, pi).c == local_factor(scaled, pi).c


def test_excluded_primes_examples(F7):
    t = Poly.x(F7)
    assert excluded_primes(homogenize(t**6 - t)) == []
    d8 = BinaryForm(F7, tuple([F7.one()] * 9))
    assert d8.degree == 8
    assert [p.degree for p in excluded_primes(d8)] == [1] * 7
    F2 = make_field(2, 1)
    d3 = BinaryForm(F2, tuple([F2.one()] * 4))
    assert {repr(p) for p in excluded_primes(d3)} == {"Poly(t)", "Poly(t + 1)"}


def test_truncated_density_monotone(F7):
    form = product_form(trigonal(F7))
    d0 = truncated_density(form, 0).truncated_product
    d1 = truncated_density(form, 1).truncated_product
    d2 = truncated_density(form, 2).truncated_product
    assert d0 == 1
    assert d0 >= d1 >= d2 > 0


def test_m1_oracle(F7):
    assert squarefree_density_exact(7) == Fraction(6, 7)
    for d in range(2, 6):
        assert squarefree_frequency(F7, d) == Fraction(6, 7)
    assert squarefree_frequency(F7, 1) == 1
    # the sieve count agrees with a direct gcd-based scan
    from superell.polyring import is_squarefree

    direct = sum(1 for f in monics(F7, 3) if is_squarefree(f))
    assert exhaustive_squarefree_count(F7, 3) == direct
    # over extensions, q^d - q^(d-1) from degree 2 on
    for F, dmax in ((make_field(2, 2), 5), (make_field(5, 2), 3)):
        for d in range(2, dmax + 1):
            assert exhaustive_squarefree_count(F, d) == F.q**d - F.q ** (d - 1), (F, d)


def test_m1_oracle_limit_names_its_variable(F7, monkeypatch):
    monkeypatch.setenv("SUPERELL_LIMIT_CENSUS", "100")
    with pytest.raises(ResourceLimit, match="SUPERELL_LIMIT_CENSUS >= 343"):
        exhaustive_squarefree_count(F7, 3)


def test_empirical_density_deterministic(F7):
    base = trigonal(F7)
    a = empirical_density(base, 2, 500, seed=42)
    b = empirical_density(base, 2, 500, seed=42)
    assert a == b
    assert empirical_density(base, 2, 0, seed=42) is None
    c = empirical_density(base, 2, 500, seed=43)
    assert c["seed"] == 43


def test_empirical_close_to_truncated(F7):
    base = trigonal(F7)
    form = product_form(base)
    trunc = truncated_density(form, 2).truncated_product
    emp = empirical_density(base, 2, 2000, seed=7)
    assert abs(emp["frequency"] - float(trunc)) < 0.05
    # conditioning on coprime pairs inflates the frequency by about q/(q-1)
    emp_c = empirical_density(base, 2, 2000, seed=7, coprime_only=True)
    assert emp_c["frequency"] > emp["frequency"]


def test_q2_toy_base_with_excluded_primes():
    F2 = make_field(2, 1)
    t = Poly.x(F2)
    one = Poly.one(F2)
    base = SuperellipticModel(3, F2, F2.one(), (t * (t**2 + t + one), one))
    form = product_form(base)
    assert len(excluded_primes(form)) == 2
    rep = truncated_density(form, 2)
    emp = empirical_density(base, 2, 4000, seed=5)
    assert abs(emp["frequency"] - float(rep.truncated_product)) < 0.2


def test_density_report_json(F7):
    form = product_form(trigonal(F7))
    rep = truncated_density(form, 1)
    rep.empirical = {"samples": 0}  # as the CLI sets it
    data = rep.to_json()
    assert data["kind"] == "density"
    assert data["truncated_product"]["den"].isdigit()


def test_brute_force_guard(F7):
    big = BinaryForm(F7, tuple([F7.one()] * 3))
    with pytest.raises(ResourceLimit):
        local_count_brute(big, irreducibles(F7, 4)[0])


def _replayed_hits(base, h_deg, samples, seed, coprime_only):
    """The sampler's hit count recomputed draw by draw: the same digits from
    the same generator, each pair tested from scratch by
    `passes_squarefree_filter`."""
    form = product_form(base)
    excluded = excluded_primes(form)
    F = base.field
    rng = _LCG(seed)

    def draw():
        return Poly(F, [F.elem_at(rng.below(F.q)) for _ in range(h_deg + 1)])

    hits = 0
    for _ in range(samples):
        while True:
            numer, denom = draw(), draw()
            if numer.is_zero() and denom.is_zero():
                continue
            if coprime_only and gcd(numer, denom).degree != 0:
                continue
            break
        hits += passes_squarefree_filter(form, numer, denom, excluded)
    return hits


def _sampler_bases():
    F2, F3, F4, F7, F25, F101 = (make_field(p, e) for p, e in
                                 ((2, 1), (3, 1), (2, 2), (7, 1), (5, 2), (101, 1)))
    t2, t3, t4, t7, t101 = Poly.x(F2), Poly.x(F3), Poly.x(F4), Poly.x(F7), Poly.x(F101)
    one4, one7 = Poly.one(F4), Poly.one(F7)
    w4 = Poly.constant(F4.elem_at(2))
    return {
        "F7": (trigonal(F7), 2),
        # the two primes of degree 1 are excluded, and h = 0 makes (0, 0) draws
        "F2": (SuperellipticModel(3, F2, F2.one(), (t2 * (t2**2 + t2 + Poly.one(F2)),
                                                    Poly.one(F2))), 2),
        "F2-h0": (SuperellipticModel(3, F2, F2.one(), (t2 * (t2 + Poly.one(F2)),
                                                       Poly.one(F2))), 0),
        "F3": (SuperellipticModel(2, F3, F3.one(), (t3**3 - t3,)), 2),
        "F4": (SuperellipticModel(3, F4, F4.one(), (t4**3 + t4 + one4, one4)), 1),
        "F25": (trigonal(F25), 1),
        # a linear factor times an irreducible quadratic
        "F7-lin-quad": (SuperellipticModel(3, F7, F7.one(), (t7 * (t7**2 + one7), one7)), 2),
        # irreducible: no coprimality rule
        "F7-cubic": (SuperellipticModel(3, F7, F7.one(), (t7**3 + poly(F7, 2), one7)), 2),
        "F7-two-comp": (SuperellipticModel(3, F7, F7.one(),
                                           ((t7**2 + one7) * (t7 + poly(F7, 3)), t7)), 1),
        # the three primes of degree 1 are excluded
        "F3-ell2": (SuperellipticModel(2, F3, F3.one(), (t3 * (t3**2 + Poly.one(F3)),)), 2),
        "F4-lines": (SuperellipticModel(3, F4, F4.one(), (t4 * (t4 + one4) * (t4 + w4), one4)), 2),
        "F7-t": (SuperellipticModel(3, F7, F7.one(), (t7, one7)), 2),
        # at h = 2 the oracle's factor table would pass the census limit
        "F25-h0": (trigonal(F25), 0),
        # 201^2 > POWER_CACHE_LIMIT: a value is normalised in chunks of 2 and 1
        # digits; the oracle reads factor table level 2 (10,201 monics)
        "F101": (SuperellipticModel(3, F101, F101.one(), (t101 + Poly.one(F101),
                                                          Poly.one(F101))), 2),
    }


@pytest.mark.parametrize("coprime_only", [False, True])
@pytest.mark.parametrize("name", ["F7", "F2", "F2-h0", "F3", "F4", "F25", "F7-lin-quad",
                                  "F7-cubic", "F7-two-comp", "F3-ell2", "F4-lines", "F7-t",
                                  "F25-h0", "F101"])
def test_sampler_matches_per_sample_filter(name, coprime_only):
    base, h_deg = _sampler_bases()[name]
    emp = empirical_density(base, h_deg, 300, seed=11, coprime_only=coprime_only)
    assert emp["hits"] == _replayed_hits(base, h_deg, 300, 11, coprime_only)


@pytest.mark.parametrize("name,h_deg", [
    ("F3", 0), ("F3", 1), ("F3-ell2", 0), ("F3-ell2", 1), ("F4", 0), ("F4", 1), ("F4-lines", 0),
    ("F4-lines", 1), ("F7", 1), ("F7-lin-quad", 1), ("F7-cubic", 1), ("F7-two-comp", 1),
    ("F7-t", 1),
])
def test_factor_rule_on_every_pair_of_the_box(name, h_deg):
    """The sampler's per-pair decision on factor values and prime masks
    against the oracle on the full value, and the masks against gcd, on
    every pair."""
    base = _sampler_bases()[name][0]
    form = product_form(base)
    excluded = excluded_primes(form)
    F = base.field
    rule, shared = density_mod._pair_rule(form, h_deg)
    box = [Poly.from_vector_index(F, j) for j in range(F.q ** (h_deg + 1))]
    for j, numer in enumerate(box):
        for k, denom in enumerate(box):
            if not (j or k):
                continue
            common = rule.mask(j) & rule.mask(k)
            passes = not common & shared and rule.values(j, k) is not None
            assert passes == passes_squarefree_filter(form, numer, denom, excluded), (numer, denom)
            assert bool(common) == (gcd(numer, denom).degree != 0), (numer, denom)


def test_density_run_factors_its_form_once(monkeypatch, F7):
    # the local counts and the sampler read one factorization of F(t, 1)
    t = Poly.x(F7)
    base = SuperellipticModel(3, F7, F7.one(), (t * (t + poly(F7, 2)) * (t + poly(F7, 5)), Poly.one(F7)))
    forms = []

    def recorded(f):
        forms.append(f)
        return real(f)

    real = density_mod.factor
    monkeypatch.setattr(density_mod, "factor", recorded)
    monkeypatch.setattr(F7, "_cache", {})  # nothing factored yet
    truncated_density(product_form(base), 2)
    empirical_density(base, 1, 50, seed=1)
    assert forms == [product_form(base).dehomogenized()]


def test_factor_rule_needs_a_squarefree_form(F7):
    t = Poly.x(F7)
    with pytest.raises(InvariantViolation, match="squarefree-product-form"):
        density_mod._pair_rule(homogenize(t**2 * (t + Poly.one(F7))), 1)


def test_sampler_past_its_power_cache(monkeypatch):
    rows, verdicts = [], []
    real_row, real_verdict = FactorValues._row, FactorValues._verdict
    limit = families_mod.POWER_CACHE_LIMIT

    def counted_row(rule, index):
        rows.append(index)
        return real_row(rule, index)

    def counted_verdict(rule, key, val):
        verdicts.append(val.vector_index())
        return real_verdict(rule, key, val)

    monkeypatch.setattr(FactorValues, "_row", counted_row)
    monkeypatch.setattr(FactorValues, "_verdict", counted_verdict)
    # F2 has excluded primes, F25 is an extension field, F7-lin-quad has a
    # factor of degree 2, and F7, F2 and F7-lin-quad have several factors
    for name in ("F7", "F25", "F2", "F7-lin-quad"):
        base, h_deg = _sampler_bases()[name]
        monkeypatch.setattr(families_mod, "POWER_CACHE_LIMIT", limit)
        rows.clear()
        verdicts.clear()
        full = empirical_density(base, h_deg, 300, seed=3)
        # one row per distinct draw and one verdict per distinct value, whichever
        # factors produce it
        drawn, values = len(rows), len(verdicts)
        assert drawn == len(set(rows)) > 4 and values == len(set(verdicts)) > 4, name
        rows.clear()
        verdicts.clear()
        monkeypatch.setattr(families_mod, "POWER_CACHE_LIMIT", 4)
        assert empirical_density(base, h_deg, 300, seed=3) == full, name
        # past the bound both are computed again for what the caches could not keep
        assert len(rows) > drawn and len(verdicts) > values, name


def test_sampler_spread_tables_fit_the_cache_limit(monkeypatch):
    """At F_4093 and F_625, h = 2, every spread table the sampler reads has
    at most POWER_CACHE_LIMIT entries and a value takes two chunks; with the
    limit at 4 no digit's tables fit, values are normalised digit by digit,
    and 200 samples give the same hits."""
    real, full_limit = ffield_mod.spread_coding, families_mod.POWER_CACHE_LIMIT
    codings = []

    def recorded(p, dim):
        codings.append(real(p, dim))
        return codings[-1]

    monkeypatch.setattr(ffield_mod, "spread_coding", recorded)
    for p, e in ((4093, 1), (5, 4)):
        base = trigonal(make_field(p, e))
        for limit in (full_limit, 4):
            monkeypatch.setattr(families_mod, "POWER_CACHE_LIMIT", limit)
            codings.clear()
            rule, _ = density_mod._pair_rule(product_form(base), 2)
            assert len(rule.sums.chunks) == (2 if limit == full_limit else 0), (p, e, limit)
            hits = empirical_density(base, 2, 200, seed=4)["hits"]
            assert codings and all(max(len(c.norm_lo), len(c.norm_hi)) <= limit
                                   for c in codings), (p, e, limit)
            if limit == full_limit:
                full = hits
            assert hits == full, (p, e)
