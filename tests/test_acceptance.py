"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion is exact except the single statistical tolerance in criterion
8, which is pinned at 0.05 absolute.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from fractions import Fraction

from superell import (
    SuperellipticModel,
    char_from_model,
    count_order_ell_exact,
    count_points,
    enumerate_order_ell,
    genus,
    has_central_eigenvalue,
    l_polynomial,
    make_field,
    numerator_divides,
    strip_trivial_factor,
    zeta_numerator,
)
from superell.census import (
    decomposition_check,
    model_from_char,
    run_census,
    seed_check,
)
from superell.density import empirical_density, local_factor, product_form, truncated_density
from superell.families import BinaryForm, generate_family
from superell.lfunction import (
    central_value_is_zero,
    l_polynomials,
    rescale_by_root,
    twist_exponent,
)
from superell.oracle import (
    count_all_primitive,
    predicted_count,
    squarefree_density_exact,
    squarefree_frequency,
)
from superell.polyring import Poly, factor

from test_characters import primitive_count_oracle


def _report(num: int, name: str, started: float, ok: bool = True):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {name} ({time.time() - started:.1f}s)")
    assert ok


def test_criterion_1_counting_formulas_exact():
    t0 = time.time()
    for q in (5, 7):
        F = make_field(q, 1)
        for d in (0, 1, 2):
            brute = primitive_count_oracle(F, d)
            formula = count_all_primitive(q, d)
            assert brute == formula, (q, d, brute, formula)
    _report(1, "primitive character counts match brute-force enumeration (q=5,7; d<=2)", t0)


def test_criterion_2_order_ell_counts_exact():
    t0 = time.time()
    F7 = make_field(7, 1)
    chars = enumerate_order_ell(F7, 3, 4)
    by_deg: dict = {}
    by_conductor: dict = {}
    for chi in chars:
        by_deg[chi.degree] = by_deg.get(chi.degree, 0) + 1
        key = chi.conductor.key()
        by_conductor.setdefault(key, []).append(chi)
    for d in (1, 2, 3, 4):
        assert by_deg[d] == count_order_ell_exact(7, 3, d), d
    # (ell-1)^r characters over each squarefree conductor
    for key, chis in by_conductor.items():
        r = factor(chis[0].conductor).num_prime_factors()
        assert len(chis) == 2**r
    assert by_deg == {1: 14, 2: 126, 3: 1092, 4: 9240}
    _report(2, "order-3 counts equal truncated Euler product coefficients (q=7, d<=4)", t0)


def test_criterion_3_zeta_l_decomposition():
    t0 = time.time()
    F7 = make_field(7, 1)
    # >= 25 normalized cubic models over F_7 with d <= 5, spread over
    # degrees, each with its character
    models = []
    per_degree_quota = {2: 6, 3: 7, 4: 7, 5: 7}
    for d in range(2, 6):
        found = 0
        for chi in enumerate_order_ell(F7, 3, d):
            if chi.degree != d or not chi.even:
                continue
            models.append((model_from_char(chi), chi))
            found += 1
            if found >= per_degree_quota[d]:
                break
    assert len(models) >= 25
    for m, chi in models:
        # decomposition_check recomputes P by counting and multiplies the
        # stripped L-polynomials of chi and chi^2, computed here; ZetaNum
        # construction enforces the functional equation and zeta_numerator
        # enforces the Weil bounds.
        assert decomposition_check(m, chi, l_polynomials([chi, chi.power(2)])), m
        P = zeta_numerator(m)
        g = P.g
        for i in range(g + 1):
            assert P.coeffs[2 * g - i] == 7 ** (g - i) * P.coeffs[i]
    _report(3, f"P(T) = product of stripped L for {len(models)} normalized models (d<=5)", t0)


CENSUS_STATE: dict = {}


def _census_q7_n4():
    if "report" not in CENSUS_STATE:
        CENSUS_STATE["report"] = run_census(7, 1, 3, 4, sample_decomp=25)
    return CENSUS_STATE["report"]


def test_criterion_4_duality_across_census():
    t0 = time.time()
    rep = _census_q7_n4()
    # run_census raises on any duality-closure failure; double-check the flag
    # and the per-degree A-counts here.
    assert rep.duality_ok
    counts = {r["degree"]: r["count_A"] for r in rep.per_degree}
    assert counts == {1: 14, 2: 126, 3: 1092, 4: 9240}
    assert rep.decomposition["all_match"]
    b_counts = {r["degree"]: r["count_B"] for r in rep.per_degree}
    print(f"  census vanishing counts per degree (reported, not asserted): {b_counts}")
    _report(4, "central vanishing is closed under duality across the full q=7, n<=4 census", t0)


def test_criterion_5_thm41_seed_chain():
    t0 = time.time()
    rep = seed_check("thm41", 5)
    assert rep.verdicts["a_p_zero"]
    assert rep.verdicts["base4_is_square"]
    assert rep.verdicts["central_eigenvalue_q4"]
    assert rep.verdicts["numerators_equal"]
    assert rep.verdicts["counts_equal_q_q2_q4"]
    assert rep.data["P_E"]["coeffs"] == ["1", "0", "5"]
    assert rep.data["P_E_base4"]["coeffs"] == ["1", "-50", "625"]
    _report(5, "y^2 = x^3 + 1 over F_5: a_5 = 0, base change (1 - 25T)^2, trigonal twin agrees", t0)


def test_criterion_6_thm42_seed():
    t0 = time.time()
    rep = seed_check("thm42", 19, ell=5)
    assert rep.data["genus"] == 2
    assert rep.verdicts["supersingular_newton"]
    d = rep.data["central_extension"]
    assert d is not None and d <= 40
    _report(6, f"y^5 = x(x-1)(x-2)^3 over F_19: genus 2, slopes 1/2, central extension d={d}", t0)


def test_criterion_7_family_pipeline():
    t0 = time.time()
    seed_rep = seed_check("f25twist", 5)
    assert seed_rep.verdicts["found"], "exhaustive twist search must produce the fixture"
    F25 = make_field(5, 2)
    base = SuperellipticModel.from_json(F25, seed_rep.data["found"])
    P0 = zeta_numerator(base)
    assert P0.coeffs == (1, -10, 25)  # (1 - 5T)^2
    family = generate_family(
        base, 6, max_pairs_per_degree={1: 60, 2: 60}, max_members_per_degree={1: 12, 2: 2}
    )
    members = family.members
    assert len(members) >= 10, len(members)
    assert any(m.d == 6 for m in members)
    for m in members:
        Pm = zeta_numerator(m)
        assert numerator_divides(P0, Pm), m
        assert has_central_eigenvalue(Pm), m
        chi = char_from_model(m)
        L = rescale_by_root(l_polynomial(chi), twist_exponent(m))
        stripped, _ = strip_trivial_factor(L, chi)
        assert central_value_is_zero(stripped), m
    _report(7, f"{len(members)} family members all inherit (1-5T)^2 and vanishing L (both routes)", t0)


def test_criterion_8_density():
    t0 = time.time()
    F7 = make_field(7, 1)
    uv = BinaryForm(F7, (F7.zero(), F7.one()), degree=2)
    lf = local_factor(uv, Poly.x(F7))
    assert lf.factor == Fraction(2268, 2401) and lf.c == 133
    # m = 1 oracle: exhaustive squarefree frequency equals 1 - 1/q for deg 2..8
    assert squarefree_density_exact(7) == Fraction(6, 7)
    for d in range(2, 9):
        assert squarefree_frequency(F7, d) == Fraction(6, 7), d
    # empirical family-pair frequency vs degree-<=2 truncated product
    t = Poly.x(F7)
    base = SuperellipticModel(3, F7, F7.one(), (t**3 - t, Poly.one(F7)))
    trunc = truncated_density(product_form(base), 2).truncated_product
    emp = empirical_density(base, 2, 10**4, seed=20260808)
    diff = abs(emp["frequency"] - float(trunc))
    assert diff <= 0.05, (emp["frequency"], float(trunc))
    _report(8, f"local factor 2268/2401; m=1 oracle exact; |empirical - truncated| = {diff:.4f}", t0)


def test_criterion_9_predictive_counts():
    t0 = time.time()
    F7 = make_field(7, 1)
    # ten normalized cubic models of genus 1..3 over F_7
    models = []
    for d, quota in ((3, 4), (4, 3), (5, 3)):
        found = 0
        for chi in enumerate_order_ell(F7, 3, d):
            if chi.degree != d or not chi.even:
                continue
            m = model_from_char(chi)
            if genus(m) < 1:
                continue
            models.append(m)
            found += 1
            if found >= quota:
                break
    assert len(models) == 10
    for m in models:
        g = genus(m)
        assert 1 <= g <= 3
        P = zeta_numerator(m)
        for n in range(g + 1, 2 * g + 1):
            assert predicted_count(P, n) == count_points(m, n), (m, n)
    _report(9, "predicted N_n equals direct counts for n = g+1..2g on 10 models (g<=3)", t0)
