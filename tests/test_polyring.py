import random

import pytest

from superell import InputError, factor, is_squarefree, make_field
from superell.ffield import extend_field
from superell.polyring import (
    Poly,
    factor_table,
    gcd,
    irreducible_count,
    irreducibles,
    is_irreducible,
    poly_from_json,
    poly_to_json,
    powmod,
    squarefree_monics,
    affine_maps,
)

from superell.oracle import expand, monics

from conftest import poly, rand_poly, translate


def test_squarefree_examples(F5, F7):
    t7 = Poly.x(F7)
    assert not is_squarefree(t7 * t7 * (t7 + Poly.one(F7)))
    t5 = Poly.x(F5)
    assert is_squarefree(t5**3 - t5)
    # derivative vanishes: t^5 = (t)^5 is a p-th power
    assert not is_squarefree(t5**5)
    with pytest.raises(InputError):
        is_squarefree(Poly.zero(F5))


def test_squarefree_gcd_criteria(F5, rng):
    t = Poly.x(F5)
    for _ in range(50):
        f = rand_poly(F5, 5, rng)
        if f.is_zero() or f.degree < 1:
            continue
        if gcd(f, f.derivative()).degree == 0 and not f.derivative().is_zero():
            assert is_squarefree(f)
    # f' = 0 with deg f > 0 is never squarefree
    g = (t**2 + Poly.one(F5)) ** 5
    assert g.derivative().is_zero() and not is_squarefree(g)


def test_factor_examples(F5, F7):
    t = Poly.x(F5)
    fac = factor(t**2 + Poly.one(F5))
    assert [(repr(p), e) for p, e in fac.factors] == [("Poly(t + 2)", 1), ("Poly(t + 3)", 1)]
    fac2 = factor(poly(F5, 2, 0, 1))  # t^2 + 2: -2 = 3 is not a square mod 5
    assert len(fac2.factors) == 1 and fac2.factors[0][1] == 1 and fac2.factors[0][0].degree == 2
    fac3 = factor(poly(F7, 0, 3))  # 3t
    assert F7.index(fac3.unit) == 3
    assert [(repr(p), e) for p, e in fac3.factors] == [("Poly(t)", 1)]
    with pytest.raises(InputError):
        factor(Poly.zero(F5))


def test_factor_squarefree_oracle_exhaustive(F5, F7):
    # oracle equivalence: squarefree iff every exponent is 1
    for F in (F5, F7):
        for d in range(1, 5):
            for f in monics(F, d):
                fac = factor(f)
                assert expand(fac) == f
                assert is_squarefree(f) == all(e == 1 for _, e in fac.factors), f


def test_factor_deterministic_and_extension_fields(F25, rng):
    for _ in range(25):
        f = rand_poly(F25, 5, rng)
        if f.is_zero():
            continue
        a = factor(f)
        assert factor(f) == a
        assert expand(a) == f


def test_factor_char2():
    F4 = make_field(2, 2)
    t = Poly.x(F4)
    # t^2 + t + 1 splits over F_4 (both primitive cube roots of unity live there)
    f = (t**2 + t + Poly.one(F4)) * (t + Poly.one(F4)) ** 2 * t
    fac = factor(f)
    assert expand(fac) == f
    assert sorted((p.degree, e) for p, e in fac.factors) == [(1, 1), (1, 1), (1, 1), (1, 2)]
    F2 = make_field(2, 1)
    t2 = Poly.x(F2)
    g = (t2**2 + t2 + Poly.one(F2)) ** 2 * t2
    fac2 = factor(g)
    assert expand(fac2) == g
    assert sorted((p.degree, e) for p, e in fac2.factors) == [(1, 1), (2, 2)]


def test_pth_power_factorization(F5):
    t = Poly.x(F5)
    f = (t + Poly.one(F5)) ** 5 * t
    fac = factor(f)
    assert {(p.degree, e) for p, e in fac.factors} == {(1, 5), (1, 1)}
    assert expand(fac) == f


def test_irreducible_enumeration_counts(F5, F7):
    assert len(irreducibles(F7, 1)) == 7
    assert len(irreducibles(F7, 2)) == 21 == (49 - 7) // 2
    assert len(irreducibles(F5, 2)) == 10
    # canonical order and a necklace cross-check
    for F, dmax in ((F5, 4), (F7, 4)):
        for d in range(1, dmax + 1):
            irr = irreducibles(F, d)
            assert len(irr) == irreducible_count(F.q, d)
            assert list(irr) == sorted(irr, key=lambda f: f.key())
            assert all(is_irreducible(f) for f in irr)


def test_factor_table_oracle(F7, F25):
    # every monic, not only the squarefree ones: p = 2 and 3, where f' = 0
    # for the p-th powers, and towers of depth 1 and 2
    F4 = make_field(2, 2)
    cases = ((F7, 4), (F4, 4), (make_field(3, 1), 4), (F25, 2), (extend_field(F4, 2), 2))
    for F, dmax in cases:
        table = factor_table(F)
        for d in range(1, dmax + 1):
            level = table.level(d)
            irr = irreducibles(F, d)
            assert len(irr) == irreducible_count(F.q, d)
            assert list(irr) == [f for f in monics(F, d) if is_irreducible(f)]
            for j, f in enumerate(monics(F, d)):
                assert table.factors(d, j) == factor(f).factors, (F, f)
                assert level.squarefree[j] == is_squarefree(f), (F, f)


def test_root_counting_identity(F5, F7):
    # sum over d' | d of d' * N(d') = q^d (roots of t^{q^d} - t)
    for F in (F5, F7):
        for d in range(1, 5):
            total = sum(
                dd * irreducible_count(F.q, dd) for dd in range(1, d + 1) if d % dd == 0
            )
            assert total == F.q**d


def test_powmod_and_gcd(F7, rng):
    t = Poly.x(F7)
    mod = t**3 + t + Poly.one(F7)
    a = powmod(t, 7**3, mod)
    assert a == t % mod  # Frobenius fixes the splitting field elementwise at q^deg
    for _ in range(20):
        f = rand_poly(F7, 4, rng)
        g = rand_poly(F7, 3, rng)
        if f.is_zero() or g.is_zero():
            continue
        h = gcd(f, g)
        if h.degree > 0:
            assert (f % h).is_zero() and (g % h).is_zero()


def test_monic_normalisation(F7):
    f = poly(F7, 1, 0, 6)  # 6t^2 + 1
    unit, m = f.monic()
    assert F7.index(unit) == 6 and m.is_monic()
    assert m * Poly.constant(unit) == f


def test_norm_and_degree(F7):
    f = poly(F7, 1, 0, 6)
    assert f.degree == 2 and f.norm() == 49
    assert Poly.zero(F7).degree == -1
    with pytest.raises(InputError):
        Poly.zero(F7).norm()


def test_squarefree_monics_cached(F7):
    sf2 = squarefree_monics(F7, 2)
    assert all(is_squarefree(f) for f in sf2)
    assert len(sf2) == 49 - 7  # q^2 - q


def test_poly_json_roundtrip(F7, F25):
    f = poly(F7, 1, 0, 6)
    assert poly_to_json(f) == [1, 0, 6]
    assert poly_from_json(F7, [1, 0, 6]) == f
    t = Poly.x(F25)
    g = t**2 + Poly.constant(F25.elem_at(7))
    assert poly_from_json(F25, poly_to_json(g)) == g


def test_vector_index_roundtrip(F7, F25, rng):
    # from_vector_index inverts vector_index; the monic from_index(F, d, j)
    # carries the digits of j below t^d
    for F in (F7, F25):
        assert Poly.from_vector_index(F, 0).is_zero()
        for j in range(F.q**2):
            assert Poly.from_vector_index(F, j).vector_index() == j
        for _ in range(20):
            f = rand_poly(F, 4, rng)
            assert Poly.from_vector_index(F, f.vector_index()) == f
        assert Poly.from_index(F, 3, 5).vector_index() == 5 + F.q**3


# ids: the field, p^e or a tower; F_4 has p | 2, so a translate can fix a
# conductor, and F_16 is both a direct extension and the tower 2 -> 4 -> 16
@pytest.mark.parametrize("build", [
    pytest.param(lambda: make_field(7, 1), id="7"),
    pytest.param(lambda: make_field(2, 2), id="4"),
    pytest.param(lambda: make_field(2, 4), id="2^4"),
    pytest.param(lambda: make_field(5, 2), id="25"),
    pytest.param(lambda: extend_field(make_field(2, 2), 2), id="2-4-16"),
])
def test_translations_match_composition(build):
    F = build()
    for k in (1, 2, 3):
        maps = affine_maps(F, k)[0]
        primes = list(factor_table(F).level(k).primes)
        assert len(maps) == F.q and maps[0].images(primes) == primes
        for b in range(F.q):
            moved = [translate(P, F.elem_at(b)).vector_index() - F.q**k for P in irreducibles(F, k)]
            assert maps[b].images(primes) == moved
            assert sorted(moved) == primes  # a bijection on the primes
        # every monic of the degree, not only the primes, by index
        assert [shift(0) for shift in maps] == [
            translate(Poly.from_index(F, k, 0), F.elem_at(b)).vector_index() - F.q**k
            for b in range(F.q)
        ]
    if F.q == 4:
        # t^2 + t = t (t + 1) is fixed by b = 1, which swaps its primes
        t, one = Poly.x(F), Poly.one(F)
        assert translate(t * (t + one), F.one()) == t * (t + one)
        assert affine_maps(F, 1)[0][1].images([0, 1, 2, 3]) == [1, 0, 3, 2]


@pytest.mark.parametrize("build", [
    pytest.param(lambda: make_field(7, 1), id="7"),
    pytest.param(lambda: make_field(13, 1), id="13"),
    pytest.param(lambda: make_field(2, 2), id="4"),
    pytest.param(lambda: make_field(5, 2), id="25"),
    pytest.param(lambda: extend_field(make_field(2, 2), 2), id="2-4-16"),
])
def test_dilations_match_composition(build):
    F = build()
    primes = {k: list(factor_table(F).level(k).primes) for k in (1, 2, 3)}
    for k in (1, 2, 3):
        maps = affine_maps(F, k)[1]
        assert len(maps) == F.q and maps[0] is None
        assert maps[1].images(primes[k]) == primes[k]
        for ci in range(1, F.q):
            c = F.elem_at(ci)
            # c^-k P(ct), by substituting the polynomial c t into P
            scaled = Poly(F, (F.zero(), c))
            inverse = Poly.constant(F.inverse(F.pow(c, k)))
            moved = []
            for P in irreducibles(F, k):
                image = Poly.zero(F)
                for a in reversed(P.coeffs):
                    image = image * scaled + Poly.constant(a)
                image = image * inverse
                assert image.is_monic() and image.degree == k
                moved.append(image.vector_index() - F.q**k)
            assert maps[ci].images(primes[k]) == moved
            assert sorted(moved) == primes[k]  # a bijection on the primes


def _random_monic(F, degree, rng) -> Poly:
    return Poly(F, [F.elem_at(rng.randrange(F.q)) for _ in range(degree)] + [F.one()])


# GF(7^6) is a tower level above ELEM_TABLE_CAP, whose own products run
# through the remainder loop under test
@pytest.mark.parametrize("build", [
    pytest.param(lambda: make_field(2, 1), id="2"),
    pytest.param(lambda: make_field(3, 1), id="3"),
    pytest.param(lambda: make_field(2, 2), id="4"),
    pytest.param(lambda: make_field(5, 2), id="25"),
    pytest.param(lambda: extend_field(make_field(2, 2), 2), id="2-4-16"),
    pytest.param(lambda: extend_field(make_field(7, 3), 2), id="7^3-7^6"),
])
def test_gcd_and_remainder_at_the_edges(build):
    F = build()
    rng = random.Random(F.q)
    t = Poly.x(F)
    for _ in range(12):
        # a = c g (t - alpha) w and b = c' g (t - beta) w with alpha != beta:
        # gcd(a, b) = g w by construction, with no gcd machinery
        gw = _random_monic(F, rng.randrange(4), rng) * _random_monic(F, rng.randrange(3), rng)
        alpha, beta = (Poly.constant(F.elem_at(i)) for i in rng.sample(range(F.q), 2))
        c, c2 = (Poly.constant(F.elem_at(rng.randrange(1, F.q))) for _ in range(2))
        a, b = c * gw * (t - alpha), c2 * gw * (t - beta)
        assert gcd(a, b) == gw and gcd(b, a) == gw
        assert gcd(a, Poly.zero(F)) == gcd(Poly.zero(F), a) == gw * (t - alpha)
        longer = a * _random_monic(F, 2, rng) + c2
        for x, y in ((a, b), (b, a), (longer, b), (longer, c * gw), (a, c), (c, a)):
            quo, rem = divmod(x, y)
            assert x % y == rem and rem.degree < y.degree
            assert quo * y + rem == x and x // y == quo
    assert gcd(Poly.zero(F), Poly.zero(F)) == Poly.zero(F)
    with pytest.raises(ZeroDivisionError):
        t % Poly.zero(F)
