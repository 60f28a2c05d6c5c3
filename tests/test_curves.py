import random

import pytest

from superell import (
    InputError,
    InvariantViolation,
    ResourceLimit,
    SuperellipticModel,
    ZetaNum,
    base_change,
    count_points,
    find_central_extension,
    genus,
    has_central_eigenvalue,
    is_supersingular_np,
    make_field,
    numerator_divides,
    primitive_root,
    zeta_numerator,
)
from superell.curves import power_sums
from superell.ffield import extend_field
from superell.oracle import (
    check_predicted_counts,
    count_points_generic,
    numerator_divides_rational,
    predicted_count,
)
from superell.polyring import Poly

from conftest import poly, trigonal


def test_model_validation(F5, F7):
    t = Poly.x(F7)
    one = Poly.one(F7)
    with pytest.raises(InputError):
        SuperellipticModel(3, F7, F7.zero(), (t, one))  # zero twist
    with pytest.raises(InputError):
        SuperellipticModel(3, F7, F7.one(), (t * t, one))  # square
    with pytest.raises(InputError):
        SuperellipticModel(3, F7, F7.one(), (t, t))  # not coprime
    with pytest.raises(InputError):
        SuperellipticModel(3, F7, F7.one(), (one, one))  # all constant
    with pytest.raises(InputError):
        SuperellipticModel(4, F7, F7.one(), (t, one, one))  # composite ell
    F3 = make_field(3, 1)
    with pytest.raises(InputError):
        SuperellipticModel(3, F3, F3.one(), (Poly.x(F3), Poly.one(F3)))  # ell = p


def test_genus_examples(F5, F7):
    assert genus(trigonal(F5)) == 1
    # degree pattern (2, 0, 1, 0) at ell = 5: y^5 = x(x-1)(x-2)^3 has genus 2
    F19 = make_field(19, 1)
    t = Poly.x(F19)
    one = Poly.one(F19)
    m = SuperellipticModel(5, F19, F19.one(), (t * (t - one), one, t - poly(F19, 2), one))
    assert genus(m) == 2
    # y^3 = t: infinity ramifies, rational curve
    t7 = Poly.x(F7)
    assert genus(SuperellipticModel(3, F7, F7.one(), (t7, Poly.one(F7)))) == 0


def test_count_examples(F5):
    t = Poly.x(F5)
    one = Poly.one(F5)
    assert count_points(trigonal(F5), 1) == 6
    E = SuperellipticModel(2, F5, F5.one(), (t**3 + one,))
    assert count_points(E, 1) == 6
    # gcd(ell, q^n - 1) = 1 forces q^n + 1 points
    anym = SuperellipticModel(3, F5, F5.elem_at(2), (t**2 + poly(F5, 2), t))
    assert count_points(anym, 1) == 6


def test_count_zech_vs_generic(F5, F7, F25):
    # (model, largest extension degree), with q^n <= 729 on the added rows:
    # p = 2 and 3, ell = 2 and 5, the tower F_25, twisted and non-normalized
    t = Poly.x(F7)
    rows = [(trigonal(F5), 3), (trigonal(F7), 3),
            (SuperellipticModel(3, F7, F7.elem_at(3), (t, t - Poly.one(F7))), 3)]
    F4 = make_field(2, 2)
    t4 = Poly.x(F4)
    rows.append((SuperellipticModel(3, F4, F4.elem_at(2), (t4**3 + t4 + Poly.one(F4), t4)), 3))
    for F, n_max in ((make_field(3, 1), 6), (make_field(3, 2), 3)):
        t3 = Poly.x(F)
        # twisted by the primitive root, a non-square
        y2 = SuperellipticModel(2, F, primitive_root(F), (t3**3 - t3 + Poly.one(F),))
        assert not y2.normalized
        rows.append((y2, n_max))
    t25 = Poly.x(F25)
    m25 = SuperellipticModel(3, F25, F25.elem_at(7), (t25**3 - t25, t25 - poly(F25, 2)))
    assert not m25.normalized
    rows.append((m25, 2))
    F11 = make_field(11, 1)
    t11, one11 = Poly.x(F11), Poly.one(F11)
    m11 = SuperellipticModel(5, F11, F11.elem_at(2), (t11, t11 - one11, one11, t11 + one11))
    rows.append((m11, 2))
    for m, n_max in rows:
        for n in range(1, n_max + 1):
            assert count_points(m, n) == count_points_generic(m, extend_field(m.field, n)), (m, n)


def test_count_points_limit_names_the_value(F5, monkeypatch):
    monkeypatch.setenv("SUPERELL_ZECH_LIMIT", "10")
    with pytest.raises(ResourceLimit, match="SUPERELL_ZECH_LIMIT >= 25"):
        count_points(trigonal(F5), 2)


def test_zeta_examples(F5, F7):
    t = Poly.x(F5)
    one = Poly.one(F5)
    E = SuperellipticModel(2, F5, F5.one(), (t**3 + one,))
    for m in (E, trigonal(F5)):
        P = zeta_numerator(m)
        assert P.coeffs == (1, 0, 5)
        check_predicted_counts(m, P)
    # genus 0
    t7 = Poly.x(F7)
    m0 = SuperellipticModel(3, F7, F7.one(), (t7, Poly.one(F7)))
    assert zeta_numerator(m0).coeffs == (1,)


def test_zeta_functional_equation_enforced():
    with pytest.raises(InvariantViolation):
        ZetaNum(5, (1, 1, 5, 1, 25))  # a_3 != 5 * a_1
    with pytest.raises(InputError):
        ZetaNum(5, (2, 0, 5))


def test_base_change_examples():
    P = ZetaNum(5, (1, 0, 5))
    assert base_change(P, 4).coeffs == (1, -50, 625)
    assert base_change(P, 1) == P
    # (1 - 5T)^2 goes to (1 - 125T)^2, and genus 0 has no roots to move
    assert base_change(ZetaNum(25, (1, -10, 25)), 3).coeffs == (1, -250, 15625)
    assert base_change(ZetaNum(7, (1,)), 3) == ZetaNum(343, (1,))


def test_base_change_composition(rng):
    for _ in range(20):
        q = 7
        coeffs = [1]
        g = rng.randrange(1, 3)
        import math

        parts = []
        for _ in range(g):
            a = rng.randrange(-int(2 * math.isqrt(q)), int(2 * math.isqrt(q)) + 1)
            parts.append((1, -a, q))
        P = _mul_weil(parts, q)
        lhs = base_change(base_change(P, 2), 3)
        rhs = base_change(P, 6)
        assert lhs == rhs


def _mul_weil(parts, q):
    out = [1]
    for part in parts:
        new = [0] * (len(out) + len(part) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(part):
                new[i + j] += a * b
        out = new
    return ZetaNum(q, out)


def test_supersingular_examples(F5):
    assert is_supersingular_np(ZetaNum(5, (1, 0, 5)), 5, 1)
    # ordinary curve y^2 = x^3 + x + 1 over F_5
    t = Poly.x(F5)
    E = SuperellipticModel(2, F5, F5.one(), (t**3 + t + Poly.one(F5),))
    P = zeta_numerator(E)
    assert P.coeffs[1] != 0 and P.coeffs[1] % 5 != 0
    assert not is_supersingular_np(P, 5, 1)
    assert is_supersingular_np(ZetaNum(625, (1, -50, 625)), 5, 4)
    with pytest.raises(InputError):
        is_supersingular_np(ZetaNum(5, (1, 0, 5)), 5, 2)


def test_central_eigenvalue_examples():
    assert has_central_eigenvalue(ZetaNum(625, (1, -50, 625)))
    assert not has_central_eigenvalue(ZetaNum(5, (1, 0, 5)))
    assert not has_central_eigenvalue(ZetaNum(25, (1, 0, 25)))
    assert has_central_eigenvalue(ZetaNum(25, (1, -10, 25)))  # (1 - 5T)^2
    with pytest.raises(InputError):
        has_central_eigenvalue(ZetaNum(15, (1, 0, 15)))  # q not a prime power


def test_find_central_extension_examples():
    P = ZetaNum(5, (1, 0, 5))
    assert find_central_extension(P, 10) == 4
    for m in (1, 2, 3):
        assert not has_central_eigenvalue(base_change(P, m))
    assert find_central_extension(ZetaNum(625, (1, -50, 625)), 5) == 1
    ordinary = ZetaNum(5, (1, -1, 5))
    assert find_central_extension(ordinary, 24) is None
    # default bound covers the genus-1 root-of-unity orders
    assert find_central_extension(ordinary) is None


def test_numerator_divides(F7):
    P = ZetaNum(5, (1, 0, 5))
    assert numerator_divides(P, P)
    Q = _mul_weil([(1, 0, 5), (1, -2, 5)], 5)
    assert numerator_divides(P, Q)
    assert not numerator_divides(ZetaNum(5, (1, -2, 5)), ZetaNum(5, (1, 0, 5)))
    with pytest.raises(InputError):
        numerator_divides(ZetaNum(5, (1, 0, 5)), ZetaNum(7, (1, 0, 7)))


def _random_weil(rng, q, g):
    """A random list a_0 = 1, a_1..a_g, completed by the functional equation."""
    low = [1] + [rng.randint(-3 * q, 3 * q) for _ in range(g)]
    return tuple(low + [q ** (g - i) * low[i] for i in range(g - 1, -1, -1)])


def test_numerator_divides_matches_division_over_q():
    """The integer division against long division in Fractions, on random
    pairs: P a multiple of P0, a multiple with one coefficient pair moved,
    or an unrelated list, P0 of any genus up to 3 (also above P's)."""
    rng = random.Random(2025)
    kinds = {True: 0, False: 0}
    for _ in range(3000):
        q = rng.choice((2, 3, 5, 7, 25))
        g0 = rng.randint(0, 3)
        P0 = ZetaNum(q, _random_weil(rng, q, g0))
        R = _random_weil(rng, q, rng.randint(0, 3))
        how = rng.randrange(3)
        if how == 2:
            P = ZetaNum(q, R)
        else:
            coeffs = _mul_weil([P0.coeffs, R], q).coeffs
            if how == 1 and len(coeffs) > 1:
                g, i, step = len(coeffs) // 2, rng.randint(1, len(coeffs) // 2), rng.choice((-1, 1))
                coeffs = list(coeffs)
                coeffs[i] += step
                if i != g:
                    coeffs[2 * g - i] += q ** (g - i) * step
            P = ZetaNum(q, coeffs)
        got = numerator_divides(P0, P)
        assert got == numerator_divides_rational(P0, P), (P0, P)
        kinds[got] += 1
    assert min(kinds.values()) > 500, kinds


def test_lemma_style_divisibility(F7):
    base = trigonal(F7)
    P0 = zeta_numerator(base)
    w = Poly.x(F7) ** 2 + poly(F7, 3)
    member = SuperellipticModel(3, F7, F7.one(), (w**3 - w, Poly.one(F7)))
    assert genus(member) == 4
    Pm = zeta_numerator(member)
    assert numerator_divides(P0, Pm)


def test_predicted_counts_match(F7):
    m = trigonal(F7)
    P = zeta_numerator(m)
    check_predicted_counts(m, P)
    assert predicted_count(P, 1) == count_points(m, 1)
    S = power_sums(P, 4)
    for n in (1, 2, 3, 4):
        assert F7.q**n + 1 - S[n - 1] == count_points(m, n)


def test_weil_bounds_on_counts(F7):
    m = trigonal(F7)
    g = genus(m)
    for n in (1, 2, 3):
        N = count_points(m, n)
        assert (N - 7**n - 1) ** 2 <= 4 * g * g * 7**n


def test_zeta_json_roundtrip():
    P = ZetaNum(25, (1, -10, 25))
    assert ZetaNum.from_json(P.to_json()) == P
    assert P.to_json()["coeffs"] == ["1", "-10", "25"]


def test_model_json_roundtrip(F25):
    t = Poly.x(F25)
    m = SuperellipticModel(3, F25, F25.elem_at(7), (t**3 - t, Poly.one(F25)))
    back = SuperellipticModel.from_json(F25, m.to_json())
    assert back == m


@pytest.mark.slow
def test_predicted_counts_genus4(F7, monkeypatch):
    # the predicted counts are checked over F_7^8, above the default limit of 2^21
    monkeypatch.setenv("SUPERELL_ZECH_LIMIT", str(2**23))
    w = Poly.x(F7) ** 2 + poly(F7, 3)
    member = SuperellipticModel(3, F7, F7.one(), (w**3 - w, Poly.one(F7)))
    assert genus(member) == 4
    check_predicted_counts(member, zeta_numerator(member))
