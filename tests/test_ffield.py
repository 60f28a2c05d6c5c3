import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superell import InputError, ResourceLimit, extend_field, make_field, primitive_root
from superell.characters import char_context
from superell.ffield import (
    ELEM_TABLE_CAP,
    AffineIndexMap,
    IndexSums,
    LogTable,
    is_prime,
    log_table,
    power_classes,
)
from superell.oracle import field_add_generic, field_mul_generic
from superell.polyring import Poly

from conftest import tower_field


def brute_canonical_modulus(F, n):
    """Independent oracle: scan monic degree-n polynomials in canonical order,
    return the first with no roots/factors, testing irreducibility by trial
    division against all monic polynomials of degree <= n//2."""
    q = F.q
    for j in range(q**n):
        cand = Poly.from_index(F, n, j)
        reducible = False
        for d in range(1, n // 2 + 1):
            for k in range(q**d):
                if (cand % Poly.from_index(F, d, k)).is_zero():
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return cand
    raise AssertionError


def test_prime_field_trivial_modulus():
    F5 = make_field(5, 1)
    assert F5.q == 5 and F5.e == 1
    # modulus (t - 0) convention
    assert [F5.index(c) for c in F5.modulus] == [0, 1]


def test_canonical_modulus_f25():
    F25 = make_field(5, 2)
    F5 = make_field(5, 1)
    got = [F5.index(c) for c in F25.modulus]
    # x^2 + 1 splits (4 = 2^2); x^2 + 2 is the first irreducible: -2 = 3 is a non-residue
    assert got == [2, 0, 1]
    oracle = brute_canonical_modulus(F5, 2)
    assert [F5.index(c) for c in oracle.coeffs] == got


def test_canonical_modulus_f343_matches_oracle():
    F7 = make_field(7, 1)
    F343 = make_field(7, 3)
    oracle = brute_canonical_modulus(F7, 3)
    assert [F7.index(c) for c in F343.modulus] == [F7.index(c) for c in oracle.coeffs]


@pytest.mark.parametrize(
    "p, degrees",
    [(2, (2, 2)), (2, (2, 3)), (2, (2, 2, 2)), (3, (2, 2)), (3, (3, 2)), (3, (2, 2, 2))],
)
def test_canonical_modulus_towers_match_oracle(p, degrees):
    F = make_field(p, 1)
    for n in degrees:
        E = extend_field(F, n)
        oracle = brute_canonical_modulus(F, n)
        assert [F.index(c) for c in E.modulus] == [F.index(c) for c in oracle.coeffs]
        F = E


def test_make_field_errors():
    with pytest.raises(InputError):
        make_field(6, 1)
    with pytest.raises(InputError):
        make_field(5, 0)
    with pytest.raises(ResourceLimit):
        make_field(2, 64)
    # refused by the exponent, with the power never computed
    with pytest.raises(ResourceLimit, match=r"3\^100000000 exceeds"):
        make_field(3, 10**8)
    with pytest.raises(ResourceLimit, match=r"16\^100000000 exceeds"):
        extend_field(make_field(2, 4), 10**8)


def test_descriptor_deterministic():
    d1 = make_field(5, 2).descriptor()
    assert d1 == {"p": 5, "tower": [2], "moduli": [[2, 0, 1]]}
    d2 = extend_field(make_field(5, 2), 2).descriptor()
    assert d2["tower"] == [2, 2]
    assert len(d2["moduli"]) == 2


@pytest.mark.parametrize("p,expect", [(5, 2), (7, 3), (2, 1)])
def test_primitive_root_examples(p, expect):
    F = make_field(p, 1)
    g = primitive_root(F)
    assert F.index(g) == expect
    # oracle: brute-force order scan confirms minimality
    for idx in range(1, F.index(g)):
        a = F.elem_at(idx)
        order = 1
        cur = a
        while not cur == F.one():
            cur = cur * a
            order += 1
        assert order < F.q - 1


def test_primitive_root_exact_order():
    F25 = make_field(5, 2)
    g = primitive_root(F25)
    seen = set()
    cur = F25.one()
    for _ in range(24):
        seen.add(F25.index(cur))
        cur = cur * g
    assert len(seen) == 24 and cur == F25.one()


def test_extend_field_identity_and_tower():
    F5 = make_field(5, 1)
    assert extend_field(F5, 1) is F5
    F25 = extend_field(F5, 2)
    assert F25.q == 25
    # subfield elements are fixed by the extension Frobenius
    for i in range(5):
        a = F25.from_int(i)
        assert a**25 == a
    F625 = extend_field(F25, 2)
    assert F625.q == 625
    for i in (0, 1, 7, 19, 24):
        a = F625.embed(F25.elem_at(i))
        assert a**625 == a


def test_tower_size_law():
    F3 = make_field(3, 1)
    F = extend_field(extend_field(F3, 2), 3)
    assert F.q == 3 ** (2 * 3)


def test_frobenius_additivity_exhaustive():
    for F in (make_field(5, 2), make_field(7, 2)):
        p = F.p
        for i in range(F.q):
            a = F.elem_at(i)
            b = F.elem_at((3 * i + 1) % F.q)
            assert (a + b) ** p == a**p + b**p


def test_frobenius_additivity_sampled(rng):
    F = extend_field(make_field(5, 2), 2)  # 625 elements
    for _ in range(200):
        a = F.elem_at(rng.randrange(F.q))
        b = F.elem_at(rng.randrange(F.q))
        assert (a + b) ** 5 == a**5 + b**5


def test_field_axioms_pow_q_fixes_all():
    for F in (make_field(5, 2), make_field(3, 3), make_field(7, 2)):
        for i in range(F.q):
            a = F.elem_at(i)
            assert a**F.q == a


def test_inverse_and_index_roundtrip(rng):
    F = make_field(7, 2)
    for _ in range(100):
        i = rng.randrange(1, F.q)
        a = F.elem_at(i)
        assert F.index(a) == i
        assert a * a.inverse() == F.one()


def test_log_table_consistency():
    towers = [(7, ()), (7, (2,)), (2, (4,)), (3, (5,)), (2, (2, 2)), (3, (2, 2)), (5, (2, 2))]
    for F in (tower_field(p, *degrees) for p, degrees in towers):
        tab = log_table(F)
        g = primitive_root(F)
        assert isinstance(tab, LogTable) and tab.field is F
        m = F.q - 1
        assert len(tab.zech) == m and len(tab.dlog) == F.q
        assert tab.dlog[0] == -1
        exp = [0] * m  # the inverse of dlog
        for i in range(1, F.q):
            exp[tab.dlog[i]] = i
        # definitional route: g^k by repeated Field.mul
        cur = F.one()
        for k in range(m):
            i = F.index(cur)
            assert exp[k] == i and tab.dlog[i] == k, (F, k)
            lhs = F.one() + cur
            z = tab.zech[k]
            if z < 0:
                assert lhs.is_zero()
            else:
                assert exp[z] == F.index(lhs), (F, k)
            cur = F.mul(cur, g)
        assert cur == F.one()


def test_log_table_limit_names_the_value(monkeypatch):
    monkeypatch.setenv("SUPERELL_ZECH_LIMIT", "10")
    with pytest.raises(ResourceLimit, match="SUPERELL_ZECH_LIMIT >= 25"):
        LogTable(make_field(5, 2))


_PROPERTY_TOWERS = [(2, (2, 2)), (2, (2, 3)), (2, (2, 2, 2)), (3, (2, 2)), (3, (3, 2)), (3, (2, 2, 2))]


@pytest.mark.parametrize("p, degrees", _PROPERTY_TOWERS)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_tower_field_axioms(p, degrees, data):
    F = tower_field(p, *degrees)
    i, j, k = (data.draw(st.integers(0, F.q - 1)) for _ in range(3))
    a, b, c = F.elem_at(i), F.elem_at(j), F.elem_at(k)
    assert F.index(a) == i and F.elem_at(F.index(b)) == b
    zero, one = F.zero(), F.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and (a - b) + b == a
    if i:
        assert a * a.inverse() == one


@pytest.mark.parametrize("p, degrees", _PROPERTY_TOWERS)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_tower_log_homomorphism(p, degrees, data):
    F = tower_field(p, *degrees)
    tab = log_table(F)
    i, j = (data.draw(st.integers(1, F.q - 1)) for _ in range(2))
    a, b = F.elem_at(i), F.elem_at(j)
    assert tab.dlog[F.index(a * b)] == (tab.dlog[i] + tab.dlog[j]) % (F.q - 1)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**40 - 87) and not is_prime(2**40)
    # past its range the test refuses at once rather than divide for hours
    with pytest.raises(ResourceLimit, match="FIELD_SIZE_LIMIT"):
        is_prime(2**61 - 1)


@pytest.mark.parametrize("p", [2, 3, 7, 1013])
def test_prime_field_inverse_is_fermat(p):
    F = make_field(p, 1)
    one = F.one()
    for v in range(1, p):
        a = F.elem_at(v)
        inv = F.inverse(a)
        assert F.mul(inv, a) == one
        assert inv == F.pow(a, p - 2)
    with pytest.raises(ZeroDivisionError):
        F.inverse(F.zero())


def test_prime_field_elements_are_shared():
    F = make_field(7, 1)
    a, b = F.elem_at(3), F.from_int(12)
    assert F.from_int(3) is a and F.elem_at(5) is b
    assert F.add(a, b) is F.elem_at(1) and F.sub(a, b) is F.elem_at(5)
    assert F.mul(a, b) is F.elem_at(1) and F.neg(a) is F.elem_at(4)
    assert F.inverse(a) is F.elem_at(5)
    F4 = make_field(2, 2)
    x = F4.elem_at(2)
    assert all(c is F4.base.elem_at(F4.base.index(c)) for c in F4.mul(x, x).coeffs)


def test_prime_field_above_the_cap():
    p = 2**31 - 1
    assert p > ELEM_TABLE_CAP
    F = make_field(p, 1)
    assert not isinstance(F.elems, list)
    assert F.from_int(5) == F.from_int(5) and F.from_int(5) is not F.from_int(5)
    x, y = 123456789, 2**31 - 5
    a, b = F.from_int(x), F.from_int(y)
    assert F.index(F.add(a, b)) == (x + y) % p
    assert F.index(F.sub(a, b)) == (x - y) % p
    assert F.index(F.mul(a, b)) == x * y % p
    assert F.index(F.neg(a)) == -x % p
    inv = F.inverse(a)
    assert F.mul(inv, a) == F.one()
    assert inv == F.pow(a, p - 2)


# name: (p, tower degrees, descriptor moduli, index of the primitive root,
# sha256 prefixes of the dlog and zech lists of its log table), as built by
# the tower arithmetic before fields within the cap kept tables
_PINNED_FIELDS = {
    "F4": (2, (2,), [[1, 1, 1]], 2, "31b1418b59ede511", "0c1d0e6425cd001c"),
    "F8": (2, (3,), [[1, 1, 0, 1]], 2, "6be27e29bd9c7df0", "b9625f4599a85f2f"),
    "F9": (3, (2,), [[1, 0, 1]], 4, "0176021f8182021a", "bc90bf22482a1938"),
    "F16": (2, (2, 2), [[1, 1, 1], [2, 1, 1]], 4, "fd677e87630e53cc", "b865be17bad5da4f"),
    "F25": (5, (2,), [[2, 0, 1]], 6, "23c15eac9228092d", "737db6e51640e304"),
    "F27": (3, (3,), [[1, 2, 0, 1]], 3, "4396793e12a50363", "c014ac9d92c9d343"),
    "F49": (7, (2,), [[1, 0, 1]], 9, "657a93ba9b52f5cb", "40a6be3641f4b1da"),
    "F256": (2, (2, 2, 2), [[1, 1, 1], [2, 1, 1], [8, 1, 1]], 18,
             "f9b7bfe1f79fa4f9", "5756c3c16d15aae0"),
    "F625": (5, (2, 2), [[2, 0, 1], [5, 0, 1]], 26, "6196a1de91d28cda", "479ed427d2fae844"),
    "F4096": (2, (2, 2, 3), [[1, 1, 1], [2, 1, 1], [2, 0, 0, 1]], 20,
              "5ae0a326cec66df8", "ec5ee89e755a7928"),
    "F8192": (2, (13,), [[1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1]], 2,
              "a340a4ad31b50a5c", "f5f10b40ce491f57"),
}
_ALL_PAIRS = ["F4", "F8", "F9", "F16", "F25", "F27", "F49"]
_SAMPLED = ["F256", "F625", "F4096", "F8192"]


def _pinned(name):
    p, degrees = _PINNED_FIELDS[name][:2]
    return tower_field(p, *degrees)


def _digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", list(_PINNED_FIELDS))
def test_field_identity_and_index_order_pinned(name):
    p, degrees, moduli, root, dlog_digest, zech_digest = _PINNED_FIELDS[name]
    F = _pinned(name)
    assert F.descriptor() == {"p": p, "tower": list(degrees), "moduli": moduli}
    assert F.index(primitive_root(F)) == root
    tab = log_table(F)
    assert (_digest(tab.dlog), _digest(tab.zech)) == (dlog_digest, zech_digest)
    # the element of index i has the base-q_b digits of i as its coefficients
    qb, n = F.base.q, F.rel_degree
    for i in range(0, F.q, max(1, F.q // 500)):
        a = F.elem_at(i)
        assert F.index(a) == i and a.is_zero() == (i == 0)
        assert [F.base.index(c) for c in a.coeffs] == [i // qb**k % qb for k in range(n)]
    assert isinstance(F.elems, list) == (F.q <= ELEM_TABLE_CAP)


def _check_pair(F, a, b):
    shared = F.q <= ELEM_TABLE_CAP
    for got, want in (
        (F.mul(a, b), field_mul_generic(F, a, b)),
        (F.add(a, b), field_add_generic(F, a, b)),
        (F.sub(a, b), field_add_generic(F, a, b, -1)),
    ):
        assert got == want, (F, a, b)
        assert got is want or not shared


def _check_unary(F, a, exponents):
    one = F.one()
    assert F.neg(a) == field_add_generic(F, F.zero(), a, -1)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            F.inverse(a)
        assert F.pow(a, 0) == one and F.pow(a, 3) == a
        return
    inv = F.inverse(a)
    assert field_mul_generic(F, a, inv) == one
    for k in exponents:
        want, b, n = one, a, k  # square-and-multiply through the schoolbook product
        while n:
            if n & 1:
                want = field_mul_generic(F, want, b)
            b, n = field_mul_generic(F, b, b), n >> 1
        assert F.pow(a, k) == want, (F, a, k)
        assert F.pow(inv, -k) == want


@pytest.mark.parametrize("name", _ALL_PAIRS)
def test_small_field_arithmetic_matches_schoolbook_on_all_pairs(name):
    F = _pinned(name)
    for a in F.elems:
        for b in F.elems:
            _check_pair(F, a, b)
        _check_unary(F, a, (0, 1, 2, 3, F.q - 2, F.q - 1, F.q, 2 * F.q + 1))


@pytest.mark.parametrize("name", _SAMPLED)
def test_field_arithmetic_matches_schoolbook_on_sampled_pairs(name):
    F = _pinned(name)
    rng = random.Random(f"field-{name}")
    picks = [0, 1, F.q - 1] + [rng.randrange(F.q) for _ in range(100)]
    for i, j in zip(picks, picks[1:] + picks[:1]):
        _check_pair(F, F.elem_at(i), F.elem_at(j))
    for i in picks[:12]:
        _check_unary(F, F.elem_at(i), (0, 1, 2, 5, F.q - 2, F.q - 1, F.q, 3 * F.q + 7))


def test_field_above_the_cap_keeps_the_tower_path():
    F = _pinned("F8192")
    assert F.q > ELEM_TABLE_CAP >= _pinned("F4096").q
    assert not isinstance(F.elems, list)
    a = F.elem_at(12345)
    assert a == F.elem_at(12345) and a is not F.elem_at(12345)
    assert all(c is F.base.elem_at(F.base.index(c)) for c in a.coeffs)


# fields with no tables of their own: prime fields and levels above the cap
_UNTABLED = {"F2": (2, ()), "F3": (3, ()), "F8191": (8191, ()), "F5^6": (5, (6,)),
             "F7^6": (7, (6,))}


@pytest.mark.parametrize("name", ["F4", "F16", "F25", "F256", "F625", "F4096"] + list(_UNTABLED))
def test_log_table_equals_a_fresh_walk(name):
    p, degrees = _UNTABLED.get(name) or _PINNED_FIELDS[name][:2]
    F = tower_field(p, *degrees)
    m = F.q - 1
    g = primitive_root(F)
    images = [field_mul_generic(F, F.elem_at(F.p**i), g).idx for i in range(F.e)]
    dlog = [-1] * F.q
    assert AffineIndexMap(F.p, F.e, images).walk(dlog, m) == m
    exp = [0] * m
    for i in range(1, F.q):
        exp[dlog[i]] = i
    one = F.one()
    zech = [dlog[field_add_generic(F, one, F.elem_at(exp[k])).idx] for k in range(m)]
    tab = LogTable(F)
    assert tab.dlog == dlog and tab.zech == zech


@pytest.mark.parametrize("name", ["F4", "F16", "F625", "F4096"])
def test_log_table_limit_below_q(name, monkeypatch):
    F = _pinned(name)
    monkeypatch.setenv("SUPERELL_ZECH_LIMIT", str(F.q - 1))
    with pytest.raises(ResourceLimit, match=f"SUPERELL_ZECH_LIMIT >= {F.q}"):
        LogTable(F)


def test_tower_elements_are_shared():
    F16 = _pinned("F16")
    a = F16.elem_at(7)
    for got in (-a, a.inverse(), a**5, a**-2):
        assert got is F16.elem_at(F16.index(got))
    assert F16.embed(F16.base.elem_at(3)) is F16.elem_at(3) and F16.from_int(3) is F16.one()


@pytest.mark.parametrize("p,e,ell", [(7, 1, 3), (2, 4, 3), (2, 4, 5), (2, 8, 5), (5, 2, 3), (3, 4, 5)])
def test_power_classes_match_the_character_zeta(p, e, ell):
    # c^((q - 1)/ell) = zeta^(k_c) for the zeta of the character context
    F = make_field(p, e)
    zeta_pow_index = char_context(F, ell).zeta_pow_index
    classes = power_classes(F, ell)
    assert classes[0] is None
    for i in range(1, F.q):
        assert classes[i] == zeta_pow_index[F.pow(F.elem_at(i), (F.q - 1) // ell).idx]


def test_power_classes_are_one_class_when_ell_does_not_divide_q_minus_1():
    for p, e, ell in ((5, 1, 3), (2, 3, 5), (3, 2, 5)):
        assert power_classes(make_field(p, e), ell)[1:] == [0] * (p**e - 1)


# p = 2, 3, 5, 7 and two towers, 2 -> 4 -> 16 and 3 -> 9
_MAP_FIELDS = {"2": (2,), "3": (3,), "5": (5,), "7": (7,), "2-4-16": (2, 2, 2), "3-9": (3, 2)}


def _draw_poly(F, data, degree, monic=False):
    coeffs = data.draw(st.lists(st.integers(0, F.q - 1), min_size=degree, max_size=degree))
    return Poly(F, [F.elem_at(c) for c in coeffs] + ([F.one()] if monic else []))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(name=st.sampled_from(list(_MAP_FIELDS)), data=st.data())
def test_affine_index_map_matches_polynomial_arithmetic(name, data):
    """g -> (g h + c) mod M from the g of degree < n to the residues mod M,
    applied to one index, a list, row by row and to every index, against
    Poly arithmetic; n and deg M differ, and c is an offset.  With n = deg M
    and c = 0 the map is multiplication by h in A/M, whose walk is the orbit
    of 1 by Poly products."""
    F = tower_field(*_MAP_FIELDS[name])
    dm = data.draw(st.integers(1, 3).filter(lambda d: F.q**d <= 4096), label="deg M")
    n = data.draw(st.integers(0, 3).filter(lambda d: F.q**d <= 4096), label="n")
    M = _draw_poly(F, data, dm, monic=True)
    h = _draw_poly(F, data, data.draw(st.integers(0, dm + 1), label="deg h + 1"))
    c = _draw_poly(F, data, dm)
    units = [Poly.from_vector_index(F, F.p**i) for i in range(n * F.e)]  # u_s t^j at p^(j e + s)
    images = [(u * h % M).vector_index() for u in units]
    mapped = AffineIndexMap(F.p, dm * F.e, images, c.vector_index())
    expected = [((Poly.from_vector_index(F, j) * h + c) % M).vector_index() for j in range(F.q**n)]
    assert mapped.table() == expected
    picks = data.draw(st.lists(st.integers(0, F.q**n - 1), max_size=20), label="indices")
    assert mapped.images(picks) == [expected[j] for j in picks]
    assert [mapped(j) for j in picks] == [expected[j] for j in picks]
    rows = list(mapped.rows())
    assert len(rows) == F.p ** (n * F.e // 2)
    assert rows == [expected[a::len(rows)] for a in range(len(rows))]

    basis = [Poly.from_vector_index(F, F.p**i) for i in range(dm * F.e)]
    times_h = AffineIndexMap(F.p, dm * F.e, [(u * h % M).vector_index() for u in basis])
    m = F.q**dm - 1
    steps, want = [-1] * (m + 1), [-1] * (m + 1)
    cur, one, order = Poly.one(F), Poly.one(F), 0
    for k in range(m):
        want[cur.vector_index()] = k
        cur = cur * h % M
        if cur == one:
            order = k + 1
            break
    assert times_h.walk(steps, m) == order and steps == want


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(name=st.sampled_from(list(_MAP_FIELDS)), limit=st.sampled_from([2, 4, 20, 1 << 14]),
       data=st.data())
def test_index_sums_match_polynomial_addition(name, limit, data):
    # with a small limit the sums take several chunks, or one digit at a time
    F = tower_field(*_MAP_FIELDS[name])
    n = data.draw(st.integers(1, 4), label="coefficients")
    adder = IndexSums(F.p, n * F.e, limit)
    x = _draw_poly(F, data, n)
    ys = [_draw_poly(F, data, n) for _ in range(data.draw(st.integers(0, 4), label="terms"))]
    x_code = adder.code(x.vector_index())
    assert [adder.add(x_code, adder.code(y.vector_index())) for y in ys] == [
        (x + y).vector_index() for y in ys
    ]
