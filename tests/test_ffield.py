import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superell import InputError, ResourceLimit, extend_field, make_field, primitive_root
from superell.ffield import ELEM_TABLE_CAP, LogTable, is_prime, log_table


def brute_canonical_modulus(F, n):
    """Independent oracle: scan monic degree-n polynomials in canonical order,
    return the first with no roots/factors, testing irreducibility by trial
    division against all monic polynomials of degree <= n//2."""
    from superell.polyring import Poly

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


def _tower(p, *degrees):
    F = make_field(p, 1)
    for n in degrees:
        F = extend_field(F, n)
    return F


def test_log_table_consistency():
    towers = [(7, ()), (7, (2,)), (2, (4,)), (3, (5,)), (2, (2, 2)), (3, (2, 2)), (5, (2, 2))]
    for F in (_tower(p, *degrees) for p, degrees in towers):
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
    F = _tower(p, *degrees)
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
    F = _tower(p, *degrees)
    tab = log_table(F)
    i, j = (data.draw(st.integers(1, F.q - 1)) for _ in range(2))
    a, b = F.elem_at(i), F.elem_at(j)
    assert tab.dlog[F.index(a * b)] == (tab.dlog[i] + tab.dlog[j]) % (F.q - 1)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


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
