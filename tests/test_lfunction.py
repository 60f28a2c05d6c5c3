import json

import pytest

from superell import (
    CycInt,
    DirichletChar,
    InputError,
    InvariantViolation,
    central_value_is_zero,
    l_polynomial,
    mu_embed,
    strip_trivial_factor,
)
from superell.cyclo import conjugate
from superell.lfunction import (
    LCache,
    LPoly,
    _canon,
    _digest,
    _read_cache,
    rescale_by_root,
    trivial_factor_candidates,
)
from superell.polyring import Poly, monics

from conftest import poly


def cyc(ell, *ints):
    return [CycInt.from_int(ell, n) for n in ints]


def test_conductor_t_gives_constant_l(F7):
    chi = DirichletChar(F7, 3, [(Poly.x(F7), 1)])
    L = l_polynomial(chi, verify_orthogonality=True)
    assert L.degree == 0 and L.coeffs[0] == CycInt.from_int(3, 1)


def test_degree_two_even_coefficient_by_direct_sum(F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 2)])
    assert chi.even
    L = l_polynomial(chi, verify_orthogonality=True)
    direct = CycInt.from_int(3, 0)
    for a in range(7):
        direct = direct + chi.eval(t + poly(F7, a)).to_cyc()
    assert L.coeffs[1] == direct
    assert L.degree <= 1


def test_monic_count_harness(F7):
    # the summation loop sees exactly q^n monic polynomials of degree n
    for n in range(4):
        assert sum(1 for _ in monics(F7, n)) == 7**n


def test_strip_examples(F7):
    t = Poly.x(F7)
    odd = DirichletChar(F7, 3, [(t, 1)])
    L = l_polynomial(odd)
    stripped, k = strip_trivial_factor(L, odd)
    assert stripped == L and k is None
    # synthetic 1 - u
    ell = 3
    syn = LPoly(ell, 7, [CycInt.from_int(ell, 1), CycInt.from_int(ell, -1)])
    q, k = strip_trivial_factor(syn, _even_stub(F7))
    assert k == 0 and q.degree == 0 and q.coeffs[0] == CycInt.from_int(ell, 1)


def _even_stub(F7):
    t = Poly.x(F7)
    return DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 2)])


def test_strip_even_degree3(F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 1), (t + Poly.one(F7), 1)])
    assert chi.even
    L = l_polynomial(chi)
    stripped, k = strip_trivial_factor(L, chi)
    assert stripped.degree == chi.degree - 2 == 1
    assert k is not None


def test_strip_missing_root_raises(F7):
    bad = LPoly(3, 7, cyc(3, 1, 1, 7))  # no mu_3 root: 1 + u + 7u^2
    with pytest.raises(InvariantViolation):
        strip_trivial_factor(bad, _even_stub(F7))


def test_trivial_factor_unique_on_census_sample(F7):
    from superell import enumerate_order_ell

    for chi in enumerate_order_ell(F7, 3, 3):
        L = l_polynomial(chi)
        ks = trivial_factor_candidates(L)
        if chi.even:
            assert len(ks) == 1
        # odd characters may or may not have a unit root; strip leaves them alone
        stripped, k = strip_trivial_factor(L, chi)
        if chi.even:
            assert stripped.degree == chi.degree - 2
        else:
            assert k is None and stripped.degree == chi.degree - 1


def test_central_value_examples():
    one = LPoly(3, 7, cyc(3, 1))
    assert not central_value_is_zero(one)
    # 1 - q u^2 over a square q: root at u = 1/sqrt(q)
    sq = LPoly(3, 25, cyc(3, 1, 0, -25))
    assert central_value_is_zero(sq)
    # same shape over q = 5 exercises the odd-exponent split
    odd_q = LPoly(3, 5, cyc(3, 1, 0, -5))
    assert central_value_is_zero(odd_q)
    assert not central_value_is_zero(LPoly(3, 5, cyc(3, 1, 0, 5)))
    # (1 - u)(1 - 5u^2) keeps its central root after multiplying in a unit factor
    mixed = LPoly(3, 5, cyc(3, 1, -1, -5, 5))
    assert central_value_is_zero(mixed)
    # both split components nonzero
    assert not central_value_is_zero(LPoly(3, 5, cyc(3, 1, 1, 5, 1)))


def test_central_value_guard_p_equals_ell():
    # over q = 3^3 with ell = 3, sqrt(q) = 3 sqrt(3) lies in Q(zeta_3, sqrt(3)),
    # so the split along 1 and sqrt(q) would not decide vanishing
    with pytest.raises(InputError):
        central_value_is_zero(LPoly(3, 27, cyc(3, 1, 0, -27)))


def test_dual_coefficients_are_conjugate(F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t**2 + poly(F7, 2), 2)])
    L = l_polynomial(chi)
    Ld = l_polynomial(chi.dual())
    assert [conjugate(c) for c in L.coeffs] == list(Ld.coeffs)


def test_duality_of_central_vanishing(F7):
    from superell import enumerate_order_ell

    for chi in enumerate_order_ell(F7, 3, 2):
        L, _ = strip_trivial_factor(l_polynomial(chi), chi)
        Ld, _ = strip_trivial_factor(l_polynomial(chi.dual()), chi.dual())
        assert central_value_is_zero(L) == central_value_is_zero(Ld)


def test_orthogonality_small(F7):
    from superell import enumerate_order_ell
    from superell.characters import char_sum

    for chi in enumerate_order_ell(F7, 3, 3):
        assert char_sum(chi, chi.degree).is_zero()


def test_rescale_by_root():
    L = LPoly(3, 7, cyc(3, 1, 2, 3))
    R = rescale_by_root(L, 1)
    z = mu_embed(3, 1)
    assert R.coeffs[0] == L.coeffs[0]
    assert R.coeffs[1] == L.coeffs[1] * z
    assert R.coeffs[2] == L.coeffs[2] * z * z
    assert rescale_by_root(L, 0) == L


def test_lpoly_json_roundtrip():
    L = LPoly(3, 7, cyc(3, 1, -2, 7), char_ref={"x": 1})
    back = LPoly.from_json(L.to_json())
    assert back == L


def test_lcache_roundtrip_and_corruption(tmp_path, F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 2)])
    path = tmp_path / "lcache.jsonl"
    cache = LCache(str(path))
    assert cache.get(chi) is None
    L = l_polynomial(chi)
    cache.put([(chi, L), (chi.dual(), l_polynomial(chi.dual()))])
    cache2 = LCache(str(path))
    assert cache2.get(chi) == L
    # put splices the checksum into the hashed payload: the canonical record
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        assert line == _canon({"key": rec["key"], "value": rec["value"], "checksum": rec["checksum"]})
        assert rec["checksum"] == _digest(_canon({"key": rec["key"], "value": rec["value"]}))
    # a line that decodes and whose checksum matches, but that is not in the
    # canonical form put writes, is bad
    path.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in lines))
    assert _read_cache(str(path))[2] == 2
    path.write_text("".join(line + "\n" for line in lines))
    assert _read_cache(str(path))[2] == 0
    # corrupt the line
    text = path.read_text().replace('"checksum":"', '"checksum":"00')
    path.write_text(text)
    from superell import CacheCorrupt

    with pytest.raises(CacheCorrupt):
        LCache(str(path))


@pytest.mark.slow
def test_orthogonality_full_census_degree4(F7):
    from superell import enumerate_order_ell
    from superell.characters import char_sum

    for chi in enumerate_order_ell(F7, 3, 4):
        assert char_sum(chi, chi.degree).is_zero()
