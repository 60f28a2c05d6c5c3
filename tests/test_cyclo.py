import pytest

from superell import CycInt, InputError, InvariantViolation, conjugate, mu_embed
from superell.cyclo import (
    central_sum_is_zero,
    exact_quotient,
    galois,
    newton_coefficients,
    other_conjugates,
    zeta_row,
)


def test_mu_embed_examples():
    assert mu_embed(3, 0).coords == (1, 0)
    assert mu_embed(3, 2).coords == (-1, -1)
    assert mu_embed(5, 7).coords == (0, 0, 1, 0)
    with pytest.raises(InputError):
        mu_embed(2, 1)
    with pytest.raises(InputError):
        mu_embed(9, 1)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_root_sum_vanishes(ell):
    s = CycInt.from_int(ell, 0)
    for k in range(ell):
        s = s + mu_embed(ell, k)
    assert s.is_zero()


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_multiplication_is_exponent_addition(ell):
    for k in range(ell):
        for m in range(ell):
            assert mu_embed(ell, k) * mu_embed(ell, m) == mu_embed(ell, k + m)


def test_conjugate_examples(rng):
    assert conjugate(mu_embed(3, 1)) == CycInt(3, (-1, -1))
    # 1 + zeta + zeta^2 = 0
    assert (mu_embed(3, 0) + mu_embed(3, 1) + mu_embed(3, 2)).is_zero()
    for _ in range(100):
        x = CycInt(5, tuple(rng.randrange(-50, 51) for _ in range(4)))
        assert conjugate(conjugate(x)) == x
    # conjugation fixes integers
    assert conjugate(CycInt.from_int(7, -12)) == CycInt.from_int(7, -12)


def test_is_zero_and_as_int():
    assert CycInt(3, (0, 0)).is_zero()
    assert not mu_embed(3, 1).is_zero()
    assert CycInt.from_int(3, 9).as_int() == 9
    with pytest.raises(InputError):
        mu_embed(3, 1).as_int()


def test_ring_axioms_random(rng):
    for _ in range(50):
        x = CycInt(5, tuple(rng.randrange(-9, 10) for _ in range(4)))
        y = CycInt(5, tuple(rng.randrange(-9, 10) for _ in range(4)))
        z = CycInt(5, tuple(rng.randrange(-9, 10) for _ in range(4)))
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)


def test_zeta_ell_power_is_one():
    for ell in (3, 5, 7):
        acc = mu_embed(ell, 1)
        out = CycInt.from_int(ell, 1)
        for _ in range(ell):
            out = out * acc
        assert out == CycInt.from_int(ell, 1)


def test_json_roundtrip():
    x = CycInt(5, (10**30, -(10**25), 3, 0))
    data = x.to_json()
    assert CycInt(data["ell"], map(int, data["coords"])) == x
    assert x.to_json()["coords"][0] == str(10**30)


@pytest.mark.parametrize("ell", [3, 5, 7, 101])
def test_galois_matches_mu_embed_sum(ell, rng):
    for _ in range(5):
        x = CycInt(ell, tuple(rng.randrange(-9, 10) for _ in range(ell - 1)))
        y = CycInt(ell, tuple(rng.randrange(-9, 10) for _ in range(ell - 1)))
        for j in rng.sample(range(1, ell), min(ell - 1, 6)):
            want = CycInt.from_int(ell, 0)
            for i, c in enumerate(x.coords):
                want = want + mu_embed(ell, i * j) * c
            assert galois(x, j) == want
            assert galois(x * y, j) == galois(x, j) * galois(y, j)
        assert galois(x, 1) == x
        assert galois(x, -1) == conjugate(x)
    with pytest.raises(InputError):
        galois(x, ell)


@pytest.mark.parametrize("ell", [3, 5, 13, 101])
def test_exact_quotient_through_the_norm(ell, rng):
    for _ in range(3):
        x = CycInt(ell, tuple(rng.randrange(-5, 6) for _ in range(ell - 1)))
        y = CycInt(ell, tuple(rng.randrange(-3, 4) for _ in range(ell - 1)))
        if y.is_zero():
            continue
        norm = y * other_conjugates(y)
        assert norm.is_int() and norm.as_int() > 0
        assert exact_quotient(x * y, y) == x
        assert exact_quotient(x * 7, 7) == x
    # 1 + zeta is a unit for ell > 2, and 2 divides no coordinate of 1
    assert exact_quotient(CycInt.from_int(ell, 1), mu_embed(ell, 0) + mu_embed(ell, 1)) is not None
    assert exact_quotient(CycInt.from_int(ell, 1), CycInt.from_int(ell, 2)) is None
    assert exact_quotient(CycInt.from_int(ell, 1), 2) is None
    assert exact_quotient(12, 4) == 3 and exact_quotient(13, 4) is None


def test_newton_coefficients_over_z_and_z_zeta():
    # prod (1 - pi T) for roots 2, 3, -1 over Z
    roots = [2, 3, -1]
    S = [sum(r**m for r in roots) for m in range(1, 4)]
    assert newton_coefficients(S) == [1, -4, 1, 6]
    # over Z[zeta_5]: roots zeta, 1 + zeta^2
    ell = 5
    one = CycInt.from_int(ell, 1)
    r1, r2 = mu_embed(ell, 1), one + mu_embed(ell, 2)
    S = [_power(r1, m) + _power(r2, m) for m in (1, 2)]
    assert newton_coefficients(S, one) == [one, -(r1 + r2), r1 * r2]
    # power sums 1, 0 would need c_2 = 1/2
    with pytest.raises(InvariantViolation):
        newton_coefficients([1, 0])


def _power(x, m):
    out = CycInt.from_int(x.ell, 1)
    for _ in range(m):
        out = out * x
    return out


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_mul_zeta_matches_product(ell, rng):
    """Multiplying by zeta^k on a coordinate row (`zeta_row`) against the
    CycInt product by mu_embed(ell, k)."""
    for _ in range(20):
        x = CycInt(ell, tuple(rng.randrange(-50, 51) for _ in range(ell - 1)))
        for k in range(-1, ell + 1):
            assert zeta_row(x.coords, k) == (x * mu_embed(ell, k)).coords


def _central_by_products(coeffs, q, p, e):
    """sum c_n sqrt(q)^(deg - n) = 0 by Horner on the pair (A, B) of
    A + B sqrt(q), with products in Z[zeta_ell]."""
    ell = coeffs[0].ell
    zero = CycInt.from_int(ell, 0)
    Q = CycInt.from_int(ell, q)
    a = b = zero
    for c in coeffs:
        a, b = b * Q + c, a
    if e % 2 == 0:
        return (a + b * CycInt.from_int(ell, p ** (e // 2))).is_zero()
    return a.is_zero() and b.is_zero()


def _times(coeffs, factor):
    """The coefficients of (sum c_n u^n)(sum f_m u^m) for integer f_m."""
    zero = coeffs[0] * 0
    out = [zero] * (len(coeffs) + len(factor) - 1)
    for n, c in enumerate(coeffs):
        for m, f in enumerate(factor):
            out[n + m] = out[n + m] + c * f
    return out


# sqrt(q) is not independent of Q(zeta_ell) when p = ell: those pairs are left out
@pytest.mark.parametrize(
    "ell, q, p, e",
    [
        (ell, q, p, e)
        for ell in (3, 5, 7)
        for q, p, e in ((7, 7, 1), (4, 2, 2), (16, 2, 4), (25, 5, 2), (49, 7, 2))
        if p != ell
    ],
)
def test_central_sum_on_coordinates_matches_products(ell, q, p, e, rng):
    factors = [[1, 0, -q]]  # 1 - q u^2 vanishes at u = q^(-1/2)
    if e % 2 == 0:
        factors.append([1, -(p ** (e // 2))])  # 1 - sqrt(q) u
    for _ in range(30):
        coeffs = [
            CycInt(ell, tuple(rng.randrange(-30, 31) for _ in range(ell - 1)))
            for _ in range(rng.randrange(1, 7))
        ]
        assert central_sum_is_zero(coeffs, q) == _central_by_products(coeffs, q, p, e)
        for factor in factors:
            vanishing = _times(coeffs, factor)
            assert central_sum_is_zero(vanishing, q)
            assert _central_by_products(vanishing, q, p, e)
    # integer coefficients, as zeta numerators have, and a mixed list
    ints = [rng.randrange(-30, 31) for _ in range(5)]
    as_cyc = [CycInt.from_int(ell, c) for c in ints]
    assert central_sum_is_zero(ints, q) == _central_by_products(as_cyc, q, p, e)
    for factor in factors:
        vanishing = _times(ints, factor)
        assert central_sum_is_zero(vanishing, q)
        mixed = [CycInt.from_int(ell, c) if n % 2 else c for n, c in enumerate(vanishing)]
        assert central_sum_is_zero(mixed, q)
    if e % 2 == 0:
        r = p ** (e // 2)
        assert central_sum_is_zero([1, -2 * r, q], q)  # (1 - sqrt(q) T)^2
        assert not central_sum_is_zero([1, 0, q], q)
