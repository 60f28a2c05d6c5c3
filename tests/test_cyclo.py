import pytest

from superell import CycInt, InputError, InvariantViolation, conjugate, mu_embed
from superell.cyclo import (
    central_rows_are_zero,
    exact_quotient,
    galois_row,
    newton_coefficients,
    other_conjugates,
    row_mul,
    zeta_row,
)

from conftest import central_by_products


def _rand_row(ell, rng, lo, hi):
    return tuple(rng.randrange(lo, hi + 1) for _ in range(ell - 1))


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


@pytest.mark.parametrize("ell", [3, 5, 7, 101])
def test_multiplication_is_exponent_addition(ell, rng):
    pairs = [(k, m) for k in range(ell) for m in range(ell)]
    if ell > 7:
        pairs = rng.sample(pairs, 60) + [(ell - 1, ell - 1), (ell - 1, 1), (0, ell - 1)]
    for k, m in pairs:
        want = mu_embed(ell, k + m).coords
        assert row_mul(mu_embed(ell, k).coords, mu_embed(ell, m).coords) == want
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


def test_is_zero_and_is_int():
    assert CycInt(3, (0, 0)).is_zero()
    assert not mu_embed(3, 1).is_zero()
    assert CycInt.from_int(3, 9).is_int() and CycInt.from_int(3, 9).coords == (9, 0)
    assert not mu_embed(3, 1).is_int()


def test_ring_axioms_random(rng):
    for ell, trials in ((3, 50), (5, 50), (7, 50), (101, 5)):
        _check_ring_axioms(ell, trials, rng)


def _check_ring_axioms(ell, trials, rng):
    one = mu_embed(ell, 0).coords
    for _ in range(trials):
        x, y, z = (_rand_row(ell, rng, -9, 9) for _ in range(3))
        y_plus_z = tuple(a + b for a, b in zip(y, z))
        xy, xz = row_mul(x, y), row_mul(x, z)
        assert row_mul(x, y_plus_z) == tuple(a + b for a, b in zip(xy, xz))
        assert xy == row_mul(y, x)
        assert row_mul(xy, z) == row_mul(x, row_mul(y, z))
        assert row_mul(x, one) == x
        assert (CycInt(ell, x) * CycInt(ell, y)).coords == xy


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
        x, y = _rand_row(ell, rng, -9, 9), _rand_row(ell, rng, -9, 9)
        for j in rng.sample(range(1, ell), min(ell - 1, 6)):
            want = CycInt.from_int(ell, 0)
            for i, c in enumerate(x):
                want = want + mu_embed(ell, i * j) * c
            assert galois_row(x, j) == want.coords
            assert galois_row(row_mul(x, y), j) == row_mul(galois_row(x, j), galois_row(y, j))
        assert galois_row(x, 1) == x
        assert galois_row(x, -1) == conjugate(CycInt(ell, x)).coords


@pytest.mark.parametrize("ell", [3, 5, 13, 101])
def test_exact_quotient_through_the_norm(ell, rng):
    for _ in range(3):
        x, y = _rand_row(ell, rng, -5, 5), _rand_row(ell, rng, -3, 3)
        if not any(y):
            continue
        norm = row_mul(y, other_conjugates(y))
        assert not any(norm[1:]) and norm[0] > 0
        # the norm is the product of all ell - 1 conjugates
        conjugates = CycInt.from_int(ell, 1)
        for j in range(1, ell):
            conjugates = conjugates * CycInt(ell, galois_row(y, j))
        assert conjugates.coords == norm
        assert exact_quotient(row_mul(x, y), y) == x
        assert exact_quotient(tuple(7 * c for c in x), 7) == x
    # 1 + zeta is a unit for ell > 2, and 2 divides no coordinate of 1
    one, two = mu_embed(ell, 0).coords, (2,) + (0,) * (ell - 2)
    assert exact_quotient(one, (mu_embed(ell, 0) + mu_embed(ell, 1)).coords) is not None
    assert exact_quotient(one, two) is None
    assert exact_quotient(one, 2) is None


def test_exact_quotient_on_width_one_rows():
    # Z[zeta_2] = Z: the norm of an integer is itself
    assert other_conjugates((-6,)) == (1,)
    assert exact_quotient((12,), 4) == (3,) and exact_quotient((13,), 4) is None
    assert exact_quotient((12,), (-4,)) == (-3,) and exact_quotient((12,), (5,)) is None


def test_newton_coefficients_over_z_and_z_zeta():
    # prod (1 - pi T) for roots 2, 3, -1 over Z, on rows of width 1
    roots = [2, 3, -1]
    S = [(sum(r**m for r in roots),) for m in range(1, 4)]
    assert newton_coefficients(S, 1) == [(1,), (-4,), (1,), (6,)]
    assert newton_coefficients([], 1) == [(1,)]  # no roots, as at genus 0
    # over Z[zeta_5]: roots zeta, 1 + zeta^2
    ell = 5
    one = CycInt.from_int(ell, 1)
    r1, r2 = mu_embed(ell, 1), one + mu_embed(ell, 2)
    S = [(_power(r1, m) + _power(r2, m)).coords for m in (1, 2)]
    want = [one, -(r1 + r2), r1 * r2]
    assert newton_coefficients(S, ell - 1) == [c.coords for c in want]
    assert newton_coefficients([], ell - 1) == [one.coords]
    # power sums 1, 0 would need c_2 = 1/2
    with pytest.raises(InvariantViolation):
        newton_coefficients([(1,), (0,)], 1)


def _newton_over_z(S):
    """k c_k = -sum_{i=1..k} S_i c_{k-i} on plain ints."""
    c = [1]
    for k in range(1, len(S) + 1):
        num = -sum(S[i - 1] * c[k - i] for i in range(1, k + 1))
        assert num % k == 0
        c.append(num // k)
    return c


def test_newton_coefficients_on_width_one_rows_is_the_integer_recurrence(rng):
    for n in range(8):
        roots = [rng.randrange(-20, 21) for _ in range(n)]
        S = [sum(r**m for r in roots) for m in range(1, n + 1)]
        got = [c for (c,) in newton_coefficients([(s,) for s in S], 1)]
        assert got == _newton_over_z(S)


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
        coeffs = [CycInt(ell, _rand_row(ell, rng, -30, 30)) for _ in range(rng.randrange(1, 7))]
        rows = [c.coords for c in coeffs]
        assert central_rows_are_zero(rows, q) == central_by_products(coeffs, q, p, e)
        for factor in factors:
            vanishing = _times(coeffs, factor)
            assert central_rows_are_zero([c.coords for c in vanishing], q)
            assert central_by_products(vanishing, q, p, e)
    # integer coefficients, as zeta numerators have, on rows of width 1 and
    # embedded in Z[zeta_ell]
    ints = [rng.randrange(-30, 31) for _ in range(5)]
    as_cyc = [CycInt.from_int(ell, c) for c in ints]
    got = central_rows_are_zero([(c,) for c in ints], q)
    assert got == central_by_products(as_cyc, q, p, e)
    assert got == central_rows_are_zero([c.coords for c in as_cyc], q)
    for factor in factors:
        vanishing = _times(ints, factor)
        assert central_rows_are_zero([(c,) for c in vanishing], q)
        assert central_rows_are_zero([CycInt.from_int(ell, c).coords for c in vanishing], q)
    if e % 2 == 0:
        r = p ** (e // 2)
        assert central_rows_are_zero([(1,), (-2 * r,), (q,)], q)  # (1 - sqrt(q) T)^2
        assert not central_rows_are_zero([(1,), (0,), (q,)], q)
