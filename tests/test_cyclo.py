import pytest

from superell import CycInt, InputError, conjugate, mu_embed


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
    assert CycInt.from_json(x.to_json()) == x
    assert x.to_json()["coords"][0] == str(10**30)
