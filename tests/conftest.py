import os
import random

import pytest

from superell import CycInt, SuperellipticModel, extend_field, make_field
from superell.polyring import Poly


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running checks, enabled with SUPERELL_SLOW_TESTS=1")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("SUPERELL_SLOW_TESTS") == "1":
        return
    skip = pytest.mark.skip(reason="set SUPERELL_SLOW_TESTS=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def F5():
    return make_field(5, 1)


@pytest.fixture(scope="session")
def F7():
    return make_field(7, 1)


@pytest.fixture(scope="session")
def F25():
    return make_field(5, 2)


@pytest.fixture
def rng():
    return random.Random(20260808)


def poly(F, *ints) -> Poly:
    """Polynomial from low-to-high integer coefficients."""
    return Poly.from_ints(F, ints)


def tower_field(p, *degrees):
    """The tower over F_p with the given relative degrees."""
    F = make_field(p, 1)
    for n in degrees:
        F = extend_field(F, n)
    return F


def trigonal(F) -> SuperellipticModel:
    """y^3 = t^3 - t, the trigonal seed model."""
    t = Poly.x(F)
    return SuperellipticModel(3, F, F.one(), (t**3 - t, Poly.one(F)))


def rand_poly(F, max_deg, rng) -> Poly:
    return Poly(F, tuple(F.elem_at(rng.randrange(F.q)) for _ in range(max_deg + 1)))


def translate(P: Poly, b) -> Poly:
    """P(t + b) by Horner's rule on Poly arithmetic."""
    F = P.field
    shift = Poly(F, (b, F.one()))
    out = Poly.zero(F)
    for c in reversed(P.coeffs):
        out = out * shift + Poly.constant(c)
    return out


def central_by_products(coeffs, q, p, e):
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
