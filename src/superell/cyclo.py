"""Exact arithmetic in Z[zeta_ell] for an odd prime ell, on integer
coordinate rows: the product (`row_mul`), multiplication by a root of unity
zeta^k, a cyclic shift of the coordinates (`zeta_row`), the Galois action
sigma_j: zeta -> zeta^j (`galois_row`), exact division through the norm,
Newton's identities, and the exact central-point test for polynomials with
coefficients in Z[zeta_ell].

An element is stored in the power basis {1, zeta, ..., zeta^{ell-2}}, so
that equality and the zero test are coordinatewise; its coordinate row is
that tuple of ell - 1 plain Python ints, and so unbounded.  The row is the
only representation on the computing paths: every kernel here takes and
returns rows.  A row of width 1 is a rational integer, since Z[zeta_2] = Z
(zeta = -1), so the zeta numerators of `curves` run on the same kernels.
`CycInt` wraps a row as the public value type and the tests' oracle; its
product is `row_mul`.

The central test splits a value along 1 and sqrt(q), q = p^e; the split is
exact when p != ell, which keeps {1, sqrt(q)} linearly independent over
Q(zeta_ell): the only quadratic subfield of Q(zeta_ell) is Q(sqrt(+-ell)).
The central sum is linear in the coefficients, so the test runs on their
integer coordinates, one Horner pass per coordinate, with no products in
Z[zeta_ell].
"""

from __future__ import annotations

import functools

from .errors import InputError, InvariantViolation
from .ffield import factorize_int, is_prime


class CycInt:
    """An element of Z[zeta_ell] in the basis {1, zeta, ..., zeta^{ell-2}}."""

    __slots__ = ("ell", "coords")

    def __init__(self, ell: int, coords):
        coords = tuple(coords)
        if len(coords) != ell - 1:
            raise InputError(f"need {ell - 1} coordinates, got {len(coords)}")
        self.ell = ell
        self.coords = coords

    @classmethod
    def from_int(cls, ell: int, n: int) -> "CycInt":
        return cls(ell, (n,) + (0,) * (ell - 2))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_int(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def _check(self, other: "CycInt"):
        if self.ell != other.ell:
            raise InputError("mixed cyclotomic orders")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.ell, other)
        self._check(other)
        return CycInt(self.ell, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.ell, other)
        self._check(other)
        return CycInt(self.ell, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return CycInt(self.ell, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.ell, tuple(a * other for a in self.coords))
        self._check(other)
        return CycInt(self.ell, row_mul(self.coords, other.coords))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_int() and self.coords[0] == other
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.ell == other.ell and self.coords == other.coords

    def __hash__(self):
        return hash((self.ell, self.coords))

    def __repr__(self):
        return f"CycInt(ell={self.ell}, {list(self.coords)})"

    def to_json(self) -> dict:
        return {"ell": self.ell, "coords": [str(c) for c in self.coords]}


def mu_embed(ell: int, k: int) -> CycInt:
    """zeta^k in basis form; the fixed embedding of mu_ell into Z[zeta_ell]."""
    if ell == 2 or not is_prime(ell) or ell % 2 == 0:
        raise InputError(f"ell must be an odd prime, got {ell}")
    k %= ell
    if k < ell - 1:
        coords = [0] * (ell - 1)
        coords[k] = 1
        return CycInt(ell, coords)
    return CycInt(ell, (-1,) * (ell - 1))


def row_mul(a, b) -> tuple:
    """The row of x y for the rows of x and y, of one width: the only product
    in Z[zeta_ell].  The convolution folds by zeta^ell = 1 and then expands
    zeta^{ell-1} = -(1 + ... + zeta^{ell-2})."""
    ell = len(a) + 1
    folded = [0] * ell
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, start=i):
                folded[j % ell] += x * y
    return row_from_counts(folded)


def row_from_counts(counts) -> tuple:
    """The coordinate row of sum_k counts[k] zeta^k, for a list of ell counts:
    zeta^{ell-1} is -(1 + zeta + ... + zeta^{ell-2})."""
    top = counts[-1]
    return tuple(c - top for c in counts[:-1])


def zeta_row(row, k: int) -> tuple:
    """The row of x zeta^k for the row of x.  Multiplying by zeta^k shifts the
    counts of the powers of zeta cyclically, so it is O(ell), with no product
    in Z[zeta_ell]."""
    ell = len(row) + 1
    k %= ell
    counts = (*row, 0)  # x as counts of zeta^0..zeta^{ell-1}
    return row_from_counts(counts[ell - k:] + counts[: ell - k])


def galois_row(row, j: int) -> tuple:
    """The row of sigma_j(x) for the row of x, j prime to ell: sigma_j permutes
    the powers of zeta, so it is O(ell)."""
    ell = len(row) + 1
    counts = [0] * ell
    for i, c in enumerate(row):
        counts[i * j % ell] += c
    return row_from_counts(counts)


def conjugate(x: CycInt) -> CycInt:
    """Complex conjugation zeta -> zeta^{-1}; an involution."""
    return CycInt(x.ell, galois_row(x.coords, -1))


@functools.cache
def _unit_generator(ell: int) -> int:
    """The smallest generator of (Z/ell)^*."""
    primes = factorize_int(ell - 1)
    return next(
        g for g in range(2, ell) if all(pow(g, (ell - 1) // r, ell) != 1 for r in primes)
    )


def other_conjugates(y) -> tuple:
    """The row of the product of sigma_j(y) over j = 2..ell-1, for the row of
    y, so that y times it is the norm of y, a rational integer.  With g a
    generator of (Z/ell)^* and P_m = prod_{i<m} sigma_{g^i}(y), it is
    sigma_g(P_{ell-2}), and P_m comes from O(log ell) products by doubling:
    P_2a = P_a sigma_{g^a}(P_a) and P_{a+1} = y sigma_g(P_a).  Over Z (width
    1) the product is empty, 1."""
    ell = len(y) + 1
    if ell == 2:
        return (1,)
    g = _unit_generator(ell)
    acc, a = y, 1
    for bit in bin(ell - 2)[3:]:
        acc, a = row_mul(acc, galois_row(acc, pow(g, a, ell))), 2 * a
        if bit == "1":
            acc, a = row_mul(y, galois_row(acc, g)), a + 1
    return galois_row(acc, g)


def exact_quotient(x, d) -> "tuple | None":
    """The row of x / d for the row of x and a nonzero int or row d, or None
    when d does not divide x in Z[zeta_ell].  A row divisor is cleared
    through its norm: x / d = x d' / N(d), with d' = `other_conjugates`(d)."""
    if not isinstance(d, int):
        cof = other_conjugates(d)
        x, d = row_mul(x, cof), row_mul(d, cof)[0]
    if any(c % d for c in x):
        return None
    return tuple(c // d for c in x)


def newton_coefficients(S, width: int) -> list:
    """The rows of the coefficients c_0..c_n of prod (1 - pi T) from the rows
    of the power sums S_m = sum pi^m, m = 1..n (S[m-1] = S_m), all of the
    given width (1 over Z): k c_k = -sum_{i=1..k} S_i c_{k-i}.  The divisions
    must be exact; a remainder signals a counting bug and raises
    InvariantViolation."""
    c = [(1,) + (0,) * (width - 1)]
    for k in range(1, len(S) + 1):
        num = list(S[k - 1])  # times c_0 = 1
        for i in range(1, k):
            for t, v in enumerate(row_mul(S[i - 1], c[k - i])):
                num[t] += v
        ck = exact_quotient(tuple(-v for v in num), k)
        if ck is None:
            raise InvariantViolation("newton-identities", f"non-integral coefficient at k={k}")
        c.append(ck)
    return c


@functools.cache
def _prime_power(q: int) -> tuple[int, int]:
    fac = factorize_int(q)
    if len(fac) != 1:
        raise InputError(f"{q} is not a prime power")
    (p, e), = fac.items()
    return p, e


def central_rows_are_zero(rows, q: int) -> bool:
    """Exact decision whether sum c_n sqrt(q)^(deg - n) = 0 for the
    coefficients c_0..c_deg with the given coordinate rows, all of one width,
    and q = p^e.

    Horner's rule runs on the pair (A, B) with value A + B sqrt(q).  For e
    even, sqrt(q) = p^(e/2) and the value is the single element A + B p^(e/2);
    for e odd, A and B must vanish separately, since {1, sqrt(q)} is linearly
    independent over Q(zeta_ell) whenever p != ell.  The sum is linear in the
    c_n, so A and B are computed coordinate by coordinate on plain ints.
    """
    p, e = _prime_power(q)
    root = p ** (e // 2)  # sqrt(q) when e is even
    for column in zip(*rows):  # coordinate i of every coefficient
        a = b = 0
        for c in column:
            a, b = b * q + c, a
        if e % 2 == 0:
            if a + b * root:
                return False
        elif a or b:
            return False
    return True
