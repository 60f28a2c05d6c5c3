"""Arithmetic, squarefree testing, factorization and irreducible enumeration
in A = F_q[t].

Polynomials are immutable coefficient tuples, low degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  The canonical order
on polynomials of fixed degree is by the integer value of the coefficient
vector read low-to-high in base q (each coefficient by its field index), which
is the same order the field constructor uses for moduli.  The monic of degree
d with index j has the base-q digits of j as its lower coefficients.

Enumerations read a per-field factor table (`FactorTable`) built by a sieve
of Eratosthenes over A: every irreducible P of degree k <= d/2 marks its
multiples P g of degree d with (P, index of g), unless a smaller prime did, so
the marks give the smallest prime factor, the cofactor and squarefreeness of
every monic, and the unmarked entries are the irreducibles.  `irreducibles`,
`squarefree_monics` and the census conductor enumeration read from it.  The
indices of all multiples f g of a monic f come from `monic_multiples`, which
the exhaustive squarefree count of `oracle` shares.  Multiplication by a
fixed h modulo a fixed M is F_p-linear on the base-p digits of an index, and
`unit_images` gives its images of the unit vectors, from which
`ffield.AffineIndexMap` builds the map; from them come the multiples here,
the residues mod P of `characters`, and `residue_dlog`, the one search for
the smallest generator of (A/P)^* and its discrete log.  That search builds
the residue-symbol tables of `characters` and, since a tower level of
`ffield` is the residue field of its modulus, every field log table.  The
translations g -> g(t + b) and the dilations g -> c^-deg g g(ct) keep degree
and monicity and are affine in the same digits, so `affine_maps` keeps one
`AffineIndexMap` per map and degree; the census takes a conductor's class
through them at the conductor's own degree (`affine_orbit`), and a member's
primes through them at the primes' degrees.

Every remainder, in `%`, `gcd` and the products of a large tower level of
`ffield`, is one loop against a monic divisor (`_remainder`): each step is a
multiply-subtract with no inverse, and only `divmod` collects a quotient.
`gcd` makes each remainder monic before it divides.

Factorization of a single polynomial is squarefree decomposition, then
distinct-degree splitting, then equal-degree splitting seeded from the input;
it is a pure function of the input, serves one-off inputs (models, CLI
arguments, families, the monic associates of the density sampler's draws)
and is the test oracle for the table.
"""

from __future__ import annotations

import itertools
import random
from array import array

from . import limits
from .errors import InputError, InvariantViolation
from .ffield import AffineIndexMap, Field, FieldElem, factorize_int


class Poly:
    """A polynomial over a Field; the ambient ring is F_q[t]."""

    __slots__ = ("field", "coeffs", "_key")

    def __init__(self, field: Field, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1].idx:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)
        self._key = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def constant(cls, c: FieldElem) -> "Poly":
        return cls(c.field, (c,))

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly":
        """Coefficients low-to-high as canonical element indices."""
        return cls(field, tuple(field.elem_at(i % field.q) for i in ints))

    @classmethod
    def from_vector_index(cls, field: Field, j: int) -> "Poly":
        """The polynomial whose coefficients, low degree first, are the base-q
        digits of j: the inverse of `vector_index`."""
        q = field.q
        cs = []
        while j:
            cs.append(field.elem_at(j % q))
            j //= q
        return cls(field, cs)

    @classmethod
    def from_index(cls, field: Field, degree: int, j: int) -> "Poly":
        """The j-th monic polynomial of the given degree in canonical order."""
        return cls.from_vector_index(field, j + field.q**degree)

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].idx == 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def vector_index(self) -> int:
        """The coefficient vector read low-to-high as base-q digits, each
        coefficient by its field index; for a residue mod P (degree < deg P)
        this is its index among the q^(deg P) residues."""
        q = self.field.q
        out = 0
        for c in reversed(self.coeffs):
            out = out * q + c.idx
        return out

    def norm(self) -> int:
        if self.is_zero():
            raise InputError("the zero polynomial has no norm")
        return self.field.q**self.degree

    def key(self) -> tuple:
        """Hashable key; tuple comparison reproduces the canonical order
        (degree, then integer value of the coefficient vector in base q)."""
        if self._key is None:
            self._key = (self.degree, tuple(c.idx for c in reversed(self.coeffs)))
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field is other.field and self.key() == other.key()

    def __hash__(self):
        return hash((id(self.field),) + self.key())

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            ci = c.idx
            if ci == 0:
                continue
            if i == 0:
                terms.append(str(ci))
            elif i == 1:
                terms.append(f"{ci}*t" if ci != 1 else "t")
            else:
                terms.append(f"{ci}*t^{i}" if ci != 1 else f"t^{i}")
        return "Poly(" + " + ".join(reversed(terms)) + ")"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __sub__(self, other: "Poly") -> "Poly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        z = F.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = F.sub(a[i], c)
        return Poly(F, a)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, tuple(F.neg(c) for c in self.coeffs))

    def __mul__(self, other) -> "Poly":
        F = self.field
        if isinstance(other, FieldElem):
            return Poly(F, tuple(F.mul(c, other) for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        out = [F.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x.idx:
                continue
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
        return Poly(F, out)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """(quotient, remainder), against the monic associate of `other`; the
        quotient is then scaled back by its leading coefficient."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        lead, m = other.monic()
        quo = [F.zero()] * max(0, len(self.coeffs) - m.degree)
        rem = _remainder(F, list(self.coeffs), m.coeffs, quo)
        q = Poly(F, quo)
        return (q if lead.idx == 1 else q * lead.inverse()), Poly(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return Poly(self.field, _remainder(self.field, list(self.coeffs), other.monic()[1].coeffs))

    def __pow__(self, n: int) -> "Poly":
        out = Poly.one(self.field)
        b = self
        while n:
            if n & 1:
                out = out * b
            b = b * b
            n >>= 1
        return out

    def monic(self) -> tuple[FieldElem, "Poly"]:
        """Split into (unit, monic part); raises on zero."""
        if self.is_zero():
            raise InputError("zero polynomial has no monic normalisation")
        lead = self.coeffs[-1]
        if lead.idx == 1:
            return lead, self
        return lead, Poly(self.field, _made_monic(self.field, self.coeffs))

    def derivative(self) -> "Poly":
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            scale = F.from_int(i)
            out.append(F.mul(self.coeffs[i], scale))
        return Poly(F, out)


def _remainder(F: Field, rem: list, mc: tuple, quo: "list | None" = None) -> list:
    """rem mod the monic polynomial with coefficients mc, in place, for a
    coefficient list rem with no trailing zeros.  The divisor is monic, so
    each step subtracts the leading coefficient times a shift of it, with no
    inverse; the quotient's coefficients go into `quo` only when it is given
    (for `//`)."""
    db = len(mc) - 1
    sub, mul = F.sub, F.mul
    while len(rem) > db:
        c = rem.pop()
        k = len(rem) - db
        if quo is not None:
            quo[k] = c
        for j in range(db):
            if mc[j].idx:
                rem[k + j] = sub(rem[k + j], mul(c, mc[j]))
        while rem and not rem[-1].idx:
            rem.pop()
    return rem


def _made_monic(F: Field, cs):
    """The coefficients cs (no trailing zeros) divided by the last one."""
    lead = cs[-1]
    if lead.idx == 1:
        return cs
    inv, mul = F.inverse(lead), F.mul
    return [mul(c, inv) for c in cs]


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0.  Euclid on monic remainders: each remainder
    is made monic before it divides, so every reduction is `_remainder`."""
    F = a.field
    if b.is_zero():
        return a if a.is_zero() else a.monic()[1]
    x, y = list(a.coeffs), _made_monic(F, list(b.coeffs))
    while True:
        x = _remainder(F, x, y)
        if not x:
            return Poly(F, y)
        x, y = y, _made_monic(F, x)


def powmod(base: Poly, n: int, mod: Poly) -> Poly:
    out = Poly.one(base.field) % mod
    b = base % mod
    while n:
        if n & 1:
            out = (out * b) % mod
        b = (b * b) % mod
        n >>= 1
    return out


# -- squarefreeness and factorization -----------------------------------------


def is_squarefree(f: Poly) -> bool:
    """True iff no irreducible square divides f.

    Uses gcd(f, f'); f' = 0 with deg f > 0 means f is a p-th power, the
    characteristic-p pitfall the derivative test must special-case.
    """
    if f.is_zero():
        raise InputError("squarefreeness of the zero polynomial is undefined")
    if f.degree <= 0:
        return True
    fp = f.derivative()
    if fp.is_zero():
        return False
    return gcd(f, fp).degree == 0


class Factorization:
    """f = unit * prod P^e over `factors`, the (monic irreducible P, e) pairs
    in canonical order; equal when unit and factors are."""

    __slots__ = ("unit", "factors")

    def __init__(self, unit: FieldElem, factors: tuple[tuple[Poly, int], ...]):
        self.unit = unit
        self.factors = factors

    def __eq__(self, other):
        if not isinstance(other, Factorization):
            return NotImplemented
        return (self.unit, self.factors) == (other.unit, other.factors)

    def __repr__(self):
        return f"Factorization(unit={self.unit!r}, factors={self.factors!r})"

    def num_prime_factors(self) -> int:
        return len(self.factors)


def _pth_root(f: Poly) -> Poly:
    """Inverse Frobenius on a polynomial with vanishing derivative: f = g(t^p)."""
    F = f.field
    p = F.p
    root_pow = F.q // p  # a -> a^{q/p} is the inverse of a -> a^p
    cs = []
    for i in range(0, len(f.coeffs), p):
        cs.append(F.pow(f.coeffs[i], root_pow))
    return Poly(F, cs)


def _squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """f monic; returns pairwise-coprime monic squarefree parts with multiplicities."""
    out: list[tuple[Poly, int]] = []
    if f.degree == 0:
        return out
    fp = f.derivative()
    if fp.is_zero():
        for g, m in _squarefree_decomposition(_pth_root(f)):
            out.append((g, m * f.field.p))
        return out
    c = gcd(f, fp)
    w = f // c
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        c = c // y
        w = y
        i += 1
    if c.degree > 0:
        for g, m in _squarefree_decomposition(_pth_root(c)):
            out.append((g, m * f.field.p))
    return out


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """f monic squarefree; returns (product of irreducibles of degree d, d)."""
    out = []
    q = f.field.q
    x = Poly.x(f.field)
    h = x % f
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        h = powmod(h, q, f)
        g = gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus split of a monic product of degree-d irreducibles."""
    if f.degree == d:
        return [f]
    F = f.field
    q = F.q
    n = f.degree
    while True:
        a = Poly(F, tuple(F.elem_at(rng.randrange(q)) for _ in range(n)))
        if a.degree < 1:
            continue
        g = gcd(a, f)
        if 0 < g.degree < n:
            break
        if q % 2 == 1:
            b = powmod(a, (q**d - 1) // 2, f)
            g = gcd(b - Poly.one(F), f)
        else:
            # characteristic 2: additive trace map splits instead
            t = a
            acc = a
            for _ in range(d * F.e - 1):
                t = powmod(t, 2, f)
                acc = acc + t
            g = gcd(acc, f)
        if 0 < g.degree < n:
            break
    return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def factor(f: Poly) -> Factorization:
    """Complete factorization into monic irreducibles, sorted by key.  The
    random splits of Cantor-Zassenhaus are seeded from the `vector_index` of
    the monic part of f, so the work done is a pure function of f; the
    factors, being unique, do not depend on the seed."""
    if f.is_zero():
        raise InputError("cannot factor the zero polynomial")
    unit, g = f.monic()
    found: dict[tuple, tuple[Poly, int]] = {}
    rng = random.Random(g.vector_index())
    for part, mult in _squarefree_decomposition(g):
        for prod, d in _distinct_degree(part):
            for p in _equal_degree(prod, d, rng):
                k = p.key()
                if k in found:
                    q0, e0 = found[k]
                    found[k] = (q0, e0 + mult)
                else:
                    found[k] = (p, mult)
    factors = tuple(sorted(found.values(), key=lambda t: t[0].key()))
    return Factorization(unit=unit, factors=factors)


# -- enumeration -----------------------------------------------------------------


def irreducible_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d (necklace formula)."""
    total = 0
    for m in _divisors(d):
        total += _mobius_int(m) * q ** (d // m)
    return total // d


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize_int(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _mobius_int(n: int) -> int:
    f = factorize_int(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test; constants are units, not irreducibles."""
    if f.degree < 1:
        return False
    _, g = f.monic()
    n = g.degree
    if n == 1:
        return True
    q = f.field.q
    x = Poly.x(f.field)
    if powmod(x, q**n, g) != x % g:
        return False
    for r in factorize_int(n):
        h = powmod(x, q ** (n // r), g)
        if gcd(h - x, g).degree != 0:
            return False
    return True


def unit_images(h: Poly, n: int, mod: Poly) -> list[int]:
    """The indices of u_s t^j h mod `mod` for j < n and s < e, u_s the element
    with index p^s: the images of the unit vectors p^(j e + s) of the index
    of a g of degree < n under g -> g h mod `mod`, which is F_p-linear in the
    base-p digits of g's index."""
    F = h.field
    units = [F.elem_at(F.p**s) for s in range(F.e)]
    x = Poly.x(F)
    cur = h % mod
    images = []
    for _ in range(n):
        images.extend((cur * u).vector_index() for u in units)
        cur = (cur * x) % mod
    return images


# generator candidates walked before the modulus is tested for irreducibility;
# a reducible modulus has no generator, so every candidate would fail
_GENERATOR_TRIES = 8


def residue_dlog(P: Poly, counts: dict | None = None) -> tuple[int, array]:
    """(index of the smallest generator g of (A/P)^*, steps) with steps[r] = k
    for g^k the residue of index r, and steps[0] = -1.

    Candidates are walked through their powers on integer residue indices
    (`ffield.AffineIndexMap.walk`, with the `unit_images` of the candidate
    mod P) in index order, from q when deg P > 1 and from 2 otherwise: no
    constant generates (A/P)^* when deg P > 1, and 1 does only when
    |P| = 2, where the search starts at 1.  The first whose walk returns to 1 only after
    |P| - 1 steps is a generator, and its walk is the discrete log.  Such a
    walk also proves P irreducible.  A candidate that an earlier failed walk
    reached is skipped: its order divides that walk's, which is below
    |P| - 1.  After `_GENERATOR_TRIES` failed walks P is tested once, and a
    reducible P raises InvariantViolation.  The candidates walked and the
    steps taken are added to the `generator_candidates` and `walk_steps`
    entries of `counts`, when given.

    A tower level B[t]/(m) is A/P for A = B[t] and P = m, with the same
    element indices, and a prime field is A/(t) over itself, so the log
    tables of `ffield` come from here too.
    """
    if counts is None:
        counts = dict.fromkeys(("generator_candidates", "walk_steps"), 0)
    F = P.field
    size = F.q**P.degree
    m = size - 1
    steps = array("q", [-1]) * size
    tries = 0
    for j in range(F.q if P.degree > 1 else min(2, m), size):
        if steps[j] >= 0:
            continue  # a power of a failed candidate: its order is below m
        if tries == _GENERATOR_TRIES and not is_irreducible(P):
            break
        tries += 1
        counts["generator_candidates"] += 1
        images = unit_images(Poly.from_vector_index(F, j), P.degree, P)
        order = AffineIndexMap(F.p, P.degree * F.e, images).walk(steps, m)
        counts["walk_steps"] += order or m  # no return to 1: all m steps
        if order == m:
            return j, steps
    raise InvariantViolation("residue-symbol-modulus", f"{P!r} is reducible: no generator")


def monic_multiples(f: Poly, m: int) -> list[int]:
    """The index of f g among the monics of degree deg f + m, for every monic
    g of degree m in index order; f must be monic.

    f g = f t^m plus the sum over i < m of g_i t^i f, so g -> f g is affine in
    the base-p digits of g's index, with the `unit_images` of f mod
    t^(deg f + m), and all q^m products are the table of its
    `ffield.AffineIndexMap`, with no field arithmetic per g.
    """
    F = f.field
    q, k = F.q, f.degree
    images = unit_images(f, m, Poly.from_index(F, k + m, 0))
    offset = (f.vector_index() - q**k) * q**m
    return AffineIndexMap(F.p, (k + m) * F.e, images, offset).table()


class _Level:
    """Level d of a factor table: compact columns with one entry per monic f
    of degree d, addressed by its canonical index."""

    __slots__ = ("spf_deg", "spf_rank", "cofactor", "squarefree", "primes")

    def __init__(self, size: int):
        # smallest prime factor P of f: its degree (0 while unmarked) and its
        # rank among the irreducibles of that degree; the index of f / P one
        # level of deg P down; and whether f is squarefree
        self.spf_deg = array("B", bytes(size))
        self.spf_rank = array("q", [0]) * size
        self.cofactor = array("q", [0]) * size
        self.squarefree = bytearray(size)
        self.primes = array("q")  # indices of the irreducibles, ascending


class FactorTable:
    """The factorization of every monic over one field up to some degree,
    built level by level with a sieve (one per field, see `factor_table`).

    Level d is built from the lower levels: for each irreducible P of degree
    k <= d/2 in canonical order and each monic g of degree d - k, the entry
    of P g is marked with (P, index of g) unless a smaller prime marked it
    first.  So every mark is the smallest prime factor, the unmarked entries
    are the irreducibles, and P g is squarefree exactly when g is and P is
    not g's smallest prime.  Following the marks down the levels lists the
    prime factors in canonical order.  The indices of all P g come from
    `monic_multiples`, with no field arithmetic per g.
    """

    def __init__(self, field: Field):
        self.field = field
        one = _Level(1)  # level 0: the monic 1, which has no prime factor
        one.squarefree[0] = 1
        self.levels = [one]
        self.entries = 0  # monics classified so far, for runtime statistics

    def level(self, d: int) -> _Level:
        """Level d, building it and the levels below it on first use."""
        if d < 0:
            raise InputError(f"no monics of negative degree {d}")
        while len(self.levels) <= d:
            self._build(len(self.levels))
        return self.levels[d]

    def _build(self, d: int) -> None:
        F = self.field
        size = F.q**d
        what = f"a factor table of the {F.q}^{d} monics of degree {d} over {F}"
        limits.require("SUPERELL_LIMIT_CENSUS", size, what)
        lv = _Level(size)
        spf_deg, spf_rank, cofactor, squarefree = lv.spf_deg, lv.spf_rank, lv.cofactor, lv.squarefree
        for k in range(1, d // 2 + 1):
            m = d - k
            low = self.levels[m]
            g_deg, g_rank, g_sqf = low.spf_deg, low.spf_rank, low.squarefree
            for r, P in enumerate(irreducibles(F, k)):
                for g, j in enumerate(monic_multiples(P, m)):
                    if spf_deg[j]:
                        continue  # a smaller prime divides P g
                    spf_deg[j] = k
                    spf_rank[j] = r
                    cofactor[j] = g
                    # no prime below P divides g, so P^2 | P g iff P is g's smallest
                    squarefree[j] = g_sqf[g] and (g_deg[g] != k or g_rank[g] != r)
        primes = lv.primes
        for j in range(size):
            if not spf_deg[j]:
                spf_deg[j] = d
                spf_rank[j] = len(primes)
                squarefree[j] = 1
                primes.append(j)
        self.levels.append(lv)
        self.entries += size

    def _marks(self, d: int, j: int):
        """(degree, rank) of each prime factor of the monic j of degree d,
        repeated by multiplicity, in canonical order."""
        levels = self.levels
        while d:
            lv = levels[d]
            k = lv.spf_deg[j]
            yield k, lv.spf_rank[j]
            j = lv.cofactor[j]
            d -= k

    def factors(self, d: int, j: int) -> tuple[tuple[Poly, int], ...]:
        """The (prime, exponent) pairs of the monic j of degree d, in the
        canonical order `factor` gives them."""
        self.level(d)
        F = self.field
        primes = [irreducibles(F, k)[r] for k, r in self._marks(d, j)]
        return tuple((P, len(list(run))) for P, run in itertools.groupby(primes))

    def squarefree_primes(self, d: int, skip=None):
        """(j, primes, codes) for every squarefree monic of degree d, in index
        order: its index j, its prime factors in canonical order, the shared
        objects of `irreducibles`, and their codes (degree k, index among the
        monics of degree k), both as tuples.  A squarefree f = P g, P its
        smallest prime, has P's prime and code ahead of g's, so each level
        below d is walked once and its rows kept for the walk of the next.
        An index j of degree d with `skip[j]` set is passed over before its
        row is built; the flags are read as the walk reaches them, so the
        caller may set them while it runs."""
        self.level(d)
        irr = [()] + [irreducibles(self.field, k) for k in range(1, d + 1)]
        codes = [()] + [[(k, j) for j in self.levels[k].primes] for k in range(1, d + 1)]
        rows = [[((), ())]]  # rows[m][j]: (primes, codes) of the monic j of degree m
        for m in range(1, d + 1):
            lv = self.levels[m]
            spf_deg, spf_rank, cofactor, flags = lv.spf_deg, lv.spf_rank, lv.cofactor, lv.squarefree
            top = m == d
            if top and skip is None:
                skip = bytes(len(flags))
            kept = None if top else [None] * len(flags)
            for j in itertools.compress(range(len(flags)), flags):
                if top and skip[j]:
                    continue
                k, r = spf_deg[j], spf_rank[j]
                primes, rest = rows[m - k][cofactor[j]]
                row = ((irr[k][r],) + primes, (codes[k][r],) + rest)
                if top:
                    yield j, *row
                else:
                    kept[j] = row
            rows.append(kept)

    def prime(self, k: int, j: int) -> Poly:
        """The irreducible with index j among the monics of degree k, the
        shared object of `irreducibles`; InvariantViolation when that monic
        is not irreducible."""
        lv = self.level(k)
        if lv.spf_deg[j] != k:
            raise InvariantViolation(
                "irreducible-index", f"monic {j} of degree {k} is not irreducible"
            )
        return irreducibles(self.field, k)[lv.spf_rank[j]]


def factor_table(F: Field) -> FactorTable:
    """The factor table of F (cached in the field)."""
    table = F._cache.get("factor_table")
    if table is None:
        table = F._cache["factor_table"] = FactorTable(F)
    return table


def irreducibles(F: Field, d: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree exactly d in canonical order (cached):
    the unmarked entries of level d of the factor table."""
    if d < 1:
        raise InputError("irreducible enumeration needs degree >= 1")
    cache = F._cache.setdefault("irreducibles", {})
    got = cache.get(d)
    if got is None:
        got = tuple(Poly.from_index(F, d, j) for j in factor_table(F).level(d).primes)
        if len(got) != irreducible_count(F.q, d):
            raise AssertionError("irreducible enumeration disagrees with the necklace count")
        cache[d] = got
    return got


def affine_maps(F: Field, k: int) -> tuple[tuple, tuple]:
    """(translations, dilations) on the monics of degree k, each map an
    `ffield.AffineIndexMap` on the base-p digits of their index (cached per
    field): translations[b], for b in F_q by element index, is g -> g(t + b),
    and dilations[c], for c in F_q^* by element index, is sigma_c(g) =
    c^-k g(ct), None at index 0.

    Both maps keep degree and monicity.  On the lower coefficients of a monic
    of degree k, g -> g(t + b) is affine: the unit vector p^(i e + s) goes to
    u_s (t + b)^i, u_s the element with index p^s, and the offset is
    (t + b)^k - t^k.  sigma_c is linear: p^(i e + s) goes to u_s c^(i - k) t^i."""
    cache = F._cache.setdefault("affine_maps", {})
    got = cache.get(k)
    if got is None:
        units = [F.elem_at(F.p**s) for s in range(F.e)]
        shifts = []
        for b in range(F.q):
            shift = Poly(F, (F.elem_at(b), F.one()))
            power, images = Poly.one(F), []
            for _ in range(k):
                images.extend((power * u).vector_index() for u in units)
                power = power * shift
            offset = (power - Poly.from_index(F, k, 0)).vector_index()
            shifts.append(AffineIndexMap(F.p, k * F.e, images, offset))
        scales = [None]
        for ci in range(1, F.q):
            c = F.elem_at(ci)
            scale, images = F.inverse(F.pow(c, k)), []  # c^(i - k) at i = 0
            for i in range(k):
                images.extend(F.mul(u, scale).idx * F.q**i for u in units)
                scale = F.mul(scale, c)
            scales.append(AffineIndexMap(F.p, k * F.e, images))
        got = cache[k] = (tuple(shifts), tuple(scales))
    return got


def affine_orbit(F: Field, k: int, j: int) -> list[int]:
    """The index of sigma_c(g(t + b)) for the monic g of degree k with index
    j, for each (c, b), c in F_q^* and b in F_q by element index, at
    m = (c - 1) q + b: translations first, and m = 0 is g itself.  The maps
    are those of `affine_maps`; an orbit with a non-trivial stabiliser
    repeats its indices."""
    shifts, scales = affine_maps(F, k)
    moved = [shift(j) for shift in shifts]
    return [r for scale in scales[1:] for r in scale.images(moved)]


def squarefree_monics(F: Field, d: int) -> tuple[Poly, ...]:
    """All monic squarefree polynomials of degree exactly d, in canonical
    order: the entries of level d of the factor table flagged squarefree."""
    flags = factor_table(F).level(d).squarefree
    return tuple(Poly.from_index(F, d, j) for j, flag in enumerate(flags) if flag)


# -- text format ------------------------------------------------------------------


def elem_to_json(a: FieldElem):
    """Prime-field elements as ints; tower elements as digit vectors over the base."""
    if a.field.base is None:
        return a.idx
    return [elem_to_json(c) for c in a.coeffs]


def elem_from_json(F: Field, data) -> FieldElem:
    if isinstance(data, int):
        # an int denotes the image of that integer (prime-field constant)
        return F.from_int(data)
    if F.base is None:
        raise InputError("nested coefficient vector given for a prime field")
    return F.from_coeffs(tuple(elem_from_json(F.base, d) for d in data))


def poly_to_json(f: Poly) -> list:
    return [elem_to_json(c) for c in f.coeffs]


def poly_from_json(F: Field, data) -> Poly:
    return Poly(F, tuple(elem_from_json(F, d) for d in data))
