"""Definitional routes that only the tests call, as oracles of the fast
paths: digit sums and schoolbook products for the field's tables,
square-and-multiply residue symbols for the symbol tables, point counts by
tower arithmetic for the log tables, character sums in Z[zeta_ell] for the
L-polynomials, character counts and the full enumeration of order-ell
characters, conductor by conductor, for the census, predicted counts and long
division over Q for zeta numerators, the per-pair specialization for the
family generator, from-scratch squarefree filters and counts for the density
sampler and the sieve, brute-force local counts for the density's local
factors, and the expansion of a factorization for the factorizer.  No
module of superell imports this one except `__init__`, which re-exports
`MuValue`, `residue_symbol`, `specialize`, `count_all_primitive`,
`enumerate_order_ell` and `genus_bound_degree`.
"""

from __future__ import annotations

from . import limits
from .characters import DirichletChar, char_context, char_value_counts, squarefree_conductors
from .curves import SuperellipticModel, ZetaNum, count_points, power_sums
from .cyclo import CycInt, mu_embed, row_from_counts
from .errors import InputError, InvariantViolation, ResourceLimit
from .families import BinaryForm, RationalMap, _require_family_base, homogenize
from .ffield import Field, FieldElem
from .polyring import Factorization, Poly, factor_table, is_squarefree, monic_multiples, powmod


class MuValue:
    """Zero, or a root of unity zeta^k; multiplicative with Zero absorbing."""

    __slots__ = ("ell", "k")

    def __init__(self, ell: int, k):
        self.ell = ell
        self.k = None if k is None else k % ell

    @classmethod
    def zero(cls, ell: int) -> "MuValue":
        return cls(ell, None)

    @classmethod
    def root(cls, ell: int, k: int) -> "MuValue":
        return cls(ell, k)

    def is_zero(self) -> bool:
        return self.k is None

    def __mul__(self, other: "MuValue") -> "MuValue":
        if self.ell != other.ell:
            raise InputError("mixed orders in MuValue product")
        if self.k is None or other.k is None:
            return MuValue.zero(self.ell)
        return MuValue(self.ell, self.k + other.k)

    def __pow__(self, n: int) -> "MuValue":
        if self.k is None:
            return MuValue.zero(self.ell) if n != 0 else MuValue.root(self.ell, 0)
        return MuValue(self.ell, self.k * n)

    def to_cyc(self) -> CycInt:
        if self.k is None:
            return CycInt.from_int(self.ell, 0)
        return mu_embed(self.ell, self.k)

    def __eq__(self, other):
        if not isinstance(other, MuValue):
            return NotImplemented
        return self.ell == other.ell and self.k == other.k

    def __hash__(self):
        return hash((self.ell, self.k))

    def __repr__(self):
        return f"MuValue({'0' if self.k is None else f'zeta^{self.k}'})"


def _digit_sum(p: int, x: int, y: int, sign: int = 1) -> int:
    """The index of a + sign * b from the indices x, y of a, b: base-p digit
    by digit, mod p."""
    out, w = 0, 1
    while x or y:
        x, dx = divmod(x, p)
        y, dy = divmod(y, p)
        out += (dx + sign * dy) % p * w
        w *= p
    return out


def _product_index(F: Field, x: int, y: int) -> int:
    if F.base is None:
        return x * y % F.p
    base, n, qb, p = F.base, F.rel_degree, F.base.q, F.p
    xs = [x // qb**i % qb for i in range(n)]
    ys = [y // qb**i % qb for i in range(n)]
    prod = [0] * (2 * n - 1)
    for i, u in enumerate(xs):
        for j, v in enumerate(ys):
            prod[i + j] = _digit_sum(p, prod[i + j], _product_index(base, u, v))
    modulus = [c.idx for c in F.modulus]  # monic of degree n
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]  # subtract c t^(k - n) times the modulus
        for j in range(n + 1):
            term = _product_index(base, c, modulus[j])
            prod[k - n + j] = _digit_sum(p, prod[k - n + j], term, -1)
    return sum(d * qb**i for i, d in enumerate(prod[:n]))


def field_add_generic(F: Field, a: FieldElem, b: FieldElem, sign: int = 1) -> FieldElem:
    """a + sign * b by definition, sign = 1 or -1: base-p digit by digit of
    the element indices."""
    return F.elem_at(_digit_sum(F.p, a.idx, b.idx, sign))


def field_mul_generic(F: Field, a: FieldElem, b: FieldElem) -> FieldElem:
    """a b by definition: the schoolbook product of the coefficient vectors
    over the base, reduced mod the modulus over the base, with products in
    the base by the same route down to ints mod p and sums digit by digit.
    It reads only element indices and the modulus, never the field's own
    arithmetic."""
    return F.elem_at(_product_index(F, a.idx, b.idx))


def residue_symbol(g: Poly, P: Poly, ell: int) -> MuValue:
    """The order-ell power residue symbol (g/P), computed as g^((|P|-1)/ell) mod P.

    The power is a square-and-multiply on polynomials mod P; the result is
    asserted to be a constant in mu_ell(F_q).
    """
    ctx = char_context(g.field, ell)
    if (g % P).is_zero():
        return MuValue.zero(ell)
    r = powmod(g, (g.field.q**P.degree - 1) // ell, P)
    if r.degree > 0:
        raise InvariantViolation("symbol-constant", f"symbol of {g!r} mod {P!r} is not constant")
    c = r.coeffs[0] if r.coeffs else g.field.zero()
    k = ctx.zeta_pow_index.get(g.field.index(c))
    if k is None:
        raise InvariantViolation("symbol-root", f"symbol value of {g!r} mod {P!r} outside mu_ell")
    return MuValue.root(ell, k)


def count_all_primitive(q: int, d: int) -> int:
    """Number of primitive Dirichlet characters (all orders) with conductor degree d."""
    if d < 0:
        raise InputError("negative conductor degree")
    if d == 0:
        return 1
    if d == 1:
        return q * q - 2 * q
    return q ** (2 * d - 2) * (q - 1) ** 2


def conductor_groups(F: Field, ell: int, d: int):
    """All primitive order-ell characters with conductor degree exactly d, in
    canonical order, one list per squarefree monic conductor: the exponent
    assignments over its primes (equivalently, the component tuples
    (D_1, ..., D_{ell-1}) of superelliptic models).  It builds every
    character of `characters.squarefree_conductors`, the one enumeration, on
    the table's codes (`DirichletChar._on_table_primes`); the census walks
    the same enumeration but builds a character only where something reads
    one."""
    make = DirichletChar._on_table_primes
    for _, primes, codes, assignments in squarefree_conductors(F, ell, d):
        yield [make(F, ell, primes, codes, x) for x in assignments]


def enumerate_order_ell(F: Field, ell: int, n: int) -> list[DirichletChar]:
    """All primitive order-ell characters with conductor degree <= n."""
    char_context(F, ell)  # validates q = 1 mod ell
    limits.require("SUPERELL_LIMIT_CENSUS", F.q**n, f"enumeration at degree {n} over {F}")
    out: list[DirichletChar] = []
    for d in range(1, n + 1):
        for chars in conductor_groups(F, ell, d):
            out.extend(chars)
    return out


def char_value(chi: DirichletChar, g: Poly) -> MuValue:
    """chi(g) = prod of residue symbols; zero when g shares a conductor factor."""
    out = MuValue.root(chi.ell, 0)
    for P, e in chi.exponent_map:
        out = out * residue_symbol(g, P, chi.ell) ** e
        if out.is_zero():
            return out
    return out


def char_sum(chi: DirichletChar, degree: int) -> CycInt:
    """Sum of chi(g) over monic g of exactly the given degree, in Z[zeta_ell]."""
    return CycInt(chi.ell, row_from_counts(char_value_counts(chi, degree)[0]))


def count_points_generic(M: SuperellipticModel, E: Field) -> int:
    """Degree-one places of the smooth model over the extension E of its
    field, by tower arithmetic: Horner evaluation of every component at every
    x in E and the Kummer fiber rule, as `curves.count_points` counts them."""
    ell = M.ell
    order = E.q - 1
    ell_divides = order % ell == 0
    power = order // ell if ell_divides else 0
    one = E.one()
    comps = [
        (i, tuple(E.embed(c) for c in D.coeffs))
        for i, D in enumerate(M.components, start=1)
        if D.degree >= 1
    ]
    twist = E.embed(M.twist)

    def fiber(u: FieldElem) -> int:
        if not ell_divides:
            return 1
        return ell if E.pow(u, power) == one else 0

    total = 0
    for idx in range(E.q):
        x = E.elem_at(idx)
        val = twist
        ramified = False
        for i, coeffs in comps:
            acc = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                acc = E.add(E.mul(acc, x), c)
            if acc.is_zero():
                ramified = True
                break
            val = E.mul(val, E.pow(acc, i))
        total += 1 if ramified else fiber(val)
    if M.weighted_degree % ell == 0:
        total += fiber(twist)
    else:
        total += 1
    return total


def predicted_count(P: ZetaNum, n: int) -> int:
    """N_n = q^n + 1 - S_n implied by the numerator."""
    return P.q**n + 1 - power_sums(P, n)[n - 1]


def check_predicted_counts(M: SuperellipticModel, P: ZetaNum) -> None:
    """Raise InvariantViolation("predicted-counts") unless the counts
    N_{g+1}..N_{2g} that the numerator P of M predicts equal direct counts."""
    for n in range(P.g + 1, 2 * P.g + 1):
        direct = count_points(M, n)
        pred = predicted_count(P, n)
        if direct != pred:
            raise InvariantViolation(
                "predicted-counts", f"N_{n}: predicted {pred}, counted {direct} for {M!r}"
            )


def numerator_divides_rational(P0: ZetaNum, P: ZetaNum) -> bool:
    """P0 | P by long division over Q from the leading terms, in `Fraction`s:
    the oracle of `curves.numerator_divides`."""
    from fractions import Fraction  # here, as in `density`: the CLI imports this module

    if P0.q != P.q:
        raise InputError("numerator divisibility needs matching base fields")
    rem = [Fraction(c) for c in P.coeffs]
    div = [Fraction(c) for c in P0.coeffs]
    while len(rem) >= len(div):
        lead = rem[-1] / div[-1]
        off = len(rem) - len(div)
        for i, c in enumerate(div):
            rem[off + i] -= lead * c
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return True
    return not rem


def genus_bound_degree(g_target: int, g0: int, ell: int) -> int:
    """Largest deg h keeping the pulled-back genus at most g_target."""
    if g0 < 0:
        raise InputError("negative genus")
    return (g_target + ell - 1) // (g0 + ell - 1)


def specialize(M0: SuperellipticModel, h: RationalMap) -> "SuperellipticModel | None":
    """The family member with components F_i(numer, denom), or None when a
    filter rejects it (non-squarefree product or leading-coefficient drop):
    the oracle of `families.generate_family`."""
    _require_family_base(M0)
    return _specialize_checked(M0, h.numer, h.denom)


def _specialize_checked(
    M0: SuperellipticModel, numer: Poly, denom: Poly
) -> "SuperellipticModel | None":
    """`specialize` for a base already checked and a coprime, non-constant
    pair numer/denom: each D_i = F_i(numer, denom) in full, then the
    squarefree test on their product."""
    F = M0.field
    deg_h = max(numer.degree, denom.degree)
    comps = []
    twist = M0.twist
    for i, f_i in enumerate(M0.components, start=1):
        if f_i.degree < 1:
            comps.append(Poly.one(F))
            continue
        Di = homogenize(f_i).evaluate(numer, denom)
        if Di.is_zero() or Di.degree != f_i.degree * deg_h:
            return None
        lead, monic = Di.monic()
        twist = F.mul(twist, F.pow(lead, i))
        comps.append(monic)
    prod = Poly.one(F)
    for D in comps:
        prod = prod * D
    if prod.degree < 1 or not is_squarefree(prod):
        return None
    member = SuperellipticModel(M0.ell, F, twist, comps)
    if not member.normalized:  # cannot happen once degrees are exact, kept as a guard
        return None
    return member


def passes_squarefree_filter(F_form: BinaryForm, numer: Poly, denom: Poly, excluded) -> bool:
    """True when F(numer, denom) is nonzero and squarefree away from the
    excluded primes (squarefree as an ideal of the localized ring).  The
    value is the sum of the terms c_i numer^i denom^(d - i) as `Poly`
    powers, products and sums, and the verdict reads the exponents of its
    monic part in the factor table: no gcd and no division."""
    d = F_form.degree
    val = Poly.zero(F_form.field)
    for i, c in enumerate(F_form.coeffs):
        val = val + numer**i * denom ** (d - i) * Poly.constant(c)
    if val.is_zero():
        return False
    monic = val.monic()[1]
    skip = {P.key() for P in excluded}
    factors = factor_table(monic.field).factors(monic.degree, monic.vector_index() - monic.norm())
    return all(e == 1 for P, e in factors if P.key() not in skip)


BRUTE_FORCE_LIMIT = 10**8


def _residues(F: Field, degree: int):
    """All polynomials of degree < degree, canonical order."""
    for j in range(F.q**degree):
        yield Poly.from_vector_index(F, j)


def local_count_brute(F_form: BinaryForm, pi: Poly) -> int:
    """c_pi by its definition: the pairs (u, v) in (A/pi^2)^2 with
    F(u, v) = 0 mod pi^2, each evaluated, at most `BRUTE_FORCE_LIMIT` pairs."""
    F = F_form.field
    pi2 = pi * pi
    size = F.q ** (2 * pi.degree)
    if size * size > BRUTE_FORCE_LIMIT:
        raise ResourceLimit(f"brute-force local count at |pi|^4 = {size * size}")
    res = list(_residues(F, 2 * pi.degree))
    d = F_form.degree
    count = 0
    for u in res:
        upows = [Poly.one(F)]
        for _ in range(d):
            upows.append((upows[-1] * u) % pi2)
        for v in res:
            vpows = [Poly.one(F)]
            for _ in range(d):
                vpows.append((vpows[-1] * v) % pi2)
            acc = Poly.zero(F)
            for i, c in enumerate(F_form.coeffs):
                if c.is_zero():
                    continue
                acc = acc + upows[i] * vpows[d - i] * c
            if (acc % pi2).is_zero():
                count += 1
    return count


def squarefree_density_exact(q: int) -> Fraction:
    """The full product over primes of (1 - |pi|^{-2}), telescoped through the
    zeta function of F_q[t]: exactly 1 - 1/q."""
    from fractions import Fraction

    return Fraction(q - 1, q)


def exhaustive_squarefree_count(F: Field, degree: int) -> int:
    """Number of squarefree monic polynomials of the given degree, counted by
    marking every product h^2 * m (h monic non-constant) in a table: a direct
    realisation of the definition, independent of gcd machinery and of the
    factor table.  The indices of all h^2 * m come from `monic_multiples`.
    """
    total = F.q**degree
    what = f"counting the squarefree monics among the {F.q}^{degree} of degree {degree} over {F}"
    limits.require("SUPERELL_LIMIT_CENSUS", total, what)
    marked = bytearray(total)
    for k in range(1, degree // 2 + 1):
        for jh in range(F.q**k):
            h = Poly.from_index(F, k, jh)
            for j in monic_multiples(h * h, degree - 2 * k):
                marked[j] = 1
    return total - sum(marked)


def squarefree_frequency(F: Field, degree: int) -> Fraction:
    """Exhaustively counted fraction of squarefree monic polynomials of the
    given degree; equals 1 - 1/q exactly for degree >= 2."""
    from fractions import Fraction

    return Fraction(exhaustive_squarefree_count(F, degree), F.q**degree)


def expand(fac: Factorization) -> Poly:
    """The polynomial unit * prod P^e that a factorization stands for."""
    out = Poly.constant(fac.unit)
    for P, e in fac.factors:
        out = out * P**e
    return out


def monics(F: Field, d: int):
    """All monic polynomials of degree exactly d, canonical order."""
    what = f"enumerating the {F.q}^{d} monics of degree {d} over {F}"
    limits.require("SUPERELL_LIMIT_CENSUS", F.q**d, what)
    for j in range(F.q**d):
        yield Poly.from_index(F, d, j)
