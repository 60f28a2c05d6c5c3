"""Superelliptic models y^ell = c * prod D_i^i, exact point counting over
extension fields, zeta numerators via Newton's identities, base change by
power-sum transport, Newton-polygon supersingularity, and the central
eigenvalue test.

Point counting is naive and exact: one pass over P^1(F_{q^n}) with the Kummer
fiber rule.  At a point where the defining polynomial has valuation coprime
to ell the fiber is the single ramification point; elsewhere the fiber size
is the number of ell-th roots of the unit part, which is ell or 0 when
ell | q^n - 1 and exactly 1 otherwise.  Every count goes through the shared
discrete-log tables of F_{q^n} (pure integer arithmetic in the hot loop), so
q^n is bounded by SUPERELL_ZECH_LIMIT.
"""

from __future__ import annotations

from . import limits
from .cyclo import central_rows_are_zero, newton_coefficients
from .errors import InputError, InvariantViolation
from .ffield import Field, FieldElem, extend_field, factorize_int, is_prime, log_table
from .polyring import Poly, elem_from_json, elem_to_json, is_squarefree, poly_from_json, poly_to_json


class SuperellipticModel:
    """Data (ell; twist c; D_1, ..., D_{ell-1}) defining y^ell = c * prod D_i^i."""

    __slots__ = ("ell", "field", "twist", "components")

    def __init__(self, ell: int, field: Field, twist: FieldElem, components):
        if not is_prime(ell):
            raise InputError(f"ell must be prime, got {ell}")
        if field.p == ell:
            raise InputError("ell must be coprime to the field characteristic")
        if twist.field is not field or twist.is_zero():
            raise InputError("twist must be a nonzero element of the base field")
        components = tuple(components)
        if len(components) != ell - 1:
            raise InputError(f"need {ell - 1} components, got {len(components)}")
        prod = Poly.one(field)
        for D in components:
            if D.field is not field or not D.is_monic():
                raise InputError("components must be monic polynomials over the base field")
            prod = prod * D
        if prod.degree < 1:
            raise InputError("at least one component must be non-constant")
        if not is_squarefree(prod):
            raise InputError("components must be squarefree and pairwise coprime")
        self.ell = ell
        self.field = field
        self.twist = twist
        self.components = components

    @property
    def d(self) -> int:
        """Total degree of the squarefree part, d = sum deg D_i."""
        return sum(D.degree for D in self.components)

    @property
    def weighted_degree(self) -> int:
        """deg of c * prod D_i^i, the order of pole at infinity."""
        return sum(i * D.degree for i, D in enumerate(self.components, start=1))

    @property
    def normalized(self) -> bool:
        """True iff the cover is unramified at infinity (sum i*d_i = 0 mod ell)."""
        return self.weighted_degree % self.ell == 0

    def radical(self) -> Poly:
        out = Poly.one(self.field)
        for D in self.components:
            out = out * D
        return out

    def key(self) -> tuple:
        return (
            self.ell,
            self.field.index(self.twist),
            tuple(D.key() for D in self.components),
        )

    def __eq__(self, other):
        if not isinstance(other, SuperellipticModel):
            return NotImplemented
        return self.field is other.field and self.key() == other.key()

    def __hash__(self):
        return hash((id(self.field),) + (self.key(),))

    def __repr__(self):
        comps = ", ".join(repr(D) for D in self.components)
        return f"Model(ell={self.ell}, twist={self.field.index(self.twist)}, [{comps}])"

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "field": self.field.descriptor(),
            "twist": elem_to_json(self.twist),
            "components": [poly_to_json(D) for D in self.components],
        }

    @classmethod
    def from_json(cls, field: Field, data: dict) -> "SuperellipticModel":
        return cls(
            int(data["ell"]),
            field,
            elem_from_json(field, data["twist"]),
            [poly_from_json(field, c) for c in data["components"]],
        )


def genus(M: SuperellipticModel) -> int:
    """Riemann-Hurwitz over P^1: every branch point is totally ramified and
    contributes ell - 1; infinity branches exactly when the model is not
    normalized.  2g - 2 = -2*ell + (d + [infinity ramified]) * (ell - 1)."""
    branch = M.d + (0 if M.normalized else 1)
    two_g = 2 - 2 * M.ell + branch * (M.ell - 1)
    if two_g % 2 != 0 or two_g < 0:
        raise InvariantViolation("genus-integrality", f"2g = {two_g} for {M!r}")
    return two_g // 2


# -- point counting -----------------------------------------------------------------


def _count_log_tables(M: SuperellipticModel, E: Field) -> int:
    tab = log_table(E)
    order = E.q - 1
    ell = M.ell
    ell_divides = order % ell == 0
    dlog = tab.dlog
    zech = tab.zech
    F = M.field

    comps = []
    for i, D in enumerate(M.components, start=1):
        if D.degree < 1:
            continue
        comps.append((i, [dlog[F.index(c)] for c in D.coeffs]))
    tw_log = dlog[F.index(M.twist)]

    def fiber(tot: int) -> int:
        if ell_divides:
            return ell if tot % ell == 0 else 0
        return 1

    total = 0
    # x = 0
    tot = tw_log
    ramified = False
    for i, clogs in comps:
        c0 = clogs[0]
        if c0 < 0:
            ramified = True
            break
        tot += i * c0
    total += 1 if ramified else fiber(tot)
    # x = gamma^k
    for k in range(order):
        tot = tw_log
        ramified = False
        for i, clogs in comps:
            v = clogs[-1]  # log of the leading coefficient (0 for monic)
            for c in reversed(clogs[:-1]):
                if v < 0:
                    v = c
                    continue
                v += k
                if v >= order:
                    v -= order
                if c >= 0:
                    d = c - v
                    if d < 0:
                        d += order
                    z = zech[d]
                    v = -1 if z < 0 else (v + z if v + z < order else v + z - order)
            if v < 0:
                ramified = True
                break
            tot += i * v
        total += 1 if ramified else fiber(tot)
    # infinity
    if M.weighted_degree % ell == 0:
        total += fiber(tw_log)
    else:
        total += 1
    return total


def count_points(M: SuperellipticModel, n: int) -> int:
    """Degree-one places of the smooth model over F_{q^n}."""
    if n < 1:
        raise InputError("extension degree must be positive")
    q = M.field.q
    limits.require("SUPERELL_ZECH_LIMIT", q**n, f"a point count over F_{q}^{n}")
    return _count_log_tables(M, extend_field(M.field, n))


# -- zeta numerators ----------------------------------------------------------------


class ZetaNum:
    """P(T) = prod (1 - pi_i T) in Z[T], a_0 = 1, deg = 2g, with the functional
    equation a_{2g-i} = q^{g-i} a_i enforced at construction."""

    __slots__ = ("q", "coeffs", "g")

    def __init__(self, q: int, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs or coeffs[0] != 1:
            raise InputError("zeta numerator must have constant term 1")
        if len(coeffs) % 2 == 0:
            raise InputError("zeta numerator must have even degree")
        g = (len(coeffs) - 1) // 2
        for i in range(g + 1):
            if coeffs[2 * g - i] != q ** (g - i) * coeffs[i]:
                raise InvariantViolation(
                    "functional-equation",
                    f"a_{2 * g - i} != q^{g - i} a_{i} in {list(coeffs)} over q={q}",
                )
        self.q = q
        self.coeffs = coeffs
        self.g = g

    def __eq__(self, other):
        if not isinstance(other, ZetaNum):
            return NotImplemented
        return self.q == other.q and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, self.coeffs))

    def __repr__(self):
        return f"ZetaNum(q={self.q}, {list(self.coeffs)})"

    def to_json(self) -> dict:
        return {"q": self.q, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "ZetaNum":
        return cls(int(data["q"]), [int(c) for c in data["coeffs"]])


def power_sums(P: ZetaNum, n_max: int) -> list[int]:
    """S_n = sum pi_i^n for n = 1..n_max, by the Newton recurrences."""
    a = P.coeffs
    deg = len(a) - 1
    S = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        acc = 0
        for j in range(1, min(k, deg) + 1):
            acc += a[j] * S[k - j]
        if k <= deg:
            acc += k * a[k]
        S[k] = -acc
    return S[1:]


def zeta_numerator(M: SuperellipticModel) -> ZetaNum:
    """P(T) from exact counts N_1..N_g: Newton's identities give a_1..a_g, the
    functional equation fills the top half."""
    g = genus(M)
    q = M.field.q
    if g == 0:
        return ZetaNum(q, (1,))
    counts = [count_points(M, n) for n in range(1, g + 1)]
    for n, N in enumerate(counts, start=1):
        if (N - q**n - 1) ** 2 > 4 * g * g * q**n:
            raise InvariantViolation("weil-bound", f"N_{n} = {N} violates Weil bounds for {M!r}")
    # power sums as rows of width 1: Z = Z[zeta_2]
    S = [(q**n + 1 - N,) for n, N in enumerate(counts, start=1)]
    coeffs = [c for (c,) in newton_coefficients(S, 1)] + [0] * g
    for i in range(g):
        coeffs[2 * g - i] = q ** (g - i) * coeffs[i]
    return ZetaNum(q, coeffs)


def base_change(P: ZetaNum, m: int) -> ZetaNum:
    """prod (1 - pi_i^m T) by the power-sum transport S'_n = S_{nm}; no root
    extraction, exact integers throughout."""
    if m < 1:
        raise InputError("base change degree must be positive")
    if m == 1:
        return P
    deg = len(P.coeffs) - 1
    S = power_sums(P, deg * m)
    Sp = [(S[n * m - 1],) for n in range(1, deg + 1)]
    return ZetaNum(P.q**m, [c for (c,) in newton_coefficients(Sp, 1)])


def is_supersingular_np(P: ZetaNum, p: int, e: int) -> bool:
    """Newton polygon is the pure slope-1/2 segment: v_p(a_i) >= i*e/2 for all i."""
    if p**e != P.q:
        raise InputError(f"q = {P.q} is not {p}^{e}")
    for i, a in enumerate(P.coeffs):
        if a == 0:
            continue
        v = 0
        while a % p == 0:
            a //= p
            v += 1
        if 2 * v < i * e:
            return False
    return True


def has_central_eigenvalue(P: ZetaNum) -> bool:
    """Exact test that (1 - sqrt(q) T) divides P, i.e. Z(C, q^{-1/2}) = 0."""
    return central_rows_are_zero([(c,) for c in P.coeffs], P.q)


def default_extension_bound(g: int) -> int:
    """2 * lcm of all m with phi(m) <= 2g: covers every possible root-of-unity
    order of a normalized Frobenius eigenvalue ratio at genus g."""
    import math

    def phi(m: int) -> int:
        out = m
        for r in factorize_int(m):
            out -= out // r
        return out

    L = 1
    m = 1
    while True:
        if phi(m) <= 2 * g:
            L = L * m // math.gcd(L, m)
        if m > 8 * g * g + 2:  # phi(m) >= sqrt(m/2), so phi(m) > 2g beyond this
            break
        m += 1
    return 2 * L


def find_central_extension(P: ZetaNum, d_max: "int | None" = None) -> "int | None":
    """Least m <= d_max such that the base change by m acquires +sqrt(q^m) as a
    reciprocal root; None if no such m exists within the bound."""
    if d_max is None:
        d_max = default_extension_bound((len(P.coeffs) - 1) // 2)
    for m in range(1, d_max + 1):
        if has_central_eigenvalue(base_change(P, m)):
            return m
    return None


def numerator_divides(P0: ZetaNum, P: ZetaNum) -> bool:
    """Exact polynomial divisibility over Q (same q required).  P0 has
    constant term 1, so it is primitive and, by Gauss's lemma, divides P over
    Q exactly when it does over Z: the quotient's coefficients come from the
    constant term up, in integers, and P0 divides P when what is left above
    them is zero."""
    if P0.q != P.q:
        raise InputError("numerator divisibility needs matching base fields")
    div, rem = P0.coeffs, list(P.coeffs)
    n = len(rem) - len(div) + 1  # terms of the quotient
    if n <= 0:
        return False
    for k in range(n):
        c = rem[k]  # the quotient's T^k coefficient, as div[0] = 1
        if c:
            for i in range(1, len(div)):
                rem[k + i] -= c * div[i]
    return not any(rem[n:])
