"""Exact arithmetic in finite fields F_{p^e} and their extension towers.

Construction is deterministic: the modulus at every tower level is the
lexicographically smallest monic irreducible over the level below, where a
polynomial is keyed by the integer value of its coefficient vector read low
degree first (each coefficient by its canonical index in the base).  Two
constructions with equal inputs therefore produce bit-identical moduli, and
the descriptor (p, tower degrees, modulus vectors) is a stable cache key.

Extensions are always built over the field at hand, so subfield elements
embed as constant coefficient vectors and no embedding search is ever needed.

Elements are immutable; every public value may be shared freely.  Every
element stores its canonical index, so `index`, `is_zero`, `elem_at`,
`from_int` and `embed` are slot reads or list lookups.  A field of at most
`ELEM_TABLE_CAP` elements, prime or a tower level, builds each of its q
elements once, before it is cached or returned, and its arithmetic returns
these shared objects instead of new ones; above the cap, elements are built
per result, so memory stays bounded for every field the library accepts.  A
prime field computes on ints mod p; inversion is Fermat's a^(p-2).  A tower
level within the cap multiplies, inverts and takes powers through exp and
dlog tables, and adds, subtracts and negates by adding the spread codes of
indices without carries (Lidl & Niederreiter, *Finite Fields*, ch. 9); each
of its tables has O(q) entries.  Above the cap a tower level multiplies as a
`polyring.Poly` product over the base, reduced mod the modulus: this module
keeps no polynomial arithmetic of its own.

A tower level B[t]/(m) is the residue field A/P of A = B[t] at P = m, with
the same element indices, and a prime field is A/(t) over itself.  So the
dlog of every log table, and the canonical primitive root of a level within
the cap, come from the one generator search of `polyring.residue_dlog`,
which also serves the residue-symbol tables of `characters`.

Element indices, and indices of polynomials over the field, are vectors of
base-p digits, and multiplication by a fixed element or polynomial is
F_p-linear (affine for a monic product or remainder) on them.  Only this
module knows how such maps are coded: `AffineIndexMap` applies one by table
lookups (products f g, residues g mod P, the census's affine maps), and its
`walk` is the discrete-log walk of that search; `IndexSums` adds indices
through the same codes, for the linear factors of `families.FactorValues`.
"""

from __future__ import annotations

import functools
import itertools

from . import limits
from .errors import InputError, ResourceLimit

_PRIME_CACHE: dict[int, "Field"] = {}

# Largest field size q whose field keeps its q elements, shared by all its
# arithmetic, and, for a tower level, its exp, dlog and spread-code tables.
ELEM_TABLE_CAP = 1 << 12

# Largest trial divisor `factorize_int` tries.
TRIAL_DIVISION_LIMIT = 2**22


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test, for n <= FIELD_SIZE_LIMIT:
    no p or character order ell (a divisor of q - 1) is larger."""
    if n > (limit := limits.FIELD_SIZE_LIMIT):
        raise ResourceLimit(f"{n} exceeds FIELD_SIZE_LIMIT = {limit}: not tested for primality")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize_int(n: int) -> dict[int, int]:
    """Trial-division factorization of n; raises ResourceLimit past TRIAL_DIVISION_LIMIT."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISION_LIMIT:
            raise ResourceLimit(f"cannot factor {n} by trial division up to {TRIAL_DIVISION_LIMIT}")
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FieldElem:
    """An element of a Field: its coefficient vector over the base and its
    canonical index.

    For a prime field the vector holds the residue as a single int; for a
    tower level it holds FieldElems of the base field.  Elements are built
    only by their field, which sets the index once.
    """

    __slots__ = ("field", "coeffs", "idx")

    def __init__(self, field: "Field", coeffs: tuple, idx: int):
        self.field = field
        self.coeffs = coeffs
        self.idx = idx

    def __add__(self, other):
        return self.field.add(self, other)

    def __sub__(self, other):
        return self.field.sub(self, other)

    def __mul__(self, other):
        return self.field.mul(self, other)

    def __neg__(self):
        return self.field.neg(self)

    def __pow__(self, n: int):
        return self.field.pow(self, n)

    def inverse(self):
        return self.field.inverse(self)

    def is_zero(self) -> bool:
        return self.idx == 0

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field is other.field and self.idx == other.idx

    def __hash__(self):
        return hash((id(self.field), self.idx))

    def __repr__(self):
        return f"<{self.idx} in {self.field}>"


class _FreshElems:
    """Stands in for the element table of a field above the cap: indexing by
    a canonical index builds a new element."""

    __slots__ = ("field",)

    def __init__(self, field: "Field"):
        self.field = field

    def __getitem__(self, idx: int) -> FieldElem:
        F = self.field
        if F.base is None:
            return FieldElem(F, (idx,), idx)
        base, qb, cs, r = F.base, F.base.q, [], idx
        for _ in range(F.rel_degree):
            r, d = divmod(r, qb)
            cs.append(base.elems[d])
        return FieldElem(F, tuple(cs), idx)


class Field:
    """F_{p^e}, either a prime field or a single extension step over `base`.

    `elems[i]` is the element of canonical index i, 0 <= i < q: a shared
    element when q <= ELEM_TABLE_CAP, a new one above the cap.  A tower
    level within the cap also holds its log tables (`_dlog`, `_exp`) and the
    spread codes of its elements and of their negatives (`_spread`,
    `_nspread`, with `_neg` and the `_norm` tables of `spread_coding(p, e)`);
    `_dlog` is None for prime fields and for fields above the cap.  A tower
    level above the cap holds its modulus as a `polyring.Poly` (`_mpoly`),
    built once, for its products."""

    __slots__ = (
        "p", "base", "rel_degree", "e", "q", "modulus", "_cache", "elems",
        "_dlog", "_exp", "_spread", "_nspread", "_neg", "_norm", "_mpoly",
    )

    def __init__(self, p: int, base: "Field | None", rel_degree: int, modulus):
        self.p = p
        self.base = base
        self.rel_degree = rel_degree
        self.e = rel_degree if base is None else base.e * rel_degree
        self.q = p**self.e
        self.modulus = modulus  # coefficient tuple over base, length rel_degree+1, monic
        self._cache: dict = {}
        self._dlog = None
        if self.q > ELEM_TABLE_CAP:
            self.elems = _FreshElems(self)
            if base is not None:
                from .polyring import Poly  # polyring imports this module

                self._mpoly = Poly(base, modulus)
        elif base is None:
            self.elems = [FieldElem(self, (v,), v) for v in range(p)]
        else:
            # the last coefficient varies slowest, so tuples come in index order
            self.elems = [
                FieldElem(self, cs[::-1], i)
                for i, cs in enumerate(itertools.product(base.elems, repeat=rel_degree))
            ]
            self._build_tables()

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        coding = spread_coding(p, e)
        neg = AffineIndexMap(p, e, [(p - 1) * p**i for i in range(e)]).table()  # a -> -a
        spread = [coding.spread(i) for i in range(q)]
        g, dlog = _residue_dlog(self)
        self._cache["primitive_root"] = self.elems[g]
        exp = [0] * (q - 1)
        for i in range(1, q):
            exp[dlog[i]] = i
        self._exp = exp + exp  # a sum of two logs needs no reduction mod q - 1
        self._spread, self._nspread, self._neg = spread, [spread[i] for i in neg], neg
        self._norm = (coding.norm_lo, coding.norm_hi, coding.b_lo)
        self._dlog = dlog  # from here on the arithmetic reads the tables

    # -- construction ------------------------------------------------------

    def tower_degrees(self) -> list[int]:
        if self.base is None:
            return []
        return self.base.tower_degrees() + [self.rel_degree]

    def descriptor(self) -> dict:
        """JSON-serialisable identity: (p, tower degrees, modulus index vectors)."""
        moduli = []
        f: Field | None = self
        while f is not None and f.base is not None:
            moduli.append([c.idx for c in f.modulus])
            f = f.base
        moduli.reverse()
        return {"p": self.p, "tower": self.tower_degrees(), "moduli": moduli}

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    # -- element plumbing ---------------------------------------------------

    def zero(self) -> FieldElem:
        return self.elems[0]

    def one(self) -> FieldElem:
        return self.elems[1]

    def from_int(self, n: int) -> FieldElem:
        """The image of the integer n under Z -> F_p -> F: the element whose
        index is n mod p."""
        return self.elems[n % self.p]

    def from_coeffs(self, coeffs: tuple) -> FieldElem:
        """The element with this coefficient vector over the base (a tower
        level only)."""
        if len(coeffs) != self.rel_degree:
            raise InputError(f"{self} takes {self.rel_degree} coefficients, got {len(coeffs)}")
        qb, idx = self.base.q, 0
        for c in reversed(coeffs):
            idx = idx * qb + c.idx
        if self.q > ELEM_TABLE_CAP:
            return FieldElem(self, tuple(coeffs), idx)
        return self.elems[idx]

    def embed(self, a: FieldElem) -> FieldElem:
        """Embed an element of the base field as a constant vector."""
        if a.field is self:
            return a
        if self.base is None or a.field is not self.base:
            raise InputError("embed expects an element of the immediate base field")
        return self.elems[a.idx]

    def index(self, a: FieldElem) -> int:
        """Canonical integer of an element: coefficient vector read low-to-high, base p."""
        return a.idx

    def elem_at(self, idx: int) -> FieldElem:
        """Inverse of index(), taking idx mod q."""
        return self.elems[idx % self.q]

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: FieldElem, b: FieldElem) -> FieldElem:
        if self.base is None:
            return self.elems[(a.idx + b.idx) % self.p]
        if self._dlog is None:
            return self.from_coeffs(tuple(map(self.base.add, a.coeffs, b.coeffs)))
        spread = self._spread
        norm_lo, norm_hi, b_lo = self._norm
        s = spread[a.idx] + spread[b.idx]
        return self.elems[norm_lo[s % b_lo] + norm_hi[s // b_lo]]

    def sub(self, a: FieldElem, b: FieldElem) -> FieldElem:
        if self.base is None:
            return self.elems[(a.idx - b.idx) % self.p]
        if self._dlog is None:
            return self.from_coeffs(tuple(map(self.base.sub, a.coeffs, b.coeffs)))
        norm_lo, norm_hi, b_lo = self._norm
        s = self._spread[a.idx] + self._nspread[b.idx]
        return self.elems[norm_lo[s % b_lo] + norm_hi[s // b_lo]]

    def neg(self, a: FieldElem) -> FieldElem:
        if self.base is None:
            return self.elems[-a.idx % self.p]
        if self._dlog is None:
            return self.from_coeffs(tuple(map(self.base.neg, a.coeffs)))
        return self.elems[self._neg[a.idx]]

    def mul(self, a: FieldElem, b: FieldElem) -> FieldElem:
        if self.base is None:
            return self.elems[a.idx * b.idx % self.p]
        dlog = self._dlog
        if dlog is None:
            m = self._mpoly
            Poly, base = type(m), self.base  # polyring.Poly, which imports this module
            r = (Poly(base, a.coeffs) * Poly(base, b.coeffs) % m).coeffs
            return self.from_coeffs(r + (base.zero(),) * (self.rel_degree - len(r)))
        if a.idx and b.idx:
            return self.elems[self._exp[dlog[a.idx] + dlog[b.idx]]]
        return self.elems[0]

    def pow(self, a: FieldElem, n: int) -> FieldElem:
        if n < 0:
            return self.pow(self.inverse(a), -n)
        if self.base is None:
            return self.elems[pow(a.idx, n, self.p)]
        dlog = self._dlog
        if dlog is not None:
            if a.idx:
                return self.elems[self._exp[dlog[a.idx] * n % (self.q - 1)]]
            return self.elems[0 if n else 1]
        out = self.one()
        b = a
        while n:
            if n & 1:
                out = self.mul(out, b)
            b = self.mul(b, b)
            n >>= 1
        return out

    def inverse(self, a: FieldElem) -> FieldElem:
        if a.idx == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.base is None:
            return self.elems[pow(a.idx, self.p - 2, self.p)]
        if self._dlog is not None:
            return self.elems[self._exp[self.q - 1 - self._dlog[a.idx]]]
        return self.pow(a, self.q - 2)


def _canonical_modulus(F: Field, n: int) -> tuple:
    """Smallest monic irreducible of degree n over F in canonical vector order."""
    from .polyring import Poly, is_irreducible  # polyring imports this module

    for j in range(F.q**n):
        cand = Poly.from_index(F, n, j)
        if is_irreducible(cand):
            return cand.coeffs
    raise AssertionError("no irreducible of requested degree found")  # pragma: no cover


# -- public constructors -----------------------------------------------------


def make_field(p: int, e: int) -> Field:
    """The canonical field with p^e elements; deterministic across runs.
    `is_prime` bounds p, and `extend_field` the size p^e."""
    if e < 1:
        raise InputError(f"extension degree must be positive, got {e}")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    prime = _PRIME_CACHE.get(p)
    if prime is None:
        # modulus (t - 0): the conventional marker for a prime field
        prime = Field(p, None, 1, None)
        prime.modulus = (prime.zero(), prime.one())
        _PRIME_CACHE[p] = prime
    if e == 1:
        return prime
    return extend_field(prime, e)


def extend_field(F: Field, n: int) -> Field:
    """The canonical degree-n tower extension of F (identity for n = 1)."""
    if n < 1:
        raise InputError(f"extension degree must be positive, got {n}")
    if n == 1:
        return F
    # q^n >= 2^n: an exponent of the limit's bit length is refused unpowered
    if n >= (limit := limits.FIELD_SIZE_LIMIT).bit_length() or F.q**n > limit:
        raise ResourceLimit(f"field size {F.q}^{n} exceeds limit {limit}")
    key = ("ext", n)
    ext = F._cache.get(key)
    if ext is None:
        ext = Field(F.p, F, n, _canonical_modulus(F, n))
        F._cache[key] = ext
    return ext


def primitive_root(F: Field) -> FieldElem:
    """The canonically smallest generator of F^*.  A tower level within the
    cap keeps the one its tables were built from (`_residue_dlog`); any other
    field tests candidates by their exact order, g^((q-1)/r) != 1 for every
    prime r | q - 1, which needs no table and so works above
    SUPERELL_ZECH_LIMIT."""
    cached = F._cache.get("primitive_root")
    if cached is not None:
        return cached
    m = F.q - 1
    cofactors = [m // r for r in factorize_int(m)]
    one = F.one()
    for idx in range(1, F.q):
        g = F.elem_at(idx)
        if all(F.pow(g, c) != one for c in cofactors):
            F._cache["primitive_root"] = g
            return g
    raise AssertionError("multiplicative group of a finite field is cyclic")  # pragma: no cover


def power_classes(F: Field, ell: int) -> list:
    """k_c with c^((q - 1)/ell) = zeta^(k_c), by the index of c (None for
    c = 0), where zeta = g^((q - 1)/ell) for the primitive root g: the class
    of c modulo ell-th powers of constants.  c = g^m has k_c = m mod ell.
    When ell does not divide q - 1 every constant is an ell-th power and
    k_c = 0.  Built once per (F, ell)."""
    key = ("power_classes", ell)
    classes = F._cache.get(key)
    if classes is None:
        q = F.q
        classes = [None] + [0] * (q - 1)
        if (q - 1) % ell == 0:
            g, x = primitive_root(F), F.one()
            for m in range(q - 1):
                classes[x.idx] = m % ell
                x = F.mul(x, g)
        F._cache[key] = classes
    return classes


# -- discrete-log tables -------------------------------------------------------


def _residue_dlog(F: Field) -> tuple[int, list[int]]:
    """(index of the smallest generator of F^*, dlog list) from
    `polyring.residue_dlog`: F is the residue field of its modulus over its
    base, or, for a prime field, of t over F itself."""
    from .polyring import Poly, residue_dlog  # polyring imports this module

    g, steps = residue_dlog(Poly(F.base or F, F.modulus))
    return g, steps.tolist()


class LogTable:
    """Multiplicative logs plus Zech logarithms for a small field.

    dlog[index] = k with g^k the element of that index (dlog[0] = -1 for the
    zero element), zech[k] = dlog(1 + g^k) with -1 when 1 + g^k = 0.  All
    arithmetic on ints.  A tower level within ELEM_TABLE_CAP already holds
    dlog and its inverse; any other field takes dlog from `_residue_dlog`.
    """

    __slots__ = ("field", "dlog", "zech")

    def __init__(self, field: Field):
        q = field.q
        limits.require("SUPERELL_ZECH_LIMIT", q, f"log table for {field}")
        p, m = field.p, q - 1
        if field._dlog is not None:
            dlog, exp = field._dlog, field._exp
        else:
            dlog = _residue_dlog(field)[1]
            exp = [0] * m
            for i in range(1, q):
                exp[dlog[i]] = i
        zech = [0] * m
        for k in range(m):
            i = exp[k]
            d0 = i % p
            zech[k] = dlog[i - d0 + (d0 + 1) % p]
        self.field = field
        self.dlog = dlog
        self.zech = zech


def log_table(F: Field) -> LogTable:
    tab = F._cache.get("logtable")
    if tab is None:
        tab = LogTable(F)
        F._cache["logtable"] = tab
    return tab


# -- integer-coded affine maps on base-p digit vectors ------------------------


class SpreadCoding:
    """Indices with `dim` base-p digits (an element index, or the index of a
    polynomial over F_{p^e}, both read as vectors over F_p), split into a low
    half of dim // 2 digits and a high half, and their spread codes: the same
    digits in radix 2p - 1.  Two spread codes with digits below p add without
    carries; norm_lo[s] + norm_hi[s'] turns the low and high halves s, s' of
    such a sum back into a base-p index with every digit reduced mod p, and
    red_lo, red_hi into a spread code.  The tables are per (p, dim), with
    (2p - 1)^(dim - dim // 2) entries each; `spread_coding` shares them."""

    def __init__(self, p: int, dim: int):
        radix = 2 * p - 1
        n_lo = dim // 2
        norm, red = [0], [0]
        for i in range(dim - n_lo):
            w, v = p**i, radix**i
            norm = [x + (c % p) * w for c in range(radix) for x in norm]
            red = [x + (c % p) * v for c in range(radix) for x in red]
        self.p, self.radix, self.b_lo = p, radix, radix**n_lo
        self.norm_lo, self.norm_hi = norm, [x * p**n_lo for x in norm]
        self.red_lo, self.red_hi = red, [x * self.b_lo for x in red]

    def spread(self, r: int) -> int:
        """The spread code of the base-p index r."""
        code, w = 0, 1
        while r:
            r, a = divmod(r, self.p)
            code += a * w
            w *= self.radix
        return code


@functools.cache
def spread_coding(p: int, dim: int) -> SpreadCoding:
    """The shared SpreadCoding for dim base-p digits (built once per process)."""
    return SpreadCoding(p, dim)


class AffineIndexMap:
    """An affine map r -> A r + offset from n base-p digits to `dim` base-p
    digits, on indices, from the indices images[i] of the images of the unit
    vectors p^i, i < n = len(images), and the index of the offset.  An index
    r = a + h p^(n // 2) maps to lo[a] + hi[h], normalised: lo[a] is the
    spread code of the offset plus the image of a, hi[h] that of the image of
    h p^(n // 2).  So it applies with no field arithmetic, to one index (a
    call), a list (`images`), each row with the low half fixed (`rows`),
    every index (`table`), or the powers of 1 (`walk`)."""

    __slots__ = ("lo", "hi", "norm_lo", "norm_hi", "b_lo")

    def __init__(self, p: int, dim: int, images: list[int], offset: int = 0):
        coding = spread_coding(p, dim)
        b_lo, red_lo, red_hi = coding.b_lo, coding.red_lo, coding.red_hi
        images = [coding.spread(v) for v in images]
        split = len(images) // 2
        halves = []
        for part, start in ((images[:split], coding.spread(offset)), (images[split:], 0)):
            codes = [start]
            for img in part:
                mults = [0]  # spread codes of c * img, c = 0..p-1
                for _ in range(p - 1):
                    z = mults[-1] + img
                    mults.append(red_lo[z % b_lo] + red_hi[z // b_lo])
                codes = [red_lo[(z := a + b) % b_lo] + red_hi[z // b_lo] for b in mults for a in codes]
            halves.append(codes)
        self.lo, self.hi = halves
        self.norm_lo, self.norm_hi, self.b_lo = coding.norm_lo, coding.norm_hi, b_lo

    def __call__(self, r: int) -> int:
        lo = self.lo
        s = lo[r % len(lo)] + self.hi[r // len(lo)]
        return self.norm_lo[s % self.b_lo] + self.norm_hi[s // self.b_lo]

    def images(self, indices) -> list[int]:
        lo, hi, norm_lo, norm_hi, b_lo = self.lo, self.hi, self.norm_lo, self.norm_hi, self.b_lo
        n = len(lo)
        return [norm_lo[(s := lo[r % n] + hi[r // n]) % b_lo] + norm_hi[s // b_lo] for r in indices]

    def rows(self):
        """For each a < p^(n // 2) in turn, the images of a + h p^(n // 2) for
        every h."""
        hi, norm_lo, norm_hi, b_lo = self.hi, self.norm_lo, self.norm_hi, self.b_lo
        for x in self.lo:
            yield [norm_lo[(s := x + y) % b_lo] + norm_hi[s // b_lo] for y in hi]

    def table(self) -> list[int]:
        """The images of the indices 0, 1, ..., p^n - 1."""
        norm_lo, norm_hi, b_lo = self.norm_lo, self.norm_hi, self.b_lo
        return [norm_lo[(s := a + b) % b_lo] + norm_hi[s // b_lo] for b in self.hi for a in self.lo]

    def walk(self, steps, m: int) -> int:
        """Walk the orbit 1, g, g^2, ... of the index 1 under this map, read
        as "multiply by g", for at most m steps, setting steps[g^k] = k;
        return the order of g, or 0 when the walk does not come back to 1
        within m steps (g is then a zero divisor, or its order exceeds m)."""
        lo, hi, norm_lo, norm_hi, b_lo = self.lo, self.hi, self.norm_lo, self.norm_hi, self.b_lo
        n = len(lo)
        cur = 1
        for k in range(m):
            steps[cur] = k
            s = lo[cur % n] + hi[cur // n]
            cur = norm_lo[s % b_lo] + norm_hi[s // b_lo]
            if cur == 1:
                return k + 1
        return 0


class IndexSums:
    """Digit-wise sums mod p of indices of `dim` base-p digits, from their
    spread codes (`code`), normalised in chunks of digits as wide as tables
    of at most `limit` entries allow: two lookups when one chunk holds them
    all, digit by digit when not even one digit's tables fit."""

    __slots__ = ("p", "radix", "code", "chunks", "norm")

    def __init__(self, p: int, dim: int, limit: int):
        radix = 2 * p - 1
        width = 0  # a chunk of w digits has tables of radix^(w - w // 2) entries
        while width < dim and radix ** ((width + 2) // 2) <= limit:
            width += 1
        self.p, self.radix = p, radix
        self.code = spread_coding(p, width).spread  # the method reads no table
        self.chunks = []  # (radix^w, norm_lo, norm_hi, b_lo, p^start) per chunk of w digits
        for start in range(0, dim, width) if width else ():
            w = min(width, dim - start)
            coding = spread_coding(p, w)
            self.chunks.append((radix**w, coding.norm_lo, coding.norm_hi, coding.b_lo, p**start))
        self.norm = self.chunks[0][1:4] if len(self.chunks) == 1 else None

    def add(self, x: int, y: int) -> int:
        """The index of the sum of the indices coded x and y."""
        s = x + y
        if self.norm is not None:
            norm_lo, norm_hi, b_lo = self.norm
            return norm_lo[s % b_lo] + norm_hi[s // b_lo]
        key = 0
        for size, norm_lo, norm_hi, b_lo, place in self.chunks:
            s, c = divmod(s, size)
            key += (norm_lo[c % b_lo] + norm_hi[c // b_lo]) * place
        p, radix, place = self.p, self.radix, 1
        while s:  # left only when there are no chunks: one digit at a time
            s, c = divmod(s, radix)
            key += c % p * place
            place *= p
        return key
