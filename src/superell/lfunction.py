"""Dirichlet L-functions as exact polynomials in u = q^{-s} with coefficients
in Z[zeta_ell], removal of the trivial unit-circle factor of even characters,
and the exact central-point vanishing decision.

For an even primitive character the Dirichlet sum carries one factor
(1 - zeta^k u) coming from the unramified place at infinity; the completed
L-function here is the quotient by that factor, which is the reading under
which the degree bookkeeping deg L* = deg f - 2 and the zeta-function
decomposition both hold.  The factor is unique because the quotient's inverse
roots all have absolute value sqrt(q), never 1.

L(u, chi) comes from its Euler product over the monic irreducibles of small
degree, with Newton's identities for the low coefficients and the functional
equation of the completed L-function for the rest, once per Galois orbit
{chi^j} (`l_polynomials`).  The sums of chi over all monics of each degree
(`monic_sum_l_polynomials`) are the definitional oracle.

The central point is u = q^{-1/2}; the decision is `cyclo.central_sum_is_zero`,
the same test `curves.has_central_eigenvalue` applies to zeta numerators.

An `LPoly` is its coefficients only.  The L-cache (`LCache`) keys each line
by the character's `DirichletChar.canonical_json` and writes that key again
as the value's "char", which the reader does not keep.
"""

from __future__ import annotations

import itertools
import json
import os

from . import limits
from .characters import (
    DirichletChar,
    _canon,
    char_context,
    prime_symbol_histogram,
    project_counts,
    symbol_histogram,
)
from .cyclo import (
    CycInt,
    central_sum_is_zero,
    conjugate,
    exact_quotient,
    galois,
    mul_zeta,
    newton_coefficients,
)
from .errors import InputError, InvariantViolation


class LPoly:
    """L(u, chi) = sum c_n u^n with CycInt coefficients; c_0 = 1."""

    __slots__ = ("ell", "q", "coeffs")

    def __init__(self, ell: int, q: int, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        if not coeffs or coeffs[0] != CycInt.from_int(ell, 1):
            raise InputError("an L-polynomial has constant coefficient 1")
        self.ell = ell
        self.q = q
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, LPoly):
            return NotImplemented
        return (self.ell, self.q, self.coeffs) == (other.ell, other.q, other.coeffs)

    def __repr__(self):
        return f"LPoly(q={self.q}, ell={self.ell}, coeffs={[list(c.coords) for c in self.coeffs]})"

    def __mul__(self, other: "LPoly") -> "LPoly":
        if self.q != other.q or self.ell != other.ell:
            raise InputError("mixed L-polynomial products")
        zero = CycInt.from_int(self.ell, 0)
        out = [zero] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return LPoly(self.ell, self.q, out)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "ell": self.ell,
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LPoly":
        return cls(
            int(data["ell"]),
            int(data["q"]),
            [CycInt.from_json(c) for c in data["coeffs"]],
        )


def l_polynomials(chars) -> list[LPoly]:
    """L(u, chi) for characters on one conductor, from the Euler product
    L(u, chi) = prod_Q (1 - chi(Q) u^{deg Q})^{-1} over the monic irreducibles
    Q of small degree.

    The values chi(Q) over the Q of degree k are read from one joint symbol
    histogram per degree (`characters.prime_symbol_histogram`), shared by
    every character on the conductor.  They give the power sums of the
    inverse roots, S_n = -sum_{k | n} k sum_{deg Q = k} chi(Q)^{n/k}, and
    Newton's identities give c_0..c_M.  The coefficients above M come from
    the functional equation (`_complete`), so only primes of degree up to
    about half the conductor degree enter.  Since chi^j(g) = sigma_j(chi(g)),
    L(u, chi^j) = sigma_j L(u, chi) coefficient by coefficient, and each
    Galois orbit {chi^j} is assembled once, from its member whose first
    exponent is 1.  `monic_sum_l_polynomials` is the definitional oracle.
    """
    ell, q = chars[0].ell, chars[0].field.q
    primes = [P for P, _ in chars[0].exponent_map]
    keys = [P.key() for P in primes]
    # the limit bounds the problem, whichever route solves it: the character
    # sums of c_0..c_{D-1} run over up to q^(D-1) monics
    what = f"the L-polynomial of a degree-{chars[0].degree} conductor over F_{q}"
    limits.require("SUPERELL_LIMIT_CENSUS", q ** (chars[0].degree - 1), what)
    hists: dict[int, dict] = {}  # k -> prime_symbol_histogram over the Q of degree k
    orbits: dict[tuple, list] = {}  # first-exponent-1 exponents -> coefficients
    out = []
    for chi in chars:
        _check_conductor(chi, ell, keys, chars[0])
        exponents = [e for _, e in chi.exponent_map]
        j = exponents[0]
        inv = pow(j, -1, ell)
        rep = tuple(e * inv % ell for e in exponents)
        coeffs = orbits.get(rep)
        if coeffs is None:
            coeffs = orbits[rep] = _euler_coefficients(primes, rep, chi.even, ell, hists)
        if j != 1:
            coeffs = [galois(c, j) for c in coeffs]
        out.append(LPoly(ell, q, coeffs))
    return out


def _check_conductor(chi: DirichletChar, ell: int, keys: list, first: DirichletChar) -> None:
    if chi.ell != ell or [P.key() for P, _ in chi.exponent_map] != keys:
        raise InputError(f"{chi!r} is not on the conductor of {first!r}")


def _euler_coefficients(primes, exponents, even: bool, ell: int, hists: dict) -> list[CycInt]:
    """c_0..c_{D-1} of L(u, chi) for the character with the given exponents
    on the primes (D the conductor degree).  The completed L-function is
    Lambda = L of degree N = D - 1 for odd chi, and Lambda = L / (1 - u) of
    degree N = D - 2 for even chi, whose partial sums are Lambda_n =
    c_0 + ... + c_n.  Lambda_0..Lambda_M with M = ceil(N/2) come from the
    Euler product; when every overlap coefficient vanishes, M grows by one
    until `_complete` can pin the root number (at the latest at M = N, where
    the pair (0, N) is one)."""
    q = primes[0].field.q
    N = sum(P.degree for P in primes) - (2 if even else 1)
    one = CycInt.from_int(ell, 1)
    counts: dict[int, list[int]] = {}  # k -> value counts of chi(Q) over deg Q = k

    def power_sum(n: int) -> CycInt:
        tally = [0] * ell
        for k in range(1, n + 1):
            if n % k:
                continue
            if k not in counts:
                if k not in hists:
                    hists[k] = prime_symbol_histogram(primes, ell, k)
                counts[k] = project_counts(hists[k], exponents, ell)[0]
            for v, c in enumerate(counts[k]):
                tally[v * (n // k) % ell] -= k * c
        return CycInt.from_counts(ell, tally)

    S: list[CycInt] = []
    for M in range((N + 1) // 2, N + 1):
        S.extend(power_sum(n) for n in range(len(S) + 1, M + 1))
        lam = newton_coefficients(S, one)
        if even:
            lam = list(itertools.accumulate(lam))
        full = _complete(lam, N, q)
        if full is not None:
            break
    if not even:
        return full
    zero = CycInt.from_int(ell, 0)
    return [a - b for a, b in zip(full + [zero], [zero] + full)]  # (1 - u) Lambda


def _complete(lam: list, N: int, q: int) -> "list | None":
    """Lambda_0..Lambda_N of a completed L-function of degree N from
    Lambda_0..Lambda_M, N/2 <= M <= N, by the functional equation
    Lambda_{N-n} = W conj(Lambda_n) / q^n, where W = Lambda_N.

    W = q^n Lambda_{N-n} / conj(Lambda_n) is pinned by the first overlap pair
    n in [N-M, M] with Lambda_n != 0, and every overlap pair must agree with
    it (a pair with Lambda_n = 0 needs Lambda_{N-n} = 0); then
    W conj(W) = q^N must hold, and the Lambda_{N-m} with m < N - M follow.
    None when every overlap Lambda_n is 0.  A quotient that is not exact in
    Z[zeta_ell], or any disagreement, raises InvariantViolation.
    """
    M = len(lam) - 1
    W = None
    for n in range(N - M, M + 1):
        a, b = lam[n], lam[N - n] * q**n
        if a.is_zero():
            agree = b.is_zero()
        elif W is None:
            W = exact_quotient(b, conjugate(a))
            agree = W is not None
        else:
            agree = W * conjugate(a) == b
        if not agree:
            raise InvariantViolation(
                "functional-equation", f"overlap pair ({n}, {N - n}) breaks the functional equation"
            )
    if W is None:
        return None
    if W * conjugate(W) != q**N:
        raise InvariantViolation("functional-equation", f"|Lambda_{N}|^2 is not q^{N}")
    top = []
    for m in range(N - M - 1, -1, -1):
        c = exact_quotient(W * conjugate(lam[m]), q**m)
        if c is None:
            raise InvariantViolation(
                "functional-equation", f"Lambda_{N - m} is not in Z[zeta_{W.ell}]"
            )
        top.append(c)
    return lam + top


def monic_sum_l_polynomials(chars) -> list[LPoly]:
    """L(u, chi) for characters on one conductor by the definition:
    c_n = sum of chi(g) over the monic g of degree n, for n below the
    conductor degree.  Every character reads them from the same symbol
    histograms (`characters.symbol_histogram`), one per degree.  This is the
    oracle of `l_polynomials` in the tests and in the census spot check."""
    primes = [P for P, _ in chars[0].exponent_map]
    ell = chars[0].ell
    keys = [P.key() for P in primes]
    hists = [symbol_histogram(primes, ell, n) for n in range(chars[0].degree)]
    out = []
    for chi in chars:
        _check_conductor(chi, ell, keys, chars[0])
        exponents = [e for _, e in chi.exponent_map]
        coeffs = [CycInt.from_counts(ell, project_counts(h, exponents, ell)[0]) for h in hists]
        out.append(LPoly(ell, chi.field.q, coeffs))
    return out


def l_polynomial(chi: DirichletChar) -> LPoly:
    """L(u, chi) of one character; see `l_polynomials`."""
    (L,) = l_polynomials([chi])
    return L


def _divide_unit_root(L: LPoly, k: int) -> "LPoly | None":
    """Exact quotient L / (1 - zeta^k u), or None if the division has remainder."""
    # synthetic division: q_i = c_i + zeta^k * q_{i-1}
    out = []
    acc = CycInt.from_int(L.ell, 0)
    for c in L.coeffs:
        acc = c + mul_zeta(acc, k)
        out.append(acc)
    if not out[-1].is_zero():
        return None
    return LPoly(L.ell, L.q, out[:-1])


def trivial_factor_candidates(L: LPoly) -> list[int]:
    """All k in Z/ell with (1 - zeta^k u) dividing L exactly."""
    return [k for k in range(L.ell) if _divide_unit_root(L, k) is not None]


def strip_trivial_factor(L: LPoly, chi: DirichletChar) -> tuple[LPoly, "int | None"]:
    """Remove the unit-circle factor of an even character's L; odd L is returned
    unchanged with k = None.  The factor is (1 - zeta^k u) for the smallest k
    that divides; several never do, since the stripped polynomial has no
    unit-circle roots, and k = 0 for every untwisted even character.

    The degree law is checked here: the result has degree D - 2 for even chi
    and D - 1 for odd chi, D the conductor degree."""
    if chi.even:
        for k in range(L.ell):
            stripped = _divide_unit_root(L, k)
            if stripped is not None:
                break
        else:
            raise InvariantViolation("even-trivial-zero", f"no mu_ell root factor in L of {chi!r}")
        expected = chi.degree - 2
    else:
        stripped, k = L, None
        expected = chi.degree - 1
    if stripped.degree != expected:
        raise InvariantViolation(
            "degree-law", f"stripped degree {stripped.degree} != {expected} for {chi!r}"
        )
    return stripped, k


def twist_exponent(model) -> int:
    """The exponent k_c with c^((q-1)/ell) = zeta^{k_c} for the model's twist
    constant c.  The curve's L-data is that of the untwisted character with u
    replaced by zeta^{k_c} u, because (c/P) = zeta^{k_c deg P}."""
    F = model.field
    ctx = char_context(F, model.ell)
    val = F.pow(model.twist, (F.q - 1) // model.ell)
    k = ctx.zeta_pow_index.get(F.index(val))
    if k is None:  # pragma: no cover - twist is a unit
        raise InvariantViolation("twist-class", "twist constant outside the unit group")
    return k


def rescale_by_root(L: LPoly, k: int) -> LPoly:
    """L(zeta^k u): multiplies c_n by zeta^{kn}; rotates all roots by zeta^{-k}."""
    if k % L.ell == 0:
        return L
    return LPoly(L.ell, L.q, [mul_zeta(c, k * n) for n, c in enumerate(L.coeffs)])


def central_value_is_zero(L: LPoly) -> bool:
    """Exact decision whether L(q^{-1/2}) = 0.

    Clearing denominators by q^{deg/2}, the value is sum c_n (sqrt q)^{deg-n}.
    An L-polynomial may come from a cache file, so p != ell, which the split
    along 1 and sqrt(q) needs, is checked here rather than assumed.
    """
    if L.q % L.ell == 0:
        raise InputError(
            f"q = {L.q} is divisible by ell = {L.ell}; sqrt(q) is not independent of Q(zeta_ell)"
        )
    return central_sum_is_zero(L.coeffs, L.q)


# -- append-only cache -----------------------------------------------------------


def _digest(payload: str) -> str:
    import hashlib  # imported here so runs without a cache do not pay for it

    return hashlib.sha256(payload.encode()).hexdigest()


# every cache line is this field, the sha256 of the canonical payload
# {"key":...,"value":...} and '",', then that payload without its "{"; keys
# sort as checksum < key < value, so the line is itself canonical.  A value's
# "char" is the key again, the character's canonical JSON.
_CHECKSUM_FIELD = '{"checksum":"'


def _read_cache(path) -> tuple[dict, list[str], int]:
    """(key -> LPoly table, verified lines, number of bad lines) of a cache
    file; a missing file is an empty cache.  A line is bad when its checksum
    does not match the payload it carries (a torn append, or a line not in
    the canonical form `LCache.put` writes) or the payload, its value
    included, does not decode."""
    table: dict[str, LPoly] = {}
    good: list[str] = []
    bad = 0
    try:
        # put writes ASCII only: bytes that do not decode make their line bad
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return table, good, bad
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            head, _, payload = line.partition('",')
            payload = "{" + payload
            ok = head == _CHECKSUM_FIELD + _digest(payload)
            if ok:
                try:
                    rec = json.loads(payload)
                    key, value = rec["key"], LPoly.from_json(rec["value"])
                except (ValueError, KeyError, TypeError, InputError):
                    ok = False
            if not ok:
                bad += 1
                continue
            table[key] = value
            good.append(line)
    return table, good, bad


class LCache:
    """Append-only JSON-lines cache of L-polynomials keyed by
    `DirichletChar.canonical_json`.

    Every line carries a sha256 checksum of its canonical payload.  A line
    whose checksum does not match, or whose payload or value does not decode
    (a torn append), is bad: the load counts it in `bad_lines` and rewrites
    the file with only its verified lines, so only the bad lines' characters
    are computed again.  Each value is decoded to its LPoly once, at load,
    and `get` returns that polynomial.
    """

    def __init__(self, path):
        self.path = path
        self.hits = 0
        self.misses = 0
        self.table, good, self.bad_lines = _read_cache(path)
        if self.bad_lines:
            # written in full and synced before it replaces the old file, so a
            # crash during the rewrite loses nothing
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in good)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)

    def get(self, chi: DirichletChar) -> "LPoly | None":
        L = self.table.get(chi.canonical_json())
        if L is None:
            self.misses += 1
        else:
            self.hits += 1
        return L

    def put(self, pairs) -> None:
        """Store the (chi, L) pairs not yet cached, typically those of one
        conductor, appending their lines to the file in a single write.  The
        value's "char" is the key itself, so the payload is assembled around
        the key, not encoded a second time."""
        lines = []
        for chi, L in pairs:
            key = chi.canonical_json()
            if key in self.table:
                continue
            self.table[key] = L
            payload = (
                f'{{"key":{json.dumps(key)},"value":{{"char":{key},'
                f'"coeffs":{_canon([c.to_json() for c in L.coeffs])},"ell":{L.ell},"q":{L.q}}}}}'
            )
            lines.append(f'{_CHECKSUM_FIELD}{_digest(payload)}",{payload[1:]}\n')
        if lines:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("".join(lines))
