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

The central point is u = q^{-1/2}; the decision is `cyclo.central_rows_are_zero`,
which `curves.has_central_eigenvalue` also runs on zeta numerators.

Every coefficient is an integer coordinate row (`cyclo`), from the power
sums through Newton's identities, the functional equation and the partial
sums of even characters to stripping, the root rescaling and the central
test; an `LPoly` is its rows only, and nothing on the way converts them.

The L-cache (`LCache`) is a text file bound to one field and ell by its
first line, a canonical JSON header.  Every later line is one block, the
characters of one `put`: the sha256 of the block's body, a space, and the
body, decimal integers only.  The census puts only the conductors whose
L-polynomials the Euler product computed, the first of each affine class,
and looks up only those; the other members of a class are counted through
it, warm or cold, and never looked up.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
import time
import weakref

from . import limits
from .characters import (
    DirichletChar,
    prime_symbol_histogram,
    project_counts,
    symbol_histogram,
)
from .cyclo import (
    central_rows_are_zero,
    exact_quotient,
    galois_row,
    newton_coefficients,
    row_from_counts,
    row_mul,
    zeta_row,
)
from .errors import InputError, InvariantViolation
from .ffield import power_classes
from .polyring import irreducible_count


class LPoly:
    """L(u, chi) = sum c_n u^n with c_n in Z[zeta_ell] and c_0 = 1, held as
    integer rows: rows[n] is the coordinates of c_n in the basis
    {1, zeta, ..., zeta^{ell-2}}.  The constructor checks, in O(ell), that
    c_0 = 1 and that the top row is not zero."""

    __slots__ = ("ell", "q", "rows")

    def __init__(self, ell: int, q: int, rows):
        rows = tuple(rows)
        if not rows or rows[0] != (1,) + (0,) * (ell - 2):
            raise InputError("an L-polynomial has constant coefficient 1")
        if not any(rows[-1]):
            raise InputError("an L-polynomial has a nonzero top coefficient")
        self.ell = ell
        self.q = q
        self.rows = rows

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    def __eq__(self, other):
        if not isinstance(other, LPoly):
            return NotImplemented
        return (self.ell, self.q, self.rows) == (other.ell, other.q, other.rows)

    def __repr__(self):
        return f"LPoly(q={self.q}, ell={self.ell}, coeffs={[list(r) for r in self.rows]})"

    def __mul__(self, other: "LPoly") -> "LPoly":
        if self.q != other.q or self.ell != other.ell:
            raise InputError("mixed L-polynomial products")
        out = [(0,) * (self.ell - 1)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.rows):
            for n, b in enumerate(other.rows, start=i):
                out[n] = _row_add(out[n], row_mul(a, b))
        return LPoly(self.ell, self.q, out)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "ell": self.ell,
            "coeffs": [{"ell": self.ell, "coords": [str(c) for c in row]} for row in self.rows],
        }


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
    hists: dict[int, dict] = {}  # k -> prime_symbol_histogram over the Q of degree k
    orbits: dict[tuple, LPoly] = {}  # first-exponent-1 exponents -> L
    out = []
    for chi in chars:
        _check_conductor(chi, chars[0])
        exponents = [e for _, e in chi.exponent_map]
        j = exponents[0]
        inv = pow(j, -1, ell)
        rep = tuple(e * inv % ell for e in exponents)
        L = orbits.get(rep)
        if L is None:
            L = orbits[rep] = LPoly(ell, q, _euler_coefficients(primes, rep, chi.even, ell, hists))
        if j != 1:
            L = LPoly(ell, q, [galois_row(row, j) for row in L.rows])
        out.append(L)
    return out


def _check_conductor(chi: DirichletChar, first: DirichletChar) -> None:
    """InputError unless chi has the field, ell and conductor prime codes
    (the degrees and indices of its `int_key`) of `first`."""
    a, b = chi.int_key(), first.int_key()
    same = chi.field is first.field and chi.ell == first.ell
    if not same or (a[0::3], a[1::3]) != (b[0::3], b[1::3]):
        raise InputError(f"{chi!r} is not on the conductor of {first!r}")


def _euler_coefficients(primes, exponents, even: bool, ell: int, hists: dict) -> list:
    """The rows of c_0..c_{D-1} of L(u, chi) for the character with the
    given exponents on the primes (D the conductor degree).  The completed
    L-function is Lambda = L of degree N = D - 1 for odd chi, and
    Lambda = L / (1 - u) of degree N = D - 2 for even chi, whose partial sums
    are Lambda_n = c_0 + ... + c_n.  Lambda_0..Lambda_M with M = ceil(N/2)
    come from the Euler product; when every overlap coefficient vanishes, M
    grows by one until `_complete` can pin the root number (at the latest at
    M = N, where the pair (0, N) is one)."""
    q = primes[0].field.q
    degrees = [P.degree for P in primes]
    N = sum(degrees) - (2 if even else 1)
    counts: dict[int, list[int]] = {}  # k -> value counts of chi(Q) over deg Q = k

    def power_sum(n: int) -> tuple:
        tally = [0] * ell
        for k in range(1, n + 1):
            if n % k:
                continue
            if k not in counts:
                if k not in hists:
                    _require_primes(primes[0].field, k, degrees)
                    hists[k] = prime_symbol_histogram(primes, ell, k)
                counts[k] = project_counts(hists[k], exponents, ell)[0]
            for v, c in enumerate(counts[k]):
                tally[v * (n // k) % ell] -= k * c
        return row_from_counts(tally)

    S: list[tuple] = []
    for M in range((N + 1) // 2, N + 1):
        S.extend(power_sum(n) for n in range(len(S) + 1, M + 1))
        lam = newton_coefficients(S, ell - 1)
        if even:
            lam = list(itertools.accumulate(lam, _row_add))
        full = _complete(lam, N, q)
        if full is not None:
            break
    if not even:
        return full
    zero = (0,) * (ell - 1)
    return [tuple(map(operator.sub, a, b)) for a, b in zip(full + [zero], [zero] + full)]


def _require_primes(F, k: int, degrees: list) -> None:
    """Refuse, through `limits.require`, reading the primes Q of degree k for
    a conductor whose primes have these degrees.  The q^k monics of that
    factor-table level list them.  For each conductor prime P of higher
    degree, (P/Q) is read from Q's own table, of q^k entries, at the residue
    of P, which a map of Q's with two tables of at most p^ceil(e deg P / 2)
    entries gives (`CharContext.symbol_vector`)."""
    q, p, e = F.q, F.p, F.e
    per_prime = sum(2 * p ** -(-e * d // 2) for d in degrees if d > k)
    needed = q**k + (irreducible_count(q, k) * (q**k + per_prime) if per_prime else 0)
    what = f"the Euler product over the primes of degree {k} over {F}"
    limits.require("SUPERELL_LIMIT_CENSUS", needed, what)


def _row_add(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def _complete(lam: list, N: int, q: int) -> "list | None":
    """The rows of Lambda_0..Lambda_N of a completed L-function of degree N
    from those of Lambda_0..Lambda_M, N/2 <= M <= N, by the functional
    equation Lambda_{N-n} = W conj(Lambda_n) / q^n, where W = Lambda_N.

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
        a, b = lam[n], tuple(c * q**n for c in lam[N - n])
        if not any(a):
            agree = not any(b)
        elif W is None:
            W = exact_quotient(b, galois_row(a, -1))
            agree = W is not None
        else:
            agree = row_mul(W, galois_row(a, -1)) == b
        if not agree:
            raise InvariantViolation(
                "functional-equation", f"overlap pair ({n}, {N - n}) breaks the functional equation"
            )
    if W is None:
        return None
    if row_mul(W, galois_row(W, -1)) != (q**N,) + (0,) * (len(W) - 1):
        raise InvariantViolation("functional-equation", f"|Lambda_{N}|^2 is not q^{N}")
    top = []
    for m in range(N - M - 1, -1, -1):
        c = exact_quotient(row_mul(W, galois_row(lam[m], -1)), q**m)
        if c is None:
            raise InvariantViolation(
                "functional-equation", f"Lambda_{N - m} is not in Z[zeta_{len(W) + 1}]"
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
    hists = [symbol_histogram(primes, ell, n) for n in range(chars[0].degree)]
    out = []
    for chi in chars:
        _check_conductor(chi, chars[0])
        exponents = [e for _, e in chi.exponent_map]
        rows = [row_from_counts(project_counts(h, exponents, ell)[0]) for h in hists]
        out.append(LPoly(ell, chi.field.q, rows))
    return out


def l_polynomial(chi: DirichletChar) -> LPoly:
    """L(u, chi) of one character; see `l_polynomials`."""
    (L,) = l_polynomials([chi])
    return L


def _divide_unit_root(rows: tuple, k: int) -> "tuple | None":
    """The rows of the exact quotient of the L-polynomial with the given rows
    by (1 - zeta^k u), or None if the division has a remainder.

    Synthetic division q_i = c_i + zeta^k q_{i-1} runs on counts of
    zeta^0..zeta^{ell-1}, on which zeta^k is a rotation; a count list is 0
    when all its counts are equal."""
    ell = len(rows[0]) + 1
    cut = ell - k % ell
    acc = [0] * ell
    out = []
    for row in rows:
        turned = acc[cut:] + acc[:cut]
        acc = [a + c for a, c in zip(turned, row)]
        acc.append(turned[-1])
        out.append(acc)
    if acc.count(acc[0]) != ell:
        return None
    return tuple(row_from_counts(counts) for counts in out[:-1])


def trivial_factor_candidates(L: LPoly) -> list[int]:
    """All k in Z/ell with (1 - zeta^k u) dividing L exactly."""
    return [k for k in range(L.ell) if _divide_unit_root(L.rows, k) is not None]


def strip_trivial_factor(L: LPoly, chi: DirichletChar) -> tuple[LPoly, "int | None"]:
    """Remove the unit-circle factor of an even character's L; odd L is returned
    unchanged with k = None.  The factor is (1 - zeta^k u) for the smallest k
    that divides; several never do, since the stripped polynomial has no
    unit-circle roots, and k = 0 for every untwisted even character.

    The degree law is checked here: the result has degree D - 2 for even chi
    and D - 1 for odd chi, D the conductor degree."""
    if chi.even:
        for k in range(L.ell):
            rows = _divide_unit_root(L.rows, k)
            if rows is not None:
                break
        else:
            raise InvariantViolation("even-trivial-zero", f"no mu_ell root factor in L of {chi!r}")
        stripped = LPoly(L.ell, L.q, rows)
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
    constant c (`ffield.power_classes`).  The curve's L-data is that of the
    untwisted character with u replaced by zeta^{k_c} u, because
    (c/P) = zeta^{k_c deg P}."""
    return power_classes(model.field, model.ell)[model.twist.idx]


def rescale_by_root(L: LPoly, k: int) -> LPoly:
    """L(zeta^k u): multiplies c_n by zeta^{kn}; rotates all roots by zeta^{-k}."""
    if k % L.ell == 0:
        return L
    return LPoly(L.ell, L.q, [zeta_row(row, k * n) for n, row in enumerate(L.rows)])


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
    return central_rows_are_zero(L.rows, L.q)


# -- append-only cache -----------------------------------------------------------

_FORMAT = "superell-lcache"
_VERSION = 3
# earlier formats, refused with a message to delete the file: version 1 held
# JSON lines, version 2 a block for every conductor of a census
_OLD_VERSIONS = (1, 2)


@functools.cache
def _sha256():
    """The interpreter's own sha256 constructor: `_sha2` from Python 3.12,
    `_sha256` before, and `hashlib`'s only when neither exists.  The digest
    is the same, but importing hashlib loads OpenSSL's libcrypto, about 6 ms
    in a fresh process.  Found on first use, so runs without a cache load
    none of them."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def _digest(body: bytes) -> bytes:
    return _sha256()(body).hexdigest().encode("ascii")


def _canon(obj) -> str:
    """Canonical JSON: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _header(field, ell: int) -> str:
    """The header line of an L-cache file for the field and ell."""
    return _canon({"ell": ell, "field": field.descriptor(), "format": _FORMAT, "version": _VERSION})


def _check_header(line: bytes, header: str, path) -> None:
    """InputError naming --cache unless the first line of an L-cache file is
    the given canonical header, or one that canonicalises to it; an earlier
    format version is named in the message.  Nothing is derived from the
    line beyond its version and that comparison."""
    where = f"the L-cache (--cache) {path!r}"
    if line.startswith(b'{"checksum":'):
        version = 1
    else:
        try:
            data = json.loads(line)
            version = data["version"] if data["format"] == _FORMAT else None
        except (ValueError, TypeError, KeyError, RecursionError):
            version = None
    if version in _OLD_VERSIONS:
        raise InputError(
            f"{where} is in the version-{version} format, which this version does not read; "
            "delete it, and a cold run rebuilds it"
        )
    if version != _VERSION or not line.endswith(b"\n"):
        raise InputError(f"{where} does not start with a version-{_VERSION} L-cache header")
    if _canon(data) != header:
        raise InputError(f"{where} is for another field or ell, not the census's {header}")


def _decode_block(line: bytes, ell: int, q: int, polys: dict) -> "zip":
    """The (key, LPoly) pairs of one block line; ValueError when the line is
    torn (no newline), its checksum does not match its body, or the body does
    not decode, or decodes to rows that `LPoly` refuses.

    The body is r and c, then one record per character: the 3r ints of its
    `DirichletChar.int_key` and the ell - 1 coordinates of each of its c
    coefficients (the characters of one conductor share r and c).  So the
    fields are read as strided slices; equal coefficient lists share one
    LPoly, kept in `polys` by their ints."""
    if not line.endswith(b"\n"):
        raise ValueError("torn block")
    digest, _, body = line[:-1].partition(b" ")
    if digest != _digest(body):
        raise ValueError("checksum")
    ints = list(map(int, body.split()))
    if len(ints) < 3:  # `put` writes no empty block
        raise ValueError("no record")
    r, c = ints[0], ints[1]
    w = ell - 1
    stride = 3 * r + c * w
    if r < 1 or c < 1 or (len(ints) - 2) % stride:  # so stride <= len(ints)
        raise ValueError("truncated record")
    fields = [ints[2 + j :: stride] for j in range(stride)]
    flats = list(zip(*fields[3 * r :]))
    for flat in set(flats).difference(polys):
        try:
            polys[flat] = LPoly(ell, q, zip(*[iter(flat)] * w))
        except InputError as exc:
            raise ValueError("not an L-polynomial") from exc
    return zip(zip(*fields[: 3 * r]), map(polys.__getitem__, flats))


def _replace(path, chunks) -> None:
    """Write the chunks to path through a temporary file, synced before it
    replaces path, so a crash leaves the old file or the new one.  A
    symbolic link is written through: its resolved target is replaced, by a
    temporary file beside the target, and the link stays a link."""
    path = os.path.realpath(path)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(chunks)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class LCache:
    """Append-only cache of L-polynomials keyed by `DirichletChar.int_key`,
    in a file bound to one field and ell.

    The first line is the header, canonical JSON
    {"ell":...,"field":<descriptor>,"format":"superell-lcache","version":3}.
    A missing or zero-byte file is an empty cache, and the first `put` writes
    the header (through a synced temporary file).  A header that does not
    parse, a version-1 or version-2 file, or a header for a field or ell
    other than those given here raises InputError naming --cache, and the
    file is left as it is.  Version 2 differs from version 3 in what the
    census stores, not in the encoding: it held a block for every
    conductor, and version 3 holds one for the first conductor of each
    affine class whose L-polynomials the census computed
    (`census._l_polys_cached`), so a file of 2,401 blocks at q = 7, n <= 4
    becomes one of 70.

    Every later line is one block, appended by one `put` in a single write:
    the sha256 of its body, a space, and the body (see `_decode_block`).  A
    block that is torn, fails its checksum or does not decode is bad: the
    load counts it in `bad_lines` and rewrites the file with the header and
    the verified blocks only, so only the bad blocks' characters are
    computed again.  A clean load keeps no line text and writes nothing.
    `blocks` counts the block lines read and `load_seconds` times the load.
    """

    def __init__(self, path, field, ell: int):
        t0 = time.monotonic()
        self.path = path
        self.field = field
        self.ell = ell
        self.header = _header(field, ell)
        self.hits = 0
        self.misses = 0
        self.blocks = 0
        self.table: dict[tuple, LPoly] = {}
        # one LPoly per coefficient list, by its ints: a cold census at
        # q = 16, n <= 4 writes 294 blocks of 1,402 characters with 214
        # distinct L-polynomials, and at q = 7, n <= 4 70 blocks of 316
        # characters with 181
        self._polys: dict[tuple, LPoly] = {}
        # the coordinate text of each coefficient list `put` has written, by
        # its rows, with its shared LPoly
        self._texts: dict[tuple, tuple] = {}
        self._header_on_disk = False
        self._out = None  # the file, open for appending from the first block `put` writes
        bad = set()
        try:
            with open(path, "rb") as fh:
                bad = self._load(fh)
        except FileNotFoundError:
            pass
        self.bad_lines = len(bad)
        if bad:
            with open(path, "rb") as fh:
                good = [line for n, line in enumerate(fh) if n and n not in bad]
            _replace(path, [self.header.encode() + b"\n", *good])
        self.load_seconds = time.monotonic() - t0

    def _load(self, fh) -> set:
        """Check the file's header, then read its blocks into `table`; the
        line numbers of the bad blocks."""
        bad = set()
        first = fh.readline()
        if not first:
            return bad
        _check_header(first, self.header, self.path)
        self._header_on_disk = True
        q = self.field.q
        for n, line in enumerate(fh, start=1):
            self.blocks += 1
            try:
                self.table.update(_decode_block(line, self.ell, q, self._polys))
            except ValueError:
                bad.add(n)
        return bad

    def _check(self, chi: DirichletChar) -> None:
        """InputError unless chi is over the cache's field and ell; the
        identity test spares the header comparison on every call."""
        if chi.field is self.field and chi.ell == self.ell:
            return
        if _header(chi.field, chi.ell) != self.header:
            raise InputError(f"{chi!r} is not over the L-cache's field and ell, {self.header}")

    def get(self, chi: DirichletChar) -> "LPoly | None":
        self._check(chi)
        L = self.table.get(chi.int_key())
        if L is None:
            self.misses += 1
        else:
            self.hits += 1
        return L

    def put(self, pairs) -> None:
        """Store the (chi, L) pairs not yet cached, appending their block in a
        single write.  The pairs share the block's number of primes and of
        coefficients, as the characters of one conductor do; a pair that does
        not raises InvariantViolation before anything is stored.  The text of
        each distinct coefficient list is encoded once per cache and reused."""
        pairs = list(pairs)
        if not pairs:
            return
        chi, L = pairs[0]
        shape = (len(chi.exponent_map), len(L.rows))  # r and c of the block
        records: dict[tuple, LPoly] = {}
        for chi, L in pairs:
            self._check(chi)
            if (len(chi.exponent_map), len(L.rows)) != shape:
                raise InvariantViolation(
                    "lcache-block", f"{chi!r} does not share the block of {pairs[0][0]!r}"
                )
            key = chi.int_key()
            if key not in self.table:
                records[key] = L
        if not records:
            return
        if not self._header_on_disk:
            _replace(self.path, [self.header.encode() + b"\n"])
            self._header_on_disk = True
        texts = [f"{shape[0]} {shape[1]}"]
        for key, L in records.items():
            got = self._texts.get(L.rows)
            if got is None:
                flat = tuple(itertools.chain.from_iterable(L.rows))
                text = " ".join(map(str, flat))
                got = self._texts[L.rows] = (text, self._polys.setdefault(flat, L))
            texts.append(" ".join(map(str, key)))
            texts.append(got[0])
            records[key] = got[1]
        body = " ".join(texts).encode("ascii")
        if self._out is None:
            # opened once, after the header is on disk, and closed with the cache
            self._out = open(self.path, "ab")
            weakref.finalize(self, self._out.close)
        self._out.write(_digest(body) + b" " + body + b"\n")
        self._out.flush()
        self.table.update(records)
