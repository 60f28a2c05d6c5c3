import hashlib
import importlib.util
import itertools
import random
import sys

import pytest

from superell import (
    CycInt,
    DirichletChar,
    InputError,
    InvariantViolation,
    ResourceLimit,
    central_value_is_zero,
    l_polynomial,
    mu_embed,
    strip_trivial_factor,
)
from superell.characters import char_context
from superell.cyclo import conjugate
from superell.ffield import make_field
from superell.lfunction import (
    LCache,
    LPoly,
    _canon,
    _complete,
    _digest,
    _sha256,
    l_polynomials,
    monic_sum_l_polynomials,
    rescale_by_root,
    trivial_factor_candidates,
)
from superell.oracle import char_sum, char_value, conductor_groups, monics
from superell.polyring import Poly, is_irreducible, poly_to_json

from conftest import central_by_products, poly, tower_field, translate


def int_rows(ell, *ints):
    """The rows of rational-integer coefficients."""
    return [(n,) + (0,) * (ell - 2) for n in ints]


def test_conductor_t_gives_constant_l(F7):
    chi = DirichletChar(F7, 3, [(Poly.x(F7), 1)])
    L = l_polynomial(chi)
    assert L.degree == 0 and L.rows == ((1, 0),)
    assert char_sum(chi, chi.degree).is_zero()


def test_degree_two_even_coefficient_by_direct_sum(F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 2)])
    assert chi.even
    L = l_polynomial(chi)
    assert char_sum(chi, chi.degree).is_zero()
    direct = CycInt.from_int(3, 0)
    for a in range(7):
        direct = direct + char_value(chi, t + poly(F7, a)).to_cyc()
    assert L.rows[1] == direct.coords
    assert L.degree <= 1


def test_monic_count_harness(F7):
    # the summation loop sees exactly q^n monic polynomials of degree n
    for n in range(4):
        assert sum(1 for _ in monics(F7, n)) == 7**n


def test_strip_examples(F7):
    t = Poly.x(F7)
    odd = DirichletChar(F7, 3, [(t, 1)])
    L = l_polynomial(odd)
    stripped, k = strip_trivial_factor(L, odd)
    assert stripped == L and k is None
    # synthetic 1 - u
    ell = 3
    syn = LPoly(ell, 7, int_rows(ell, 1, -1))
    q, k = strip_trivial_factor(syn, _even_stub(F7))
    assert k == 0 and q.degree == 0 and q.rows == ((1, 0),)


def _even_stub(F7):
    t = Poly.x(F7)
    return DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 2)])


def test_strip_even_degree3(F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 1), (t + Poly.one(F7), 1)])
    assert chi.even
    L = l_polynomial(chi)
    stripped, k = strip_trivial_factor(L, chi)
    assert stripped.degree == chi.degree - 2 == 1
    assert k is not None


def test_strip_missing_root_raises(F7):
    bad = LPoly(3, 7, int_rows(3, 1, 1, 7))  # no mu_3 root: 1 + u + 7u^2
    with pytest.raises(InvariantViolation):
        strip_trivial_factor(bad, _even_stub(F7))


def test_trivial_factor_unique_on_census_sample(F7):
    from superell import enumerate_order_ell

    for chi in enumerate_order_ell(F7, 3, 3):
        L = l_polynomial(chi)
        ks = trivial_factor_candidates(L)
        if chi.even:
            assert len(ks) == 1
        # odd characters may or may not have a unit root; strip leaves them alone
        stripped, k = strip_trivial_factor(L, chi)
        if chi.even:
            assert stripped.degree == chi.degree - 2
        else:
            assert k is None and stripped.degree == chi.degree - 1


def test_central_value_examples():
    one = LPoly(3, 7, int_rows(3, 1))
    assert not central_value_is_zero(one)
    # 1 - q u^2 over a square q: root at u = 1/sqrt(q)
    sq = LPoly(3, 25, int_rows(3, 1, 0, -25))
    assert central_value_is_zero(sq)
    # same shape over q = 5 exercises the odd-exponent split
    odd_q = LPoly(3, 5, int_rows(3, 1, 0, -5))
    assert central_value_is_zero(odd_q)
    assert not central_value_is_zero(LPoly(3, 5, int_rows(3, 1, 0, 5)))
    # (1 - u)(1 - 5u^2) keeps its central root after multiplying in a unit factor
    mixed = LPoly(3, 5, int_rows(3, 1, -1, -5, 5))
    assert central_value_is_zero(mixed)
    # both split components nonzero
    assert not central_value_is_zero(LPoly(3, 5, int_rows(3, 1, 1, 5, 1)))


def test_central_value_guard_p_equals_ell():
    # over q = 3^3 with ell = 3, sqrt(q) = 3 sqrt(3) lies in Q(zeta_3, sqrt(3)),
    # so the split along 1 and sqrt(q) would not decide vanishing
    with pytest.raises(InputError):
        central_value_is_zero(LPoly(3, 27, int_rows(3, 1, 0, -27)))


def test_dual_coefficients_are_conjugate(F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t**2 + poly(F7, 2), 2)])
    L = l_polynomial(chi)
    Ld = l_polynomial(chi.dual())
    assert [conjugate(CycInt(3, row)).coords for row in L.rows] == list(Ld.rows)


def test_duality_of_central_vanishing(F7):
    from superell import enumerate_order_ell

    for chi in enumerate_order_ell(F7, 3, 2):
        L, _ = strip_trivial_factor(l_polynomial(chi), chi)
        Ld, _ = strip_trivial_factor(l_polynomial(chi.dual()), chi.dual())
        assert central_value_is_zero(L) == central_value_is_zero(Ld)


def test_orthogonality_small(F7):
    from superell import enumerate_order_ell

    for chi in enumerate_order_ell(F7, 3, 3):
        assert char_sum(chi, chi.degree).is_zero()


def test_rescale_by_root():
    L = LPoly(3, 7, int_rows(3, 1, 2, 3))
    R = rescale_by_root(L, 1)
    z = mu_embed(3, 1)
    assert R.rows[0] == L.rows[0]
    assert R.rows[1] == (CycInt(3, L.rows[1]) * z).coords
    assert R.rows[2] == (CycInt(3, L.rows[2]) * z * z).coords
    assert rescale_by_root(L, 0) == L


def test_strip_trivial_factor_enforces_the_degree_law(F7):
    t = Poly.x(F7)
    odd = DirichletChar(F7, 3, [(t, 1)])  # L has degree D - 1 = 0
    even = DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 2)])  # stripped degree 0
    # 1 + 2u for the odd one; (1 - u)(1 + u), which strips to 1 + u, for the even one
    for chi, L in ((odd, LPoly(3, 7, int_rows(3, 1, 2))), (even, LPoly(3, 7, int_rows(3, 1, 0, -1)))):
        with pytest.raises(InvariantViolation) as err:
            strip_trivial_factor(L, chi)
        assert err.value.invariant == "degree-law"
    assert strip_trivial_factor(LPoly(3, 7, int_rows(3, 1, -1)), even)[0].degree == 0


def test_lpoly_json_roundtrip():
    L = LPoly(3, 7, int_rows(3, 1, -2, 7))
    data = L.to_json()
    assert all(c["ell"] == 3 for c in data["coeffs"])
    rows = [tuple(map(int, c["coords"])) for c in data["coeffs"]]
    assert LPoly(data["ell"], data["q"], rows) == L


def test_lpoly_constructor_checks_constant_and_top_coefficient():
    assert LPoly(3, 7, [(1, 0), (0, 0), (0, 2)]).degree == 2
    for rows in ([], [(2, 0), (1, 0)], [(1, 1)], [(1,)], [(1, 0), (0, 0)]):
        with pytest.raises(InputError):
            LPoly(3, 7, rows)


def _header_line(F, ell) -> str:
    return _canon({"ell": ell, "field": F.descriptor(), "format": "superell-lcache", "version": 3})


def _block_line(pairs) -> str:
    """The block line of the (chi, L) pairs of one conductor, encoded from the
    definitions: the number of primes and of coefficients, then per
    character (degree, index among the monics of that degree, exponent) per
    prime and every coefficient's coordinates; the body's sha256, a space,
    the body."""
    chi, L = pairs[0]
    ints = [len(chi.exponent_map), len(L.rows)]
    for chi, L in pairs:
        q = chi.field.q
        for P, e in chi.exponent_map:
            ints += [P.degree, P.vector_index() - q**P.degree, e]
        for row in L.rows:
            ints += row
    body = " ".join(map(str, ints))
    return f"{hashlib.sha256(body.encode()).hexdigest()} {body}"


def test_digest_is_hashlib_sha256():
    # the checksum of a block comes from the interpreter's own sha256, not
    # from hashlib's OpenSSL one, and must be the same digest, so files
    # written either way load unchanged
    rng = random.Random(20261020)
    bodies = [b"", b"1 2 3"] + [rng.randbytes(rng.randrange(1, 300)) for _ in range(200)]
    for body in bodies:
        assert _digest(body) == hashlib.sha256(body).hexdigest().encode("ascii")
    builtin = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    if importlib.util.find_spec(builtin) is not None:  # absent only from unusual builds
        assert _sha256().__module__ == builtin


def test_lcache_roundtrip_and_corruption(tmp_path, F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 2)])
    prime = DirichletChar(F7, 3, [(t * t + Poly.one(F7), 1)])  # t^2 + 1 is prime mod 7
    path = tmp_path / "lcache.txt"
    path.touch()  # a zero-byte file is an empty cache
    cache = LCache(str(path), F7, 3)
    assert cache.get(chi) is None and cache.blocks == 0
    first = [(c, l_polynomial(c)) for c in (chi, chi.dual())]
    second = [(c, l_polynomial(c)) for c in (prime, prime.dual())]
    cache.put(first)
    cache.put(second)
    cache.put(first)  # nothing new: nothing written
    lines = path.read_text().splitlines()
    assert lines == [_header_line(F7, 3), _block_line(first), _block_line(second)]
    cache2 = LCache(str(path), F7, 3)
    assert (cache2.blocks, cache2.bad_lines) == (2, 0)
    assert all(cache2.get(c) == L for c, L in first + second)
    # corrupt the first block's checksum: the load drops that block and
    # rewrites the file with the header and the other block only
    path.write_text(f"{lines[0]}\n00{lines[1]}\n{lines[2]}\n")
    repaired = LCache(str(path), F7, 3)
    assert (repaired.blocks, repaired.bad_lines) == (2, 1)
    assert repaired.get(chi) is None and repaired.get(chi.dual()) is None
    assert all(repaired.get(c) == L for c, L in second)
    assert path.read_text().splitlines() == [lines[0], lines[2]]
    assert LCache(str(path), F7, 3).bad_lines == 0
    # a block whose checksum holds but whose L does not start with 1 is bad
    ints = lines[2].split()[1:]
    ints[2 + 3 * int(ints[0])] = "2"  # the first coordinate of the first c_0
    body = " ".join(ints)
    path.write_text(f"{lines[0]}\n{hashlib.sha256(body.encode()).hexdigest()} {body}\n")
    assert LCache(str(path), F7, 3).bad_lines == 1
    # so is one whose L has a zero top coefficient
    ints = lines[2].split()[1:]
    r, c = int(ints[0]), int(ints[1])
    assert c > 1
    ints[2 + 3 * r + 2 * (c - 1) : 2 + 3 * r + 2 * c] = ["0", "0"]  # the first L's top row
    body = " ".join(ints)
    path.write_text(f"{lines[0]}\n{hashlib.sha256(body.encode()).hexdigest()} {body}\n")
    assert LCache(str(path), F7, 3).bad_lines == 1


def test_lcache_is_bound_to_its_field_and_ell(tmp_path, F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1)])
    F13 = make_field(13, 1)
    other = DirichletChar(F13, 3, [(Poly.x(F13), 1)])
    path = tmp_path / "lcache.txt"
    LCache(str(path), F7, 3).put([(chi, l_polynomial(chi))])
    text = path.read_text()
    assert text.splitlines()[0] == _header_line(F7, 3)
    # another field or ell is refused at the load, and the file is left as
    # it is
    for args in ((F13, 3), (F7, 5)):
        with pytest.raises(InputError, match="--cache"):
            LCache(str(path), *args)
    assert path.read_text() == text
    cache = LCache(str(path), F7, 3)
    assert cache.get(chi) == l_polynomial(chi)
    # so is a character over another field, in get and in put
    with pytest.raises(InputError, match="not over the L-cache's field"):
        cache.get(other)
    with pytest.raises(InputError, match="not over the L-cache's field"):
        cache.put([(other, l_polynomial(other))])
    # a block holds the characters of one conductor
    two = DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 1)])
    with pytest.raises(InvariantViolation) as err:
        cache.put([(two, l_polynomial(two)), (chi, l_polynomial(chi))])
    assert err.value.invariant == "lcache-block"
    assert path.read_text() == text and cache.get(two) is None
    # a version-1 or version-2 file, a header that does not parse and a
    # header for a field or ell far from any census are refused too, before
    # anything is derived from them
    huge_tower = text.replace('"tower":[]', '"tower":[1000000000000]')
    huge_ell = text.replace('"ell":3', '"ell":1000000000000')
    assert huge_tower != text and huge_ell != text
    for bad, message in (
        ('{"checksum":"00","key":"{}","value":{}}\n', "a cold run rebuilds it"),
        (text.replace('"version":3', '"version":2'), "version-2 format.*a cold run rebuilds it"),
        ("not a header\n", "version-3 L-cache header"),
        ("[]\n", "version-3 L-cache header"),
        (text.replace('"version":3', '"version":4'), "version-3 L-cache header"),
        (text.splitlines()[0], "version-3 L-cache header"),  # torn: no newline
        (huge_tower, "another field or ell"),
        (huge_ell, "another field or ell"),
    ):
        path.write_text(bad)
        with pytest.raises(InputError, match=message):
            LCache(str(path), F7, 3)
        assert path.read_text() == bad
    assert text == _header_line(F7, 3) + "\n" + _block_line([(chi, l_polynomial(chi))]) + "\n"


def _sample_groups(F, ell):
    """Conductor groups of degrees 1 to 3: the first ones, and those with the
    most primes or primes of mixed degree."""
    for d in (1, 2, 3):
        groups = list(conductor_groups(F, ell, d))
        mixed = [g for g in groups if len({P.degree for P, _ in g[0].exponent_map}) > 1]
        several = sorted(groups, key=lambda g: -len(g[0].exponent_map))
        yield from groups[:2] + mixed[:2] + several[:2]


_FIELDS = [
    pytest.param(7, [1], 3, id="7-1-3"),
    pytest.param(2, [2], 3, id="2-2-3"),
    pytest.param(2, [2, 2], 3, id="2-2x2-3"),
    pytest.param(2, [2, 2], 5, id="2-2x2-5"),
    pytest.param(5, [2], 3, id="5-2-3"),
    pytest.param(11, [1], 5, id="11-1-5"),
]


# ids: p, the tower's relative degrees, ell
@pytest.mark.parametrize("p, tower, ell", _FIELDS)
def test_cache_keys_and_lines_are_canonical_json(tmp_path, p, tower, ell):
    F = tower_field(p, *tower)
    path = tmp_path / "lcache.txt"
    cache = LCache(str(path), F, ell)
    held, blocks, expected = set(), [], []
    for chars in _sample_groups(F, ell):
        Ls = l_polynomials(chars)
        fresh = []
        for chi, L in zip(chars, Ls):
            k = _canon(chi.to_json())
            assert k == _canon({
                "ell": ell,
                "field": F.descriptor(),
                "factors": [[poly_to_json(P), e] for P, e in chi.exponent_map],
            })
            # the key the factor table handed the character at construction
            # is the one recomputed from its primes' coefficients
            recomputed = tuple(
                x
                for P, e in chi.exponent_map
                for x in (P.degree, sum(c.idx * F.q**i for i, c in enumerate(P.coeffs[:-1])), e)
            )
            assert chi.int_key() == recomputed
            # a character built and checked by the public constructor
            twin = DirichletChar(F, ell, chi.exponent_map[::-1])
            assert _canon(twin.to_json()) == k and twin.int_key() == recomputed
            if k not in held:  # put skips what it already holds
                held.add(k)
                fresh.append((chi, L))
        if fresh:
            blocks.append(_block_line(fresh))
            expected += fresh
        cache.put(list(zip(chars, Ls)))
    assert path.read_text().splitlines() == [_header_line(F, ell)] + blocks
    assert len({chi.int_key() for chi, _ in expected}) == len(expected)
    exponents = {e for chi, _ in expected for _, e in chi.to_json()["factors"]}
    assert exponents == set(range(1, ell))
    reloaded = LCache(str(path), F, ell)
    assert (reloaded.blocks, reloaded.bad_lines) == (len(blocks), 0)
    for chi, L in expected:
        assert reloaded.get(chi) == L


# ids: q, ell, the largest conductor degree; the shifts b by element index,
# all nonzero ones unless given
@pytest.mark.parametrize("p, e, ell, max_d, shifts", [
    pytest.param(7, 1, 3, 3, None, id="7-3-d3"),
    pytest.param(2, 2, 3, 3, None, id="4-3-d3"),
    pytest.param(2, 4, 3, 2, None, id="16-3-d2"),
    pytest.param(11, 1, 5, 2, None, id="11-5-d2"),
    pytest.param(5, 2, 3, 2, (1, 6, 24), id="25-3-d2"),
])
def test_translated_characters_share_l_polynomials(p, e, ell, max_d, shifts):
    # g -> g(t + b) is an automorphism of F_q[t] that keeps degree and
    # monicity and fixes the constant residue symbols, (g(t+b)/P(t+b)) =
    # (g/P), so exponents e_i on the P_i(t + b) give the L of exponents e_i
    # on the P_i: the identity the census shares L-polynomials by
    F = make_field(p, e)
    shifts = range(1, F.q) if shifts is None else shifts
    for d in range(1, max_d + 1):
        for chars in conductor_groups(F, ell, d):
            Ls = l_polynomials(chars)
            for b in shifts:
                c = F.elem_at(b)
                moved = [
                    DirichletChar(F, ell, [(translate(P, c), e) for P, e in chi.exponent_map])
                    for chi in chars
                ]
                assert l_polynomials(moved) == Ls


def _check_row_kernels(chi, L, ks):
    """The integer-row kernels against CycInt arithmetic on L's rows, on L
    and on its rescalings L(zeta^j u), whose trivial factor is
    (1 - zeta^(k + j) u)."""
    ell, F = L.ell, chi.field
    for j in ks:
        R = rescale_by_root(L, j)
        assert R.rows == tuple(
            (CycInt(ell, row) * mu_embed(ell, j * n)).coords for n, row in enumerate(L.rows)
        )
        stripped, k = strip_trivial_factor(R, chi)
        if chi.even:
            factor = LPoly(ell, L.q, [mu_embed(ell, 0).coords, (-mu_embed(ell, k)).coords])
            assert stripped * factor == R
            assert stripped * factor == _product_by_cycints(stripped, factor)
            assert k == j % ell  # the census's untwisted L has k = 0
        else:
            assert k is None and stripped == R
        for M in (R, stripped):
            coeffs = [CycInt(ell, row) for row in M.rows]
            assert central_value_is_zero(M) == central_by_products(coeffs, M.q, F.p, F.e)


def _product_by_cycints(A, B):
    """A * B by CycInt products, the oracle of `LPoly.__mul__`."""
    zero = CycInt.from_int(A.ell, 0)
    out = [zero] * (A.degree + B.degree + 1)
    for i, a in enumerate(A.rows):
        for j, b in enumerate(B.rows):
            out[i + j] = out[i + j] + CycInt(A.ell, a) * CycInt(A.ell, b)
    return LPoly(A.ell, A.q, [c.coords for c in out])


# ids: p, the tower's relative degrees, ell
@pytest.mark.parametrize("p, tower, ell", _FIELDS)
def test_integer_row_kernels_match_cycint_arithmetic(p, tower, ell):
    F = tower_field(p, *tower)
    for chars in _sample_groups(F, ell):
        for chi, L in zip(chars, l_polynomials(chars)):
            _check_row_kernels(chi, L, range(ell))


def test_integer_row_kernels_at_large_ell():
    F = make_field(607, 1)
    t = Poly.x(F)
    quad = next(t * t - Poly.from_ints(F, [r]) for r in range(2, 607) if pow(r, 303, 607) == 606)
    for e in (1, 50):  # odd, then even: 1 + 2e = 0 mod 101
        chi = DirichletChar(F, 101, [(t, 1), (quad, e)])
        assert chi.even == (e == 50)
        _check_row_kernels(chi, l_polynomial(chi), (0, 1, 2, 50, 100))


@pytest.mark.slow
def test_orthogonality_full_census_degree4(F7):
    from superell import enumerate_order_ell

    for chi in enumerate_order_ell(F7, 3, 4):
        assert char_sum(chi, chi.degree).is_zero()


# ids: p, the tower's relative degrees, ell, largest conductor degree
@pytest.mark.parametrize(
    "p, tower, ell, max_degree",
    [
        pytest.param(7, [1], 3, 3, id="7-1-3"),
        pytest.param(2, [2], 3, 3, id="2-2-3"),
        pytest.param(2, [2, 2], 3, 2, id="2-2x2-2"),
        pytest.param(5, [2], 3, 2, id="5-2-2"),
        pytest.param(11, [1], 5, 2, id="11-1-2-ell5"),
    ],
)
def test_euler_route_matches_monic_sums(p, tower, ell, max_degree):
    F = tower_field(p, *tower)
    for d in range(1, max_degree + 1):
        for chars in conductor_groups(F, ell, d):
            assert l_polynomials(chars) == monic_sum_l_polynomials(chars)
            # any subset, in any order, gives the same polynomials
            sub = chars[::-2]
            assert l_polynomials(sub) == monic_sum_l_polynomials(sub)


def _completed(L, chi):
    """Lambda = L, or L / (1 - u) for even chi, from an oracle L."""
    if not chi.even:
        return list(L.rows)
    sums = itertools.accumulate(CycInt(L.ell, row) for row in L.rows)
    return [c.coords for c in sums][:-1]


def test_euler_route_when_every_overlap_coefficient_vanishes(F7):
    # such characters need primes of one more degree than ceil(N/2)
    seen = 0
    for d in (3, 4):
        for chars in conductor_groups(F7, 3, d):
            for chi, L in zip(chars, monic_sum_l_polynomials(chars)):
                lam = _completed(L, chi)
                N = len(lam) - 1
                M = (N + 1) // 2
                if not any(map(any, lam[N - M : M + 1])):
                    seen += 1
                    assert _complete(lam[: M + 1], N, 7) is None
                    assert l_polynomials([chi]) == [L]
        if d == 3:
            assert seen == 84  # of the 1,092 characters of degree 3
    assert seen == 84 + 672  # and of the 9,240 of degree 4


def test_functional_equation_completion_rejects_corrupted_coefficient(F7):
    tested = 0
    for chars in conductor_groups(F7, 3, 4):
        for chi, L in zip(chars, monic_sum_l_polynomials(chars)):
            if chi.even:
                continue
            lam = list(L.rows)  # N = 3, M = 2: overlap pairs (1, 2) and (2, 1)
            assert _complete(lam[:3], 3, 7) == lam
            if not any(lam[1]) or not any(lam[2]):
                continue
            bad = [lam[0], tuple(2 * c for c in lam[1]), lam[2]]
            with pytest.raises(InvariantViolation) as err:
                _complete(bad, 3, 7)
            assert err.value.invariant == "functional-equation"
            off = [lam[0], (lam[1][0] + 7, lam[1][1]), lam[2]]
            with pytest.raises(InvariantViolation):
                _complete(off, 3, 7)
            tested += 1
        if tested >= 20:
            break
    assert tested >= 20
    # a Lambda_n = 0 whose partner is not 0
    with pytest.raises(InvariantViolation):
        _complete(int_rows(3, 1, 0, 7), 3, 7)


def test_euler_route_refuses_the_tables_of_the_primes_it_reads():
    # a prime conductor P of degree 4 over GF(607) reads (P/Q) from the
    # table of each of the 607 primes Q of degree 1, at the residue of P,
    # through a map of Q's with two tables of 607^2 entries: the limit
    # refuses it before any of those tables is built
    F = make_field(607, 1)
    t = Poly.x(F)
    P = next(Q for a in range(1, 607) if is_irreducible(Q := t**4 + t + Poly.from_ints(F, [a])))
    chi = DirichletChar(F, 101, [(P, 1)])
    before = char_context(F, 101).counts["symbol_tables_built"]
    with pytest.raises(ResourceLimit, match="SUPERELL_LIMIT_CENSUS") as err:
        l_polynomial(chi)
    assert "primes of degree 1" in str(err.value)
    assert char_context(F, 101).counts["symbol_tables_built"] == before


def test_large_ell_lone_characters():
    # ell = 101 over GF(607): the norm divisions multiply 99 conjugates.  A
    # conductor of degree 4 whose primes have degree <= 2 reads the primes
    # of degree <= 2 and the tables of those of degree 1, within the
    # default limit, though its monic sums would run over 607^3 monics
    F = make_field(607, 1)
    t = Poly.x(F)
    lin = [t - Poly.from_ints(F, [a]) for a in (0, 1, 5)]
    quad = [t * t - Poly.from_ints(F, [r]) for r in range(2, 607) if pow(r, 303, 607) == 606][:2]
    assert all(is_irreducible(Q) for Q in quad)
    cases = [
        [(lin[0], 1), (quad[0], 1)],
        [(lin[0], 1), (quad[0], 50)],
        [(lin[0], 1), (lin[1], 3), (lin[2], 97)],
        [(quad[0], 1), (quad[1], 100)],
        [(quad[0], 2), (quad[1], 7)],
        [(lin[0], 1), (lin[1], 99), (quad[0], 1)],
    ]
    parities = set()
    for pairs in cases:
        chi = DirichletChar(F, 101, pairs)
        L = l_polynomial(chi)
        assert L.degree == chi.degree - 1
        parities.add((chi.degree, chi.even))
        if chi.degree == 3:
            assert [L] == monic_sum_l_polynomials([chi])
        else:
            # the monic sums of degree 3 would scan 607^3 monics; c_0..c_2
            # include, for an even character, one the functional equation
            # derived
            for n in range(3):
                assert L.rows[n] == char_sum(chi, n).coords
        stripped, k = strip_trivial_factor(L, chi)
        assert stripped.degree == chi.degree - (2 if chi.even else 1)
    assert parities == {(3, False), (3, True), (4, False), (4, True)}
