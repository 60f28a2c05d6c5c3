import pytest

from superell import (
    DirichletChar,
    InputError,
    InvariantViolation,
    SuperellipticModel,
    char_from_model,
    count_all_primitive,
    count_order_ell_exact,
    enumerate_order_ell,
    extend_field,
    factor,
    make_field,
    residue_symbol,
    run_census,
)
from superell.characters import (
    CharContext,
    char_context,
    char_value_counts,
    prime_symbol_histogram,
    project_counts,
    symbol_histogram,
)
from superell.lfunction import _canon
from superell.oracle import MuValue, char_sum, char_value, conductor_groups, monics
from superell.polyring import _GENERATOR_TRIES, Poly, gcd, irreducibles, is_squarefree, poly_to_json

from conftest import poly, rand_poly, tower_field


# -- brute-force oracle for primitive character counts (all orders) ------------


def unit_count(F, f) -> int:
    """|(A/f)^*| by exhaustive coprimality scan over all residues."""
    total = 0
    q = F.q
    for j in range(q**f.degree):
        cs = []
        k = j
        for _ in range(f.degree):
            cs.append(F.elem_at(k % q))
            k //= q
        g = Poly(F, cs)
        if g.is_zero():
            continue
        if gcd(g, f).degree == 0:
            total += 1
    return total


def monic_divisors(f):
    out = [Poly.one(f.field)]
    for P, e in factor(f).factors:
        out = [d * P**k for d in out for k in range(e + 1)]
    return out


def primitive_count_oracle(F, d: int) -> int:
    """Number of primitive characters with conductor of degree exactly d, via
    Mobius inversion of |(A/f)^*| = sum over monic divisors of Q(g), with the
    unit-group orders counted by brute force."""
    if d == 0:
        return 1
    memo: dict = {}

    def Q(f) -> int:
        key = f.key()
        if key in memo:
            return memo[key]
        if f.degree == 0:
            return 1
        val = unit_count(F, f) - sum(Q(g) for g in monic_divisors(f) if g.degree < f.degree)
        memo[key] = val
        return val

    return sum(Q(f) for f in monics(F, d))


# -- residue symbols ---------------------------------------------------------------


def test_residue_symbol_examples(F7):
    t = Poly.x(F7)
    # zeta = 3^((7-1)/3) = 2; 3^2 = 2 = zeta
    assert residue_symbol(poly(F7, 3), t, 3) == MuValue.root(3, 1)
    assert residue_symbol(Poly.one(F7), t + poly(F7, 5), 3) == MuValue.root(3, 0)
    assert residue_symbol(t, t, 3).is_zero()


def test_residue_symbol_requires_congruence(F5):
    with pytest.raises(InputError):
        residue_symbol(Poly.one(F5), Poly.x(F5), 3)  # 5 != 1 mod 3


def test_symbol_table_matches_direct_symbol(F7):
    """Every residue of the tables against square-and-multiply: all primes of
    degree <= 2 over F_7, and the first and last primes of each degree for
    p = 2 (spread radix 3), towers of depth 1 and 2, and ell = 5 and 7."""
    F4 = make_field(2, 2)
    cases = [
        (F7, 3, 3),
        (F4, 3, 3),
        (make_field(5, 2), 3, 2),
        (extend_field(F4, 2), 5, 2),
        (make_field(11, 1), 5, 2),
        (make_field(29, 1), 7, 2),
    ]
    for F, ell, dmax in cases:
        ctx = char_context(F, ell)
        for d in range(1, dmax + 1):
            primes = irreducibles(F, d)
            if not (F is F7 and d <= 2):
                primes = (primes[0], primes[-1])
            for P in primes:
                tab = ctx.symbol_table(P)
                assert len(tab) == F.q**d
                for j in range(F.q**d):
                    r = Poly.from_vector_index(F, j)
                    direct = residue_symbol(r, P, ell) if not r.is_zero() else MuValue.zero(ell)
                    if direct.is_zero():
                        assert tab[j] < 0
                    else:
                        assert tab[j] == direct.k, (F, ell, P, j)


def test_symbol_table_rejects_reducible_modulus(F7):
    t = Poly.x(F7)
    one = Poly.one(F7)
    for P in (t**2, t**2 + t, t**3 + t, t**4 + one, t**4 + t**3):
        ctx = CharContext(F7, 3)  # fresh counts
        with pytest.raises(InvariantViolation) as exc:
            ctx.symbol_table(P)
        assert exc.value.invariant == "residue-symbol-modulus"
        assert 0 < ctx.counts["generator_candidates"] <= _GENERATOR_TRIES
        assert ctx.counts["symbol_tables_built"] == 0


def test_symbol_table_walk_counts(F7):
    ctx = CharContext(F7, 3)  # fresh counts and tables
    for d in (1, 2):
        for P in irreducibles(F7, d):
            ctx.symbol_table(P)
    assert ctx.counts["symbol_tables_built"] == 7 + 21
    assert ctx.counts["generator_candidates"] >= 7 + 21
    # each table needs one walk of all |P| - 1 units, failed candidates add more
    assert ctx.counts["walk_steps"] >= 7 * 6 + 21 * 48


def test_residue_tables_match_polynomial_remainder(F7):
    """The residue map's image of every monic g of degree <= 3 against g mod
    P, for the first and last primes of each degree 1-3, over F_7, F_4
    (p = 2) and the depth-2 tower 2 -> 4 -> 16."""
    F4 = make_field(2, 2)
    for F in (F7, F4, extend_field(F4, 2)):
        ctx = char_context(F, 3)
        for d in (1, 2, 3):
            primes = irreducibles(F, d)
            for P in (primes[0], primes[-1]):
                for n in range(4):
                    residues = ctx.residue_map(P, n)
                    expected = [(g % P).vector_index() for g in monics(F, n)]
                    assert residues.table() == expected, (F, P, n)
                    assert [residues(j) for j in range(F.q**n)] == expected, (F, P, n)


def test_symbol_tables_built_once_per_field(monkeypatch):
    # over F_16, the theorem's smallest field: the census builds one symbol
    # table per distinct prime it reads, keeps it, and a second census over
    # the same field builds none
    F16 = make_field(2, 4)
    ctx = CharContext(F16, 3)  # fresh counts and tables
    monkeypatch.setitem(F16._cache, ("charctx", 3), ctx)
    read = set()
    real = CharContext.symbol_table

    def recorded(self, P):
        read.add(P.key())
        return real(self, P)

    monkeypatch.setattr(CharContext, "symbol_table", recorded)
    rep = run_census(2, 4, 3, 4)
    assert [r["count_A"] for r in rep.per_degree] == [32, 720, 14880, 292560]
    assert [r["count_B"] for r in rep.per_degree] == [0, 80, 640, 21600]
    assert ctx.counts["symbol_tables_built"] == len(read) == 149
    again = run_census(2, 4, 3, 4)
    assert again.runtime_stats["total_counts"]["symbol_tables_built"] == 0
    assert [r["count_B"] for r in again.per_degree] == [0, 80, 640, 21600]


def test_mu_value_algebra():
    z = MuValue.zero(3)
    r = MuValue.root(3, 2)
    assert (z * r).is_zero()
    assert r * r == MuValue.root(3, 1)
    assert r**3 == MuValue.root(3, 0)
    assert r.to_cyc().coords == (-1, -1)


# -- characters from models ----------------------------------------------------------


def test_char_from_model_examples(F7):
    t = Poly.x(F7)
    one = Poly.one(F7)
    m1 = SuperellipticModel(3, F7, F7.one(), (t**3 - t, one))
    c1 = char_from_model(m1)
    assert c1.even and c1.conductor == t**3 - t
    m2 = SuperellipticModel(3, F7, F7.one(), (t, t - one))
    c2 = char_from_model(m2)
    assert c2.even and c2.conductor == t * (t - one)
    m3 = SuperellipticModel(3, F7, F7.one(), (t, one))
    c3 = char_from_model(m3)
    assert not c3.even and c3.conductor == t


def test_evenness_criterion_vs_constant_evaluation(F7, F25):
    for F, n in ((F7, 2), (F25, 1)):
        for chi in enumerate_order_ell(F, 3, n):
            trivial_on_constants = all(
                char_value(chi, Poly.constant(F.elem_at(i))) == MuValue.root(3, 0)
                for i in range(1, F.q)
            )
            assert trivial_on_constants == chi.even


def test_char_eval_multiplicative_and_periodic(F7, rng):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t**2 + poly(F7, 2), 2)])
    f = chi.conductor
    for _ in range(40):
        g = rand_poly(F7, 4, rng)
        h = rand_poly(F7, 4, rng)
        if g.is_zero() or h.is_zero():
            continue
        assert char_value(chi, g * h) == char_value(chi, g) * char_value(chi, h)
        m = rand_poly(F7, 2, rng)
        assert char_value(chi, g + f * m) == char_value(chi, g)


def test_char_eval_spec_example(F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1)])
    assert char_value(chi, t + poly(F7, 3)) == MuValue.root(3, 1)


def test_counting_formula_examples():
    assert count_all_primitive(7, 0) == 1
    assert count_all_primitive(7, 1) == 35
    assert count_all_primitive(7, 2) == 1764
    assert count_order_ell_exact(7, 3, 0) == 1
    assert count_order_ell_exact(7, 3, 1) == 14
    assert count_order_ell_exact(7, 3, 2) == 126


def test_primitive_count_oracle_small(F5):
    # d = 1 oracle agreement at q = 5 (full q in the acceptance suite)
    assert primitive_count_oracle(F5, 1) == count_all_primitive(5, 1) == 15


def test_enumeration_examples(F7):
    assert enumerate_order_ell(F7, 3, 0) == []
    chars1 = enumerate_order_ell(F7, 3, 1)
    assert len(chars1) == 14
    chars2 = enumerate_order_ell(F7, 3, 2)
    assert len(chars2) == 140


def test_enumeration_laws(F7):
    chars = enumerate_order_ell(F7, 3, 3)
    by_deg: dict = {}
    by_conductor: dict = {}
    for chi in chars:
        assert is_squarefree(chi.conductor)
        by_deg[chi.degree] = by_deg.get(chi.degree, 0) + 1
        key = chi.conductor.key()
        by_conductor[key] = by_conductor.get(key, 0) + 1
        dual = chi.dual()
        assert dual.conductor == chi.conductor and dual.even == chi.even
    for d in (1, 2, 3):
        assert by_deg[d] == count_order_ell_exact(7, 3, d)
    # (ell-1)^r characters per squarefree conductor
    for key, n in by_conductor.items():
        f = next(c.conductor for c in chars if c.conductor.key() == key)
        r = factor(f).num_prime_factors()
        assert n == 2**r


def test_conductor_groups_ascend_over_squarefree_monics(F7, F25):
    # one group per squarefree monic, in ascending canonical index, with the
    # (ell-1)^r exponent assignments over its r primes
    F4 = make_field(2, 2)
    cases = ((F7, 3, 3), (F4, 3, 3), (F25, 3, 2), (extend_field(F4, 2), 5, 2))
    for F, ell, dmax in cases:
        for d in range(1, dmax + 1):
            conductors = []
            for chars in conductor_groups(F, ell, d):
                f = chars[0].conductor
                assert all(chi.conductor == f for chi in chars)
                assert len(chars) == (ell - 1) ** factor(f).num_prime_factors()
                conductors.append(f)
                # the unchecked characters equal those the public constructor checks
                for chi in chars:
                    checked = DirichletChar(F, ell, chi.exponent_map)
                    assert chi.int_key() == checked.int_key()
                    assert chi.exponent_map == checked.exponent_map
                    assert chi.even == checked.even
                    assert chi == checked and hash(chi) == hash(checked)
            indices = [f.vector_index() for f in conductors]
            assert indices == sorted(set(indices))
            assert conductors == [f for f in monics(F, d) if is_squarefree(f)]


def test_constructor_checks_and_canonical_order(F7):
    t, one = Poly.x(F7), Poly.one(F7)
    chi = DirichletChar(F7, 3, [(t + one, 2), (t, 4)])
    assert chi.int_key() == (1, 0, 1, 1, 1, 2)
    assert chi == DirichletChar(F7, 3, [(t, 1), (t + one, 2)])
    bad = [
        (3, []),  # no conductor
        (3, [(one, 1)]),  # constant
        (3, [(poly(F7, 0, 3), 1)]),  # not monic
        (3, [(t, 3)]),  # exponent 0 mod ell
        (3, [(t, 1), (t, 2)]),  # repeated prime
        (3, [(Poly.x(make_field(13, 1)), 1)]),  # a prime over another field
        (5, [(t, 1)]),  # q = 7 is not 1 mod 5
    ]
    for ell, pairs in bad:
        with pytest.raises(InputError):
            DirichletChar(F7, ell, pairs)


def test_power_and_dual(F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t + Poly.one(F7), 2)])
    assert chi.dual().exponent_map[0][1] == 2
    assert chi.dual().dual() == chi
    # a power reuses chi's primes and codes, with no checks run again
    checked = DirichletChar(F7, 3, [(t, 2), (t + Poly.one(F7), 4)])
    assert chi.power(5) == checked and hash(chi.power(5)) == hash(checked)
    assert (chi.power(5).degree, chi.power(5).even) == (checked.degree, checked.even)
    with pytest.raises(InputError):
        chi.power(3)


def test_char_value_counts_total(F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 2)])
    for d in range(4):
        counts, zeros = char_value_counts(chi, d)
        assert sum(counts) + zeros == 7**d


def test_char_value_counts_zeros_at_large_ell():
    # with (ell - 1)^2 >= 10^6 the exponent sum of the other prime can be large;
    # a g divisible by one conductor prime must still count as a zero
    F = make_field(2027, 1)
    t = Poly.x(F)
    one = Poly.one(F)
    chi = DirichletChar(F, 1013, [(t, 1), (t - one, 1012)])
    counts, zeros = char_value_counts(chi, 2)
    # monic quadratics vanishing at 0 or at 1: q + q - 1 of them
    assert zeros == 2 * F.q - 1
    assert sum(counts) + zeros == F.q**2
    for g in (t * t, t * (t - one), (t - one) * (t + one)):
        assert char_value(chi, g).is_zero()


def test_char_value_counts_beyond_q_2048():
    # q = 2053 is prime and 3 | q - 1; the residues of g need no q x q table
    F = make_field(2053, 1)
    t = Poly.x(F)
    chi = DirichletChar(F, 3, [(t, 1), (t - Poly.one(F), 2)])
    got = char_value_counts(chi, 1)
    assert got == _brute_value_counts(chi, 1, {})
    assert got == ([683, 684, 684], 2)


def test_char_sum_matches_direct_eval(F25):
    from superell import CycInt

    chars = enumerate_order_ell(F25, 3, 1)
    chi = chars[0]
    for d in (0, 1):
        direct = CycInt.from_int(3, 0)
        for g in monics(F25, d):
            direct = direct + char_value(chi, g).to_cyc()
        assert char_sum(chi, d) == direct


def test_char_json_roundtrip(F7):
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t**2 + poly(F7, 2), 2)])
    back = DirichletChar.from_json(F7, chi.to_json())
    assert back == chi


# ids: q, ell; F_16 as the tower 2 -> 4 -> 16
@pytest.mark.parametrize("p, tower, ell", [
    pytest.param(7, [1], 3, id="7-3"),
    pytest.param(2, [2], 3, id="4-3"),
    pytest.param(2, [2, 2], 3, id="16-3"),
    pytest.param(11, [1], 5, id="11-5"),
])
def test_char_to_json_is_its_canonical_json(p, tower, ell):
    # to_json, in canonical form, is the report's bytes
    # {"ell":...,"factors":[[P,e],...],"field":...}, and a character of
    # `conductor_groups` takes its degree and parity from its codes: both
    # agree with a character built and checked by the public constructor
    F = tower_field(p, *tower)
    for d in (1, 2):
        for chars in conductor_groups(F, ell, d):
            for chi in chars:
                data = chi.to_json()
                factors = ",".join(f"[{_canon(poly_to_json(P))},{e}]" for P, e in chi.exponent_map)
                expected = f'{{"ell":{ell},"factors":[{factors}],"field":{_canon(F.descriptor())}}}'
                assert _canon(data) == expected
                twin = DirichletChar(F, ell, chi.exponent_map[::-1])
                assert (twin.degree, twin.even) == (chi.degree, chi.even) == (
                    d, sum(e * P.degree for P, e in chi.exponent_map) % ell == 0
                )
                assert twin.to_json() == data


def _brute_value_counts(chi, degree, symbols, polys=None):
    """Value counts of chi over monic g of the given degree (or over `polys`),
    by the definition chi(g) = prod (g/P)^e with every symbol by
    square-and-multiply; `symbols` memoises them, since many conductors share
    a prime."""
    counts = [0] * chi.ell
    zeros = 0
    for g in monics(chi.field, degree) if polys is None else polys:
        v = MuValue.root(chi.ell, 0)
        for P, e in chi.exponent_map:
            key = (g.key(), P.key())
            if key not in symbols:
                symbols[key] = residue_symbol(g, P, chi.ell)
            v = v * symbols[key] ** e
        if v.is_zero():
            zeros += 1
        else:
            counts[v.k] += 1
    return counts, zeros


# ids: p, the tower's relative degrees, max_degree, and ell when it is not 3
@pytest.mark.parametrize(
    "p, tower, ell, max_degree",
    [
        pytest.param(7, [1], 3, 3, id="7-1-3"),
        pytest.param(2, [2], 3, 2, id="2-2-2"),
        pytest.param(5, [2], 3, 2, id="5-2-2"),
        pytest.param(2, [2, 2], 3, 2, id="2-2x2-2"),
        pytest.param(2, [2, 2], 5, 2, id="2-2x2-2-ell5"),
        pytest.param(11, [1], 5, 2, id="11-1-2-ell5"),
    ],
)
def test_symbol_histogram_projection_matches_brute_force(p, tower, ell, max_degree):
    # every exponent assignment on every conductor, projected from one
    # histogram per degree, against the direct value of chi on every monic;
    # and from one prime histogram per degree, which reads (Q/P) as (P/Q)
    # from the smaller prime's table, against chi on every irreducible Q
    F = tower_field(p, *tower)
    symbols: dict = {}
    for d in range(1, max_degree + 1):
        for chars in conductor_groups(F, ell, d):
            primes = [P for P, _ in chars[0].exponent_map]
            for n in range(d):
                hist = symbol_histogram(primes, ell, n)
                assert sum(hist.values()) == F.q**n
                for chi in chars:
                    exponents = [e for _, e in chi.exponent_map]
                    got = project_counts(hist, exponents, ell)
                    assert got == _brute_value_counts(chi, n, symbols)
            for k in range(1, d):  # the degrees an Euler product reads
                hist = prime_symbol_histogram(primes, ell, k)
                for chi in chars:
                    exponents = [e for _, e in chi.exponent_map]
                    got = project_counts(hist, exponents, ell)
                    assert got == _brute_value_counts(chi, k, symbols, irreducibles(F, k))
