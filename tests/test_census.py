import gc
import hashlib
import json
import os

import pytest

from superell import InputError, InvariantViolation, ResourceLimit, make_field
from superell import census
from superell.census import (
    decomposition_check,
    family_experiment,
    model_from_char,
    run_census,
    seed_check,
    seed_model,
)
from superell.characters import DirichletChar, char_from_model
from superell.cyclo import galois_row
from superell.lfunction import (
    LCache,
    _canon,
    central_value_is_zero,
    l_polynomials,
    strip_trivial_factor,
)
from superell.cli import _dump_json, _write_out, main as cli_main
from superell.curves import SuperellipticModel, has_central_eigenvalue, zeta_numerator
from superell.oracle import conductor_groups, enumerate_order_ell, monics
from superell.polyring import Poly


def _answer(rep) -> dict:
    """The census report without its run-time fields."""
    out = rep.to_json()
    del out["runtime_stats"], out["cache"]
    return out


def test_census_small_counts_and_invariants(F7):
    rep = run_census(7, 1, 3, 2, sample_decomp=10)
    rows = {(r["degree"], r["count_A"]) for r in rep.per_degree}
    assert rows == {(1, 14), (2, 126)}
    assert rep.duality_ok
    assert rep.decomposition["sampled"] == 10 and rep.decomposition["all_match"]
    data = rep.to_json()
    assert data["schema_version"] == 1
    csv = rep.per_degree_csv()
    assert csv.splitlines()[0] == "degree,count_A,count_B"


def test_census_cache_warm_rerun_identical(tmp_path):
    path = str(tmp_path / "lcache.jsonl")
    cold = run_census(7, 1, 3, 2, sample_decomp=5, cache_path=path)
    warm = run_census(7, 1, 3, 2, sample_decomp=5, cache_path=path)
    assert warm.cache_stats["hits"] > 0
    a = _answer(cold)
    b = _answer(warm)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_census_cache_corruption_rebuilds(tmp_path):
    # the 7 conductors of degree 1 form one affine class, so the cache holds
    # one block, that of t with its 2 characters
    path = str(tmp_path / "lcache.txt")
    clean = run_census(7, 1, 3, 1, sample_decomp=2, cache_path=path)
    with open(path) as fh:
        header, *blocks = fh.read().splitlines(keepends=True)
    with open(path, "w") as fh:
        fh.write(header + "".join("ff" + block for block in blocks))
    rep = run_census(7, 1, 3, 1, sample_decomp=2, cache_path=path)
    assert rep.cache_stats.get("rebuilt") is True
    assert rep.cache_stats["bad_lines"] == rep.cache_stats["blocks"] == 1
    assert rep.cache_stats["misses"] == 2
    assert rep.runtime_stats["total_counts"]["affine_classes"] == 1
    assert _answer(rep) == _answer(clean)
    with open(path) as fh:
        assert fh.read().splitlines(keepends=True) == [header, *blocks]


def _reblock(body: str) -> str:
    """A block line whose checksum holds for the body."""
    return f"{hashlib.sha256(body.encode()).hexdigest()} {body}"


def test_census_cache_torn_line_rebuilds(tmp_path):
    path = str(tmp_path / "lcache.txt")
    clean = run_census(7, 1, 3, 2, sample_decomp=2, cache_path=path)
    # a crash during append leaves a partial last block
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 40)
    rep = run_census(7, 1, 3, 2, sample_decomp=2, cache_path=path)
    assert rep.cache_stats.get("rebuilt") is True
    assert _answer(rep) == _answer(clean)
    # only the torn block is dropped, so only the characters of its conductor
    # are computed again.  The blocks are the first conductors of the
    # classes: t, the prime t^2 + 1 and the last one, (t + 2)(t + 5), which
    # carries 4; the other conductors are served through their classes and
    # never looked up
    assert rep.cache_stats["bad_lines"] == 1
    assert rep.cache_stats["misses"] == 4
    assert rep.runtime_stats["total_counts"]["affine_classes"] == 1
    again = run_census(7, 1, 3, 2, sample_decomp=2, cache_path=path)
    assert again.cache_stats["misses"] == 0 and again.cache_stats["bad_lines"] == 0
    # a line that is not UTF-8 is a bad block too, not a crash
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe not a cache line\n")
    binary = run_census(7, 1, 3, 2, sample_decomp=2, cache_path=path)
    assert binary.cache_stats["bad_lines"] == 1 and binary.cache_stats["misses"] == 0
    assert _answer(binary) == _answer(clean)
    # a block whose checksum holds but whose body does not decode is bad too:
    # it is dropped and its conductor's characters computed again.  The first
    # two blocks are the conductors t and t^2 + 1, with 2 characters each.
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, forge in ((1, lambda ints: ints[:-1] + ["x"]), (2, lambda ints: ints[:-1])):
        lines[i] = _reblock(" ".join(forge(lines[i].split()[1:])))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    forged = run_census(7, 1, 3, 2, sample_decomp=2, cache_path=path)
    assert forged.cache_stats["bad_lines"] == 2 and forged.cache_stats["misses"] == 4
    assert forged.runtime_stats["total_counts"]["affine_classes"] == 2
    assert _answer(forged) == _answer(clean)


def test_census_partial_cache_matches_cold(tmp_path):
    # a class whose first conductor is partly or wholly served by the cache
    # still gives its later conductors their L-polynomials, and only the
    # first conductor's misses are computed: drop every second block, and
    # the first record of every block whose index is 1 mod 4
    path = str(tmp_path / "lcache.txt")
    cold = run_census(7, 1, 3, 3, sample_decomp=10, cache_path=path)
    full = LCache(path, make_field(7, 1), 3).table
    with open(path, encoding="utf-8") as fh:
        header, *blocks = fh.read().splitlines()
    kept, dropped = [], 0
    for n, line in enumerate(blocks):
        ints = line.split()[1:]
        r, c = int(ints[0]), int(ints[1])
        stride = 3 * r + 2 * c
        records = (len(ints) - 2) // stride
        if n % 2 == 0:
            dropped += records
        elif n % 4 == 1 and records > 1:
            kept.append(_reblock(" ".join(ints[:2] + ints[2 + stride:])))
            dropped += 1
        else:
            kept.append(line)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in [header, *kept]))
    rep = run_census(7, 1, 3, 3, sample_decomp=10, cache_path=path)
    assert rep.cache_stats["misses"] == dropped > 0
    assert _answer(rep) == _answer(cold)
    assert LCache(path, make_field(7, 1), 3).table == full


def test_census_runtime_counts(tmp_path):
    # a cold cache: the Euler product runs once per affine class
    # {c^-d f(ct + b)}, 70 classes for the 2,401 conductors at q = 7 and
    # d <= 4, and it reads one prime histogram per class and prime degree it
    # needs (about half the conductor degree).  The spot check recomputes by
    # monic sums, one histogram pass per degree below the conductor's, each
    # decomposition-sampled conductor whose L-polynomials this run computed
    # or read from its class, and in each degree the first conductor served
    # through a translation and the first served through a dilation that
    # twists an odd character: 1 + 5 + 5 + 8 conductors of degrees 1 to 4,
    # so 1 + 10 + 15 + 32 passes over 1 + 5 * 8 + 5 * 57 + 8 * 400 monics.
    # The sampled decompositions reuse the L-polynomials of their conductor,
    # with or without a cache
    make_field(7, 1)._cache.pop("factor_table", None)  # as in a fresh process
    cold = run_census(7, 1, 3, 4, sample_decomp=25, cache_path=str(tmp_path / "cold.jsonl"))
    total = cold.runtime_stats["total_counts"]
    assert total["conductors"] == 7 + 42 + 294 + 2058
    assert total["affine_classes"] == 1 + 2 + 10 + 57
    assert [cold.runtime_stats[f"degree_{d}_counts"]["affine_classes"]
            for d in (1, 2, 3, 4)] == [1, 2, 10, 57]
    assert total["factor_table_entries"] == 7 + 49 + 343 + 2401
    assert [cold.runtime_stats[f"degree_{d}_counts"]["factor_table_entries"]
            for d in (1, 2, 3, 4)] == [7, 49, 343, 2401]
    assert total["prime_histograms"] == 133
    assert total["primes_scanned"] == 2373
    assert total["histogram_passes"] == 1 + 10 + 15 + 32
    assert total["monics_scanned"] == 1 + 5 * 8 + 5 * 57 + 8 * 400
    assert total["generator_candidates"] >= total["symbol_tables_built"]
    assert total["walk_steps"] >= total["generator_candidates"]
    # a character object is built only where something reads one: the 316
    # characters on the first conductors of the 70 classes, 30 on the
    # route spot-checked conductors and 28 on the decomposition-sampled
    # ones.  The 252 vanishing characters are listed by their int_keys and
    # report objects, built from their primes, codes and exponents with no
    # character, and the other members of the classes get their
    # L-polynomials and decisions through the class maps
    assert total["characters_built"] == 316 + 30 + 28
    assert [cold.runtime_stats[f"degree_{d}_counts"]["characters_built"]
            for d in (1, 2, 3, 4)] == [4, 18, 56, 296]
    assert 10 * total["characters_built"] < sum(row["count_A"] for row in cold.per_degree)
    bare = run_census(7, 1, 3, 4, sample_decomp=25)
    for key in ("affine_classes", "characters_built", "prime_histograms", "primes_scanned",
                "histogram_passes", "monics_scanned"):
        assert bare.runtime_stats["total_counts"][key] == total[key]
    assert bare.runtime_stats["total_counts"]["factor_table_entries"] == 0  # table reused
    assert _answer(bare) == _answer(cold)
    # a warm run reads the first conductor of each of the 1 + 2 classes at
    # q = 7, d <= 2 from the cache, 2 + 2 + 4 characters, and serves the
    # other conductors through their classes, so it runs no Euler product
    # but the same route spot checks as a cold run: the first translation
    # of degree 1 (one pass) and the first translation and first odd twist
    # of degree 2 (two passes each).  The sampled even conductor is the
    # first of its class, read from the cache, so it is not recomputed.
    # With the symbol tables of the cold run gone, as in a fresh process, it
    # builds the tables of the two spot-checked degree-2 conductors, both
    # prime, and no other: the degree-1 check reads only the degree-0 pass
    path = str(tmp_path / "lcache.jsonl")
    run_census(7, 1, 3, 2, sample_decomp=2, cache_path=path)
    with open(path, "rb") as fh:
        filled = fh.read()
    make_field(7, 1)._cache.pop(("charctx", 3), None)
    warm_rep = run_census(7, 1, 3, 2, sample_decomp=2, cache_path=path)
    warm = warm_rep.runtime_stats
    assert warm_rep.cache_stats["blocks"] == 3
    assert (warm_rep.cache_stats["hits"], warm_rep.cache_stats["misses"]) == (8, 0)
    assert warm["total_counts"]["histogram_passes"] == 1 + 2 + 2
    assert warm["total_counts"]["monics_scanned"] == 1 + 2 * (1 + 7)
    assert warm["total_counts"]["prime_histograms"] == 0
    assert warm["total_counts"]["symbol_tables_built"] == 2
    assert warm["total_counts"]["affine_classes"] == 0
    assert warm["degree_2_counts"]["conductors"] == 42
    with open(path, "rb") as fh:
        assert fh.read() == filled


def test_census_counts_members_through_their_class(monkeypatch):
    # the walk reads the primes of the first conductor of each class only,
    # and a member is expanded to its primes only when one of its characters
    # vanishes or it is sampled or spot-checked; every other member is
    # counted through its class: at q = 7, d <= 4 that is 2,218 of the
    # 2,401 conductors, and the two add up to `conductors` in every degree
    from superell import census

    rows = dict.fromkeys(range(1, 5), 0)  # conductors whose primes the walk read
    expanded = set()  # (degree, index) of the members expanded
    walk, expand = census.squarefree_conductors, census._AffineClasses._expand

    def counted_walk(F, ell, d, skip=None):
        for row in walk(F, ell, d, skip):
            rows[d] += 1
            yield row

    def counted_expand(self, cls, i, m):
        expanded.add((self.degree, i))
        return expand(self, cls, i, m)

    monkeypatch.setattr(census, "squarefree_conductors", counted_walk)
    monkeypatch.setattr(census._AffineClasses, "_expand", counted_expand)
    rep = run_census(7, 1, 3, 4, sample_decomp=25)
    stats = rep.runtime_stats
    for d in range(1, 5):
        counts = stats[f"degree_{d}_counts"]
        visited = rows[d] + sum(1 for k, _ in expanded if k == d)
        assert counts["conductors_counted_by_class"] + visited == counts["conductors"], d
    assert sum(rows.values()) == stats["total_counts"]["affine_classes"] == 70
    assert stats["total_counts"]["conductors_counted_by_class"] == 2218


@pytest.mark.parametrize("wrong", ["not squarefree", "already counted", "missed"])
def test_census_partition_check_catches_a_wrong_conductor_map(wrong, monkeypatch):
    # the conductor-level maps send the last member of the second class of
    # degree 2 to t^2, which is not squarefree, or to the first conductor of
    # the degree; or the walk misses the one class of degree 1:
    # the classes no longer partition the squarefree monics of the degree,
    # and the census says which degree before anything reads the classes
    from superell import census
    from superell.polyring import affine_orbit

    firsts = []  # the first conductors of degree 2 so far

    def wrong_orbit(F, k, j):
        images = affine_orbit(F, k, j)
        if k == 2:
            firsts.append(j)
            if len(firsts) == 2 and wrong != "missed":
                images[-1] = 0 if wrong == "not squarefree" else firsts[0]
        return images

    walk = census.squarefree_conductors

    def missing_walk(F, ell, d, skip=None):
        if d > 1:
            yield from walk(F, ell, d, skip)

    monkeypatch.setattr(census, "affine_orbit", wrong_orbit)
    if wrong == "missed":
        monkeypatch.setattr(census, "squarefree_conductors", missing_walk)
    with pytest.raises(InvariantViolation) as err:
        run_census(7, 1, 3, 3, sample_decomp=0)
    assert err.value.invariant == "affine-partition"
    assert f"degree {1 if wrong == 'missed' else 2}:" in str(err.value)
    if wrong != "missed":
        assert wrong in str(err.value)


# (p, e, ell, n): q = 7 and 13; F_4, where p | deg lets a translation fix a
# conductor; ell = 5 over F_11 and over F_16 = 2^4, the smallest field of
# the theorem, with ell = 3 too
_CENSUS_FIELDS = [
    (7, 1, 3, 3), (2, 2, 3, 4), (13, 1, 3, 3), (11, 1, 5, 2), (2, 4, 3, 3), (2, 4, 5, 3),
]


@pytest.mark.parametrize("p, e, ell, n", _CENSUS_FIELDS)
def test_census_cached_l_polynomials_match_their_conductors(p, e, ell, n, tmp_path, monkeypatch):
    # every L a census gives a character, cold and warm, equals the Euler
    # product of its own conductor, whose characters are built here by the
    # checking constructor: a first conductor's as `_l_polys_cached` hands
    # them out, and every member's as its class gives them, most of them
    # never read by the run; a member's primes multiply to its own
    # conductor.  The cache holds one block per class the cold run
    # computed, and only the characters of those blocks' conductors
    from superell import census

    through_cache = census._l_polys_cached
    handed = []  # (degree, index, characters as handed out, their L-polynomials)

    def recorded(j, primes, codes, assignments, cache, classes):
        out = through_cache(j, primes, codes, assignments, cache, classes)
        chars, Ls, _, cls = out
        # the codes are the primes' (degree, index) pairs
        assert [chi.int_key() for chi in chars] == [
            tuple(v for (k, i), x_i in zip(codes, x) for v in (k, i, x_i)) for x in assignments
        ]
        handed.append((classes.degree, j, chars, Ls))
        for i, m in cls.members.items():
            handed.append((classes.degree, i, *classes.member(cls, i, m)))
        return out

    monkeypatch.setattr(census, "_l_polys_cached", recorded)
    path = str(tmp_path / "lcache.txt")
    F = make_field(p, e)
    expected: dict = {}  # int_key -> l_polynomials of its own conductor
    for run in ("cold", "warm"):
        handed.clear()
        rep = run_census(p, e, ell, n, sample_decomp=0, cache_path=path)
        checked = 0
        for d, i, handed_chars, Ls in handed:
            primes = [P for P, _ in handed_chars[0].exponent_map]
            product = Poly.one(F)
            for P in primes:
                product = product * P
            assert product == Poly.from_index(F, d, i), (run, d, i)
            chars = [DirichletChar(F, ell, chi.exponent_map) for chi in handed_chars]
            assert [chi.int_key() for chi in chars] == [chi.int_key() for chi in handed_chars]
            if chars[0].int_key() not in expected:
                expected.update((chi.int_key(), L) for chi, L in zip(chars, l_polynomials(chars)))
            assert len(Ls) == len(chars)
            for chi, L in zip(chars, Ls):
                assert L == expected[chi.int_key()], (run, chi)
                checked += 1
        assert checked == sum(row["count_A"] for row in rep.per_degree)
        if run == "cold":
            classes = rep.runtime_stats["total_counts"]["affine_classes"]
        else:
            assert rep.cache_stats["misses"] == 0
            assert rep.runtime_stats["total_counts"]["affine_classes"] == 0
    cache = LCache(path, F, ell)
    assert cache.blocks == classes == rep.cache_stats["blocks"]
    assert len(cache.table) == rep.cache_stats["hits"] < checked
    assert all(L == expected[key] for key, L in cache.table.items())


@pytest.mark.parametrize("p, e, ell, n", _CENSUS_FIELDS)
def test_census_vanishing_matches_a_character_by_character_decision(p, e, ell, n):
    # the census decides most characters through their affine class's
    # match, with no character built; the oracle builds every character with
    # the checking constructor, computes its L from its own conductor, and
    # strips and tests it alone: the vanishing lists agree degree by degree
    rep = run_census(p, e, ell, n, sample_decomp=0)
    F = make_field(p, e)
    for row in rep.per_degree:
        expected = []
        for group in conductor_groups(F, ell, row["degree"]):
            chars = [DirichletChar(F, ell, chi.exponent_map) for chi in group]
            for chi, L in zip(chars, l_polynomials(chars)):
                if central_value_is_zero(strip_trivial_factor(L, chi)[0]):
                    expected.append(chi.to_json())
        assert row["vanishing"] == expected, row["degree"]
        assert row["count_B"] == len(expected)


def test_census_spot_check_catches_a_wrong_euler_result(monkeypatch):
    # conjugated coefficients are the L of the dual character: they keep the
    # degree law, the trivial factor, duality and every zeta/L product, so
    # only the recomputation by monic sums can tell
    from superell import census
    from superell.lfunction import LPoly

    def conjugated(chars):
        return [LPoly(L.ell, L.q, [galois_row(row, -1) for row in L.rows])
                for L in l_polynomials(chars)]

    monkeypatch.setattr(census, "l_polynomials", conjugated)
    with pytest.raises(InvariantViolation) as err:
        run_census(7, 1, 3, 3, sample_decomp=10)
    assert err.value.invariant == "euler-product"


def test_census_spot_check_catches_a_wrong_translation(monkeypatch):
    # every prime sent to the translate of the next prime of its degree: the
    # classes no longer hold translates, and only the recomputation of each
    # degree's first conductor served through a translation, by monic sums,
    # can tell
    from superell import census
    from superell.polyring import affine_maps, factor_table

    def shifted(F, k):
        shifts, scales = affine_maps(F, k)
        primes = list(factor_table(F).level(k).primes)
        after = {j: primes[(i + 1) % len(primes)] for i, j in enumerate(primes)}
        return shifts[:1] + tuple(lambda j, b=b: b(after[j]) for b in shifts[1:]), scales

    monkeypatch.setattr(census, "affine_maps", shifted)
    with pytest.raises(InvariantViolation) as err:
        run_census(7, 1, 3, 3, sample_decomp=10)
    assert err.value.invariant == "euler-product"


@pytest.mark.parametrize("p, e, n", [(7, 1, 3), (19, 1, 2), (2, 4, 3)])
def test_census_route_checks_read_the_first_translation_and_twist(p, e, n, monkeypatch):
    # with no decomposition sample, a member is expanded to its characters
    # and L-polynomials only for the route checks of its degree: the member
    # of least index reached through a translation (m < q), and the one of
    # least index reached through a dilation c with z_c != 0 whose class has
    # an odd character, each with the first m that reaches it.  At q = 19,
    # d = 2 a dilation by a cube, z_c = 0, reaches a member of lower index
    from superell import census
    from superell.ffield import power_classes

    F = make_field(p, e)
    q, twists = F.q, power_classes(F, 3)
    classes_of = {}  # degree -> [class] in registration order
    checked = []  # (degree, index, m) of the members read
    register, member = census._AffineClasses.register, census._AffineClasses.member

    def recorded_register(self, *args):
        cls = register(self, *args)
        classes_of.setdefault(self.degree, []).append(cls)
        return cls

    def recorded_member(self, cls, i, m):
        checked.append((self.degree, i, m))
        return member(self, cls, i, m)

    monkeypatch.setattr(census._AffineClasses, "register", recorded_register)
    monkeypatch.setattr(census._AffineClasses, "member", recorded_member)
    run_census(p, e, 3, n, sample_decomp=0)
    for d, classes in classes_of.items():
        reached = [(i, m, cls) for cls in classes for i, m in cls.members.items()]
        expected = set()
        translations = [(i, m) for i, m, _ in reached if m < q]
        twisting = [(i, m) for i, m, cls in reached
                    if m >= q and twists[1 + m // q] and any(cls.dsums)]
        for found in (translations, twisting):
            if found:
                expected.add((d, *min(found)))
        assert {c for c in checked if c[0] == d} == expected, d
        assert d == 1 or len(expected) == 2


def test_census_spot_check_catches_a_wrong_twist(monkeypatch):
    # an odd character on c^-d f(ct) has the L of its class's character
    # rescaled by zeta^(-z_c D); with the sign flipped the L keeps its
    # degree, parity and trivial factor, and with no decomposition sample
    # only the recomputation of each degree's first conductor served through
    # a twisting dilation, by monic sums, can tell
    from superell import census
    from superell.lfunction import rescale_by_root

    monkeypatch.setattr(census, "rescale_by_root", lambda L, k: rescale_by_root(L, -k))
    with pytest.raises(InvariantViolation) as err:
        run_census(7, 1, 3, 3, sample_decomp=0)
    assert err.value.invariant == "euler-product"


def test_census_duality_check_fires(monkeypatch):
    # one stripped L that is not its own conjugate vanishes; the duals of its
    # characters have the conjugate L, decided from its own rows, so they do
    # not vanish.  Every distinct (L, parity, degree) is decided once
    from superell import census

    F7 = make_field(7, 1)
    distinct = {
        (L.rows, chi.even, chi.degree)
        for d in (1, 2)
        for chars in conductor_groups(F7, 3, d)
        for chi, L in zip(chars, l_polynomials(chars))
    }
    faulty = []
    calls = []

    def one_vanishes(L):
        calls.append(L)
        if not faulty and L.rows != tuple(galois_row(row, -1) for row in L.rows):
            faulty.append(L)
        return L == faulty[0] if faulty else False

    monkeypatch.setattr(census, "central_value_is_zero", one_vanishes)
    with pytest.raises(InvariantViolation) as err:
        run_census(7, 1, 3, 2, sample_decomp=0)
    assert err.value.invariant == "duality"
    assert faulty and faulty[0].degree == 1  # an odd character of degree 2
    assert len(calls) == len(distinct) > 2


def test_model_from_char_roundtrip(F7):
    for chi in enumerate_order_ell(F7, 3, 2):
        model = model_from_char(chi)
        assert model.normalized == chi.even
        from superell import char_from_model

        assert char_from_model(model) == chi


def _char_and_l_polys(model):
    """The model's character and L(u, chi^j) for j = 1..ell-1."""
    chi = char_from_model(model)
    return chi, l_polynomials([chi.power(j) for j in range(1, model.ell)])


def test_decomposition_check_requires_normalized(F7):
    t = Poly.x(F7)
    odd_model = SuperellipticModel(3, F7, F7.one(), (t, Poly.one(F7)))
    with pytest.raises(InputError):
        decomposition_check(odd_model, *_char_and_l_polys(odd_model))


def test_decomposition_check_twisted_models(F7):
    t = Poly.x(F7)
    for ci in (2, 3):
        m = SuperellipticModel(3, F7, F7.elem_at(ci), (t**3 - t, Poly.one(F7)))
        assert decomposition_check(m, *_char_and_l_polys(m))


def test_decomposition_check_fails_on_wrong_l_polynomials(F7):
    # the identity holds with the L-polynomials of the model's own
    # character and fails with those of an even character of the same
    # conductor degree whose curve has another zeta numerator, or with
    # L(chi) in place of L(chi^2)
    models = [model_from_char(chi) for chi in enumerate_order_ell(F7, 3, 3)
              if chi.even and chi.degree == 3]
    model = models[0]
    chi, ls = _char_and_l_polys(model)
    _, other = _char_and_l_polys(
        next(m for m in models if zeta_numerator(m) != zeta_numerator(model))
    )
    assert decomposition_check(model, chi, ls)
    assert not decomposition_check(model, chi, other)
    assert not decomposition_check(model, chi, [ls[0], ls[0]])


def test_census_decomposition_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(census, "decomposition_check", lambda model, chi, l_polys: False)
    with pytest.raises(InvariantViolation) as err:
        run_census(7, 1, 3, 2, sample_decomp=3)
    assert err.value.invariant == "zeta-decomposition"
    assert cli_main(["census", "--p", "7", "--ell", "3", "--max-degree", "2"]) == 2
    assert json.loads(capsys.readouterr().err)["invariant"] == "zeta-decomposition"


def test_census_builds_no_character_from_a_model(tmp_path, monkeypatch):
    # the sampled decompositions read the character the census built the
    # model from, so no census factors a model's components, cold or warm
    # (the round trip itself: test_model_from_char_roundtrip)
    from superell import characters, polyring

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(census, "char_from_model", counted("char_from_model", char_from_model))
    monkeypatch.setattr(characters, "char_from_model",
                        counted("char_from_model", char_from_model))
    for module in (polyring, characters, census):
        if getattr(module, "factor", None) is polyring.factor:
            monkeypatch.setattr(module, "factor", counted("factor", polyring.factor))
    path = str(tmp_path / "lcache")
    cold = run_census(7, 1, 3, 4, sample_decomp=25, cache_path=path)
    warm = run_census(7, 1, 3, 4, sample_decomp=25, cache_path=path)
    assert cold.decomposition == warm.decomposition == {"sampled": 25, "all_match": True}
    assert warm.cache_stats["misses"] == 0
    assert calls == []


def test_seed_check_thm41():
    rep = seed_check("thm41", 5)
    assert all(rep.verdicts.values())
    data = rep.to_json()
    assert data["P_E"]["coeffs"] == ["1", "0", "5"]
    assert data["P_E_base4"]["coeffs"] == ["1", "-50", "625"]
    with pytest.raises(InputError):
        seed_check("thm41", 7)  # 7 = 1 mod 3


def test_seed_check_thm42_small():
    rep = seed_check("thm42", 5, ell=3)
    assert rep.data["genus"] == 1
    assert all(rep.verdicts.values())
    with pytest.raises(InputError):
        seed_check("thm42", 7, ell=5)  # 7 != -1 mod 5


def test_seed_check_f25twist():
    rep = seed_check("f25twist", 5)
    assert rep.verdicts["found"]
    assert rep.data["traces"] == [-10, -5, -5, 5, 5, 10]
    found = rep.data["found"]
    F25 = make_field(5, 2)
    model = SuperellipticModel.from_json(F25, found)
    assert zeta_numerator(model).coeffs == (1, -10, 25)
    assert has_central_eigenvalue(zeta_numerator(model))


def test_seed_model_f25twist():
    m = seed_model("f25twist", 5)
    assert m.field.q == 25 and m.normalized
    # the model the twist search found, not one rebuilt from its report
    assert m.to_json() == seed_check("f25twist", 5).data["found"]


def test_family_experiment_vacuous():
    out = family_experiment("f25twist", 2, p=5)
    assert out["vacuous"] and out["distinct_models"] == 0


def test_family_experiment_thm41_base_member():
    out = family_experiment(
        "thm41",
        3,
        p=5,
        verify_vanishing=True,
        max_pairs_per_degree=1,
        max_members_per_degree=1,
    )
    assert out["distinct_models"] == 1
    entry = out["verification"][0]
    assert entry["divides"] and entry["central_eigenvalue"] and entry["l_central_zero"]
    assert out["all_verified"]


def test_unknown_seed_kind():
    with pytest.raises(InputError):
        seed_check("nope", 5)
    with pytest.raises(InputError):
        seed_model("nope", 5)
    with pytest.raises(InputError):
        seed_check("thm42", 19)  # missing ell


# -- CLI ------------------------------------------------------------------------------


def test_cli_census_json_and_csv(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = cli_main(["census", "--p", "7", "--ell", "3", "--max-degree", "1",
                   "--sample-decomp", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["per_degree"][0]["count_A"] == 14
    out_csv = tmp_path / "rep.csv"
    rc = cli_main(["census", "--p", "7", "--ell", "3", "--max-degree", "1",
                   "--sample-decomp", "0", "--out", str(out_csv)])
    assert rc == 0
    assert out_csv.read_text().startswith("degree,count_A,count_B")


def test_cli_seed_check(capsys):
    rc = cli_main(["seed-check", "--kind", "thm41", "--p", "5"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdicts"]["a_p_zero"] is True


def test_cli_family(tmp_path):
    out = tmp_path / "fam.json"
    rc = cli_main(["family", "--seed-kind", "f25twist", "--p", "5", "--n", "3",
                   "--max-pairs-per-degree", "30", "--max-members-per-degree", "5",
                   "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["distinct_models"] >= 1
    assert all(v["divides"] for v in data["verification"])


def test_cli_density(capsys):
    rc = cli_main(["density", "--p", "7", "--ell", "3",
                   "--components", "[[0,6,0,1],[1]]", "--deg-max", "1",
                   "--samples", "200", "--seed", "3"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["empirical"]["samples"] == 200
    assert int(data["truncated_product"]["den"]) > 0


def test_cli_density_of_a_linear_form(capsys):
    # y^3 = t: the linear form F = u, once counted by a brute force over the
    # |pi|^4 pairs of each of the 21 degree-2 primes; F(u, v) = 0 mod pi^2
    # exactly when u = 0, with v free, so c_pi = |pi|^2
    rc = cli_main(["density", "--p", "7", "--ell", "3", "--components", "[[0,1],[1]]",
                   "--deg-max", "2", "--samples", "10"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert [f["c"] for f in data["factors"]] == [7**2] * 7 + [7**4] * 21


def test_cli_lpoly(capsys, F7):
    rc = cli_main(["lpoly", "--p", "7", "--ell", "3",
                   "--conductor-factors", "[[[0,1],1],[[6,1],2]]"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["even"] is True
    assert data["trivial_factor_exponent"] == 0
    t = Poly.x(F7)
    chi = DirichletChar(F7, 3, [(t, 1), (t - Poly.one(F7), 2)])
    # the report's character is chi's JSON, byte for byte once canonical
    expected = '{"ell":3,"factors":[[[0,1],1],[[6,1],2]],"field":{"moduli":[],"p":7,"tower":[]}}'
    assert _canon(data["char"]) == _canon(chi.to_json()) == expected
    assert "char" not in data["L"] and "char" not in data["stripped"]
    assert set(data["L"]) == {"q", "ell", "coeffs"}


def test_cli_exit_codes(capsys):
    assert cli_main(["lpoly", "--p", "6", "--ell", "3", "--conductor-factors", "[[[0,1],1]]"]) == 2
    assert cli_main(["census", "--p", "7", "--ell", "3", "--max-degree", "12"]) == 3


_FAMILY = ["family", "--seed-kind", "f25twist", "--p", "5", "--n", "3"]
_DENSITY = ["density", "--p", "7", "--deg-max", "1"]
_TRIGONAL = ["--ell", "3", "--components", "[[0,6,0,1],[1]]"]
_CENSUS1 = ["census", "--p", "7", "--ell", "3", "--max-degree", "1"]
_LPOLY = ["lpoly", "--p", "7", "--ell", "3", "--conductor-factors", "[[[0,1],1]]"]
_THM42 = ["seed-check", "--kind", "thm42", "--p", "5"]


@pytest.mark.parametrize(
    "argv, env, named",
    [
        (["census", "--p", "7", "--ell", "3", "--max-degree", "0"], {}, "max_degree"),
        (["lpoly", "--p", "7", "--ell", "3", "--conductor-factors", "[[[0,1],1]"], {},
         "--conductor-factors"),
        (_DENSITY + ["--ell", "3", "--components", "[[0,6,0,1],"], {}, "--components"),
        (_DENSITY + ["--base", "{not json"], {}, "--base"),
        (_FAMILY + ["--max-pairs-per-degree", "{1: 30}"], {}, "--max-pairs-per-degree"),
        (_FAMILY + ["--max-members-per-degree", '{"1": 5'], {}, "--max-members-per-degree"),
        (_FAMILY + ["--max-members-per-degree", "five"], {}, "--max-members-per-degree"),
        (["census", "--p", "7", "--ell", "3", "--max-degree", "1"],
         {"SUPERELL_LIMIT_CENSUS": "abc"}, "SUPERELL_LIMIT_CENSUS"),
        (["seed-check", "--kind", "thm41", "--p", "5"],
         {"SUPERELL_ZECH_LIMIT": "1e9"}, "SUPERELL_ZECH_LIMIT"),
        (["seed-check", "--kind", "thm41", "--p", "5"],
         {"SUPERELL_ZECH_LIMIT": ""}, "SUPERELL_ZECH_LIMIT"),
        (["lpoly", "--p", "7", "--ell", "3", "--conductor-factors", "[1]"], {},
         "--conductor-factors"),
        (_DENSITY + ["--base", "[1]"], {}, "--base"),
        (_DENSITY + ["--ell", "3", "--components", "[1]"], {}, "--components"),
        (["lpoly", "--p", "7", "--ell", "3", "--conductor-factors", "[[[1,0,0,0,1],1]]"], {},
         "--conductor-factors"),
        (_DENSITY + _TRIGONAL + ["--h-deg", "-1", "--samples", "5"], {}, "--h-deg"),
        (_DENSITY + _TRIGONAL + ["--samples", "-3"], {}, "--samples"),
        (["density", "--p", "7", "--deg-max", "-1"] + _TRIGONAL, {}, "--deg-max"),
        (_FAMILY + ["--max-pairs-per-degree", '{"1": "x"}'], {}, "--max-pairs-per-degree"),
        (_FAMILY + ["--max-pairs-per-degree", '{"1": true}'], {}, "--max-pairs-per-degree"),
        (_FAMILY + ["--max-pairs-per-degree", '{"1": -2}'], {}, "--max-pairs-per-degree"),
        (_FAMILY + ["--max-members-per-degree", "-1"], {}, "--max-members-per-degree"),
        (["census", "--p", "7", "--ell", "3", "--max-degree", "1", "--sample-decomp", "-1"], {},
         "--sample-decomp"),
        # user-supplied paths that cannot be opened
        (_CENSUS1 + ["--cache", "/nonexistent/dir/x.jsonl"], {}, "--cache"),
        (_CENSUS1 + ["--cache", "."], {}, "--cache"),
        (_CENSUS1 + ["--out", "/nonexistent/x.json"], {}, "--out"),
        (_CENSUS1 + ["--out", "."], {}, "--out"),
        (_FAMILY + ["--out", "/nonexistent/x.json"], {}, "--out"),
        (_DENSITY + _TRIGONAL + ["--out", "/nonexistent/x.json"], {}, "--out"),
        (_LPOLY + ["--out", "/nonexistent/x.json"], {}, "--out"),
        (_DENSITY + ["--base", "@/nonexistent.json"], {}, "--base"),
        (_DENSITY + ["--base", "@."], {}, "--base"),
        # an F_25 coefficient is a vector of two F_5 digits
        (["lpoly", "--p", "5", "--e", "2", "--ell", "3", "--conductor-factors",
          "[[[[1,2,3],1],1]]"], {}, "GF(5^2) takes 2 coefficients, got 3"),
        # the thm42 seed needs an odd prime ell
        (_THM42 + ["--ell", "0"], {}, "odd prime ell, got 0"),
        (_THM42 + ["--ell", "1"], {}, "odd prime ell, got 1"),
        (_THM42 + ["--ell", "-1"], {}, "odd prime ell, got -1"),
        (_THM42 + ["--ell", "2"], {}, "odd prime ell, got 2"),
        (_THM42 + ["--ell", "9"], {}, "odd prime ell, got 9"),
        # L-cache files this census cannot use (`_unusable_caches`)
        (_CENSUS1 + ["--cache", "v1.jsonl"], {}, "--cache"),
        (_CENSUS1 + ["--cache", "f13.lcache"], {}, "--cache"),
        (_CENSUS1 + ["--cache", "ell5.lcache"], {}, "--cache"),
        (_CENSUS1 + ["--cache", "garbled.lcache"], {}, "--cache"),
        (_CENSUS1 + ["--cache", "huge.lcache"], {}, "--cache"),
        (_CENSUS1 + ["--cache", "v2.lcache"], {}, "--cache"),
        # a negative n once gave the empty family and exit 0
        (_FAMILY[:-1] + ["-3"], {}, "n (--n) must be at least 0, got -3"),
        # each seed's requirement on p: at p = 2 the thm42 model's x - 2 is
        # x, which once failed as "components must be squarefree ..."
        (_THM42[:-1] + ["2", "--ell", "3"], {},
         "thm42 seed needs an odd prime p = 2 mod 3, got p = 2"),
        (_THM42[:-1] + ["7", "--ell", "3"], {},
         "thm42 seed needs an odd prime p = 2 mod 3, got p = 7"),
        (_THM42[:-1] + ["3", "--ell", "5"], {},
         "thm42 seed needs an odd prime p = 4 mod 5, got p = 3"),
        (["seed-check", "--kind", "f25twist", "--p", "2"], {},
         "f25twist seed needs an odd prime p = 2 mod 3, got p = 2"),
    ],
)
def test_cli_bad_input_exits_2(argv, env, named, monkeypatch, capsys, tmp_path):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    caches = _unusable_caches()
    for name, text in caches.items():
        (tmp_path / name).write_text(text)
    assert cli_main(argv) == 2
    assert named in capsys.readouterr().err
    # a cache file the census cannot use is left as it was
    for name, text in caches.items():
        assert (tmp_path / name).read_text() == text


def _unusable_caches() -> dict:
    """L-cache files by name that a census over F_7 with ell = 3 refuses: a
    version-1 file, a version-2 file (a block per conductor), headers for
    another field or ell (one of a field far too large to build), and a
    header that does not parse."""
    def header(F, ell, version=3):
        return _canon({"ell": ell, "field": F.descriptor(),
                       "format": "superell-lcache", "version": version}) + "\n"

    block = _reblock("1 1 1 0 1 1 0") + "\n"  # the character on t, exponent 1: L = 1
    return {
        "v1.jsonl": '{"checksum":"' + "0" * 64 + '","key":"{}","value":{}}\n',
        "v2.lcache": header(make_field(7, 1), 3, version=2) + block,
        "f13.lcache": header(make_field(13, 1), 3) + block,
        "ell5.lcache": header(make_field(7, 1), 5) + block,
        "garbled.lcache": '{"ell":3,"field":\n' + block,
        # a field of 7^(10^12) elements: refused before its size is used
        "huge.lcache": header(make_field(7, 1), 3).replace('"tower":[]', '"tower":[1000000000000]')
        + block,
    }


def test_cli_census_limit_names_its_variable(monkeypatch, capsys):
    monkeypatch.setenv("SUPERELL_LIMIT_CENSUS", "10")
    # the Euler product of the prime conductor P = t^3 - 2 lists the 7
    # primes Q of degree 1 among the 7 monics of degree 1 and reads each
    # (P/Q) from Q's table of 7 entries, at the residue of P through a map of
    # Q's with two tables of 7^2 entries: 7 + 7 (7 + 2 * 49) = 742
    argv = ["lpoly", "--p", "7", "--ell", "3", "--conductor-factors", "[[[5,0,0,1],1]]"]
    assert cli_main(argv) == 3
    err = capsys.readouterr().err
    assert "SUPERELL_LIMIT_CENSUS >= 742" in err


def test_cli_point_count_limit_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("SUPERELL_ZECH_LIMIT", "10")
    assert cli_main(["seed-check", "--kind", "thm41", "--p", "5"]) == 3
    assert "SUPERELL_ZECH_LIMIT >= 25" in capsys.readouterr().err


def test_cli_point_count_over_a_tower_below_its_limit_exits_3(monkeypatch, capsys):
    # F_25 keeps its own log tables; a limit one below q still refuses the count
    monkeypatch.setenv("SUPERELL_ZECH_LIMIT", "24")
    assert cli_main(_FAMILY + ["--max-members-per-degree", "1"]) == 3
    assert "SUPERELL_ZECH_LIMIT >= 25" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, work",
    [
        (_FAMILY, ["family_experiment"]),
        (_DENSITY + _TRIGONAL + ["--samples", "5"], ["product_form", "empirical_density"]),
        (_LPOLY, ["l_polynomial"]),
    ],
)
def test_cli_csv_out_refused_before_the_work(argv, work, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the report was computed")

    for name in work:
        monkeypatch.setattr(f"superell.cli.{name}", never)
    out = tmp_path / "report.csv"
    assert cli_main(argv + ["--out", str(out)]) == 2
    assert "this report has no CSV form" in capsys.readouterr().err
    assert not out.exists()


def test_cli_density_limit_names_its_variable(monkeypatch, capsys):
    # the degree-2 primes of the truncated product need all 7^2 monics
    F7 = make_field(7, 1)
    for built in ("factor_table", "irreducibles"):
        F7._cache.pop(built, None)
    monkeypatch.setenv("SUPERELL_LIMIT_CENSUS", "10")
    argv = ["density", "--p", "7", "--ell", "3", "--components", "[[0,6,0,1],[1]]",
            "--deg-max", "2", "--samples", "100"]
    assert cli_main(argv) == 3
    assert "SUPERELL_LIMIT_CENSUS >= 49" in capsys.readouterr().err
    with pytest.raises(ResourceLimit, match="SUPERELL_LIMIT_CENSUS >= 49"):
        next(monics(F7, 2))


@pytest.mark.slow
def test_census_f25_degree3_includes_seed_vanishing():
    rep = run_census(5, 2, 3, 3, sample_decomp=5)
    counts = {r["degree"]: r["count_A"] for r in rep.per_degree}
    assert counts == {1: 50, 2: 1800, 3: 58800}
    assert rep.duality_ok
    # the trivial-twist quadratic-partner conductors of the f25twist seed live
    # at degree 3; the census flags some vanishing conductor there
    assert rep.per_degree[2]["count_B"] > 0


@pytest.mark.slow
def test_census_f16_degree5_builds_each_symbol_table_once():
    # the paper-scale reference run: 5.86M characters over F_16, one symbol
    # table per monic irreducible of degree <= 3
    rep = run_census(2, 4, 3, 5)
    assert rep.per_degree[4]["count_A"] == 5551200
    assert rep.per_degree[4]["count_B"] == 274880
    assert rep.runtime_stats["total_counts"]["symbol_tables_built"] == 16 + 120 + 1360


def test_vanishing_characters_confirmed_by_zeta_route(F7):
    """Central vanishing found by character sums must be visible as a central
    eigenvalue of the corresponding curve, counted independently.  For models
    ramified at infinity the unstripped product L(chi) L(chi-bar) is the full
    numerator."""
    from superell.lfunction import l_polynomial

    rep = run_census(7, 1, 3, 3, sample_decomp=0)
    vanishing = rep.per_degree[2]["vanishing"]
    assert vanishing, "the degree-3 census is expected to contain vanishing characters"
    from superell import DirichletChar

    for data in vanishing[:4]:
        chi = DirichletChar.from_json(F7, data)
        model = model_from_char(chi)
        P = zeta_numerator(model)
        assert has_central_eigenvalue(P)
        if not chi.even:
            prod = l_polynomial(chi) * l_polynomial(chi.dual())
            assert list(prod.rows) == [(c, 0) for c in P.coeffs]  # integers, ell = 3


def test_census_count_formula_other_fields():
    # count-only agreement between enumeration and the generating series
    from superell import count_order_ell_exact, enumerate_order_ell

    F13 = make_field(13, 1)
    by_deg: dict = {}
    for chi in enumerate_order_ell(F13, 3, 3):
        by_deg[chi.degree] = by_deg.get(chi.degree, 0) + 1
    assert by_deg == {d: count_order_ell_exact(13, 3, d) for d in (1, 2, 3)}
    F25 = make_field(5, 2)
    by_deg = {}
    for chi in enumerate_order_ell(F25, 3, 2):
        by_deg[chi.degree] = by_deg.get(chi.degree, 0) + 1
    assert by_deg == {1: 50, 2: count_order_ell_exact(25, 3, 2)}


class _RecordingFile:
    def __init__(self):
        self.writes: list = []

    def write(self, text: str) -> None:
        self.writes.append(text)


def test_write_out_is_json_dump(tmp_path, capsys):
    # several 64 KiB write batches, with unicode, floats and nulls
    payload = {"b": [{"x": i, "y": [f"ζ{i}"] * 3, "z": i / 7} for i in range(4000)], "a": None}
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert len(expected) > 3 * (1 << 16)
    _write_out(payload, str(tmp_path / "r.json"))
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == expected
    _write_out(payload, None)
    assert capsys.readouterr().out == expected
    # batches of about 64 KiB: none is larger than 64 KiB and one leaf (its
    # line, and the brackets it closes), and the report is never one write
    fh = _RecordingFile()
    _dump_json(payload, fh)
    assert "".join(fh.writes) == expected
    leaf = max(map(len, expected.splitlines())) + 1
    assert len(fh.writes) > 3
    assert max(map(len, fh.writes)) <= (1 << 16) + 2 * leaf


def test_run_census_pauses_the_collector_and_restores_it(monkeypatch):
    collections = []

    def hook(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.callbacks.append(hook)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            run_census(7, 1, 3, 3)
            assert gc.isenabled() is enabled
        assert collections == []
        # the hook does see the collections an allocation burst triggers
        gc.enable()
        junk = [[] for _ in range(20 * gc.get_threshold()[0])]
        assert collections and junk
        # a census refused after the pause began restores the state too
        monkeypatch.setenv("SUPERELL_LIMIT_CENSUS", "10")
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(ResourceLimit):
                run_census(7, 1, 3, 3)
            assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was_enabled else gc.disable)()
