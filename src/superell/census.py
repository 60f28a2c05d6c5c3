"""Orchestration: full censuses of order-ell characters with exact central
vanishing decisions, seed-curve checks, family experiments, and reporting.

A census enumerates every primitive order-ell character with conductor degree
up to n, realised as exponent assignments over squarefree monic conductors
(equivalently, component tuples of superelliptic models with trivial twist),
computes each L-polynomial exactly, strips the trivial factor of even
characters, and decides vanishing at the central point.  Per-degree character
counts are asserted against the generating-series coefficients; vanishing
counts are reported, never asserted, since no formula for them is known.
The L-polynomials come from Euler products (`lfunction.l_polynomials`), once
per affine class {sigma_c(f(t + b)) : c in F_q^*, b in F_q} of conductors,
where sigma_c(g) = c^-deg g g(ct).  The maps g -> g(t + b) and g -> g(ct) are
F_q-algebra automorphisms of F_q[t] that keep degree, and residue symbols
are constants, so (phi g / phi P) = phi((g/P)) = (g/P) for either map phi:
the character chi' with exponents e_i on the primes sigma_c(P_i(t + b))
takes at phi(g) the value chi takes at g, chi having exponents e_i on the
P_i.  A translation keeps monics monic, so L(u, chi') = L(u, chi).  A
dilation sends the monic g of degree n to c^n sigma_c(g), and a constant c
has (c/P) = zeta^(z_c deg P), where c^((q - 1)/ell) = zeta^z_c; so chi'
sums to zeta^(-n z_c D) times chi over the monics of degree n,
D = sum e_i deg P_i, and L(u, chi') = L(zeta^(-z_c D) u, chi)
(`lfunction.rescale_by_root`).  An even character has D = 0 mod ell and
shares L unchanged (Rosen, Number Theory in Function Fields, ch. 4).  So
the first conductor of a class computes its L-polynomials, and its members,
the indices that the degree-d maps of `polyring.affine_orbit` take its own
index to, are marked and counted with no row, character or match: the walk
(`characters.squarefree_conductors`) passes a marked index over before it
reads its primes.  The marks must partition the squarefree monics of each
degree (no index marked twice, none that is not squarefree), or
InvariantViolation names the degree; count_A, summed over the classes, stays
asserted against `count_order_ell_exact`.  Every decomposition-sampled
conductor whose L-polynomials the run computed or read from its class
(rather than from the cache), and in each degree the first member reached
through a translation and the first reached through a dilation that twists
an odd character, is recomputed by monic character sums, and a mismatch
raises InvariantViolation.

The census builds a `DirichletChar` only where something reads one: every
character of the first conductor of a class (the Euler route and the
L-cache keys), and of the spot-checked and decomposition-sampled
conductors.  A vanishing character is listed by its `int_key` and its
report object, both built from its primes, codes and exponents
(`characters.char_key`, `characters.char_json`).  Stripping, the degree law
and the central test read only the L-polynomial, the parity and the
conductor degree, so they run once per distinct (L, parity, degree) of a
degree.  A member of a class has the parity and degree of the class
character whose L it shares, so a class decides its L-polynomials once per
twist class z_c.  A member is expanded to its primes, the images of the
class's primes under P -> sigma_c(P(t + b)) (the index maps of
`polyring.affine_maps`), only where something reads it: when one of its
characters vanishes, or it is sampled or spot-checked (`_AffineClasses`).
The vanishing characters are sorted into canonical order at the end of the
degree.  The duality check stays independent: the dual of chi has the
conjugate L, decided from its own coefficients, and its key is looked up
among the vanishing characters' `int_key`s.

All list outputs are sorted by (conductor degree, canonical conductor order,
exponent assignment); reruns with a warm cache are bit-identical apart from
runtime statistics.
"""

from __future__ import annotations

import gc
import heapq
import operator
import time

from .characters import (
    DirichletChar,
    char_context,
    char_from_model,
    char_json,
    char_key,
    count_order_ell_exact,
    squarefree_conductors,
)
from .curves import (
    SuperellipticModel,
    base_change,
    count_points,
    find_central_extension,
    genus,
    has_central_eigenvalue,
    is_supersingular_np,
    numerator_divides,
    zeta_numerator,
)
from .errors import InputError, InvariantViolation
from .families import generate_family, twist_class_index
from .ffield import Field, is_prime, make_field, power_classes
from .lfunction import (
    LCache,
    LPoly,
    central_value_is_zero,
    l_polynomials,
    monic_sum_l_polynomials,
    rescale_by_root,
    strip_trivial_factor,
    twist_exponent,
)
from .polyring import Poly, affine_maps, affine_orbit, factor_table

SCHEMA_VERSION = 1
# members of a vanishing-verified family whose zeta/L decomposition is checked
FAMILY_DECOMPOSITION_SAMPLE = 2


def model_from_char(chi: DirichletChar) -> SuperellipticModel:
    """The trivial-twist model whose component tuple realises chi: D_i is the
    product of the conductor primes carrying exponent i."""
    F = chi.field
    comps = [Poly.one(F) for _ in range(chi.ell - 1)]
    for P, e in chi.exponent_map:
        comps[e - 1] = comps[e - 1] * P
    return SuperellipticModel(chi.ell, F, F.one(), comps)


def decomposition_check(model: SuperellipticModel, chi: DirichletChar, l_polys: list) -> bool:
    """Exact identity P(T) = prod over j of the stripped L(u, chi^j), with the
    twist acting as the coefficient rotation u -> zeta^{k_c} u: chi is the
    model's character and `l_polys` holds the untwisted L(u, chi^j) for
    j = 1..ell-1, as the caller has them.  P(T) comes from the model's point
    counts; no character or L-polynomial is built here.  Each chi^j has
    chi's parity and conductor degree, all that the strip reads of it."""
    if not model.normalized:
        raise InputError("the zeta/L decomposition is asserted for normalized models only")
    kc = twist_exponent(model)
    prod = None
    for j, L in enumerate(l_polys, start=1):
        stripped, _ = strip_trivial_factor(rescale_by_root(L, j * kc % model.ell), chi)
        prod = stripped if prod is None else prod * stripped
    pad = (0,) * (model.ell - 2)
    return list(prod.rows) == [(c, *pad) for c in zeta_numerator(model).coeffs]


class _Class:
    """One affine class of conductors: its first conductor's prime codes,
    exponent assignments and characters, their L-polynomials by (assignment
    index, shift), D = sum e_i deg P_i mod ell for each assignment (`dsums`,
    0 for an even character), and its other members by conductor index,
    each with the first m = (c - 1) q + b that reaches it."""

    __slots__ = ("codes", "assignments", "chars", "ls", "dsums", "members")

    def __init__(self, codes: tuple, assignments, chars: list, l_polys: list, ell: int, members):
        self.codes = codes
        self.assignments = assignments
        self.chars = chars
        self.ls = {(xi, 0): L for xi, L in enumerate(l_polys)}
        self.dsums = [sum(k * e for (k, _), e in zip(codes, x)) % ell for x in assignments]
        self.members = members


class _AffineClasses:
    """The affine classes {sigma_c(f(t + b)) : c in F_q^*, b in F_q} of the
    conductors of degree d, in one run, sigma_c(g) = c^-deg g g(ct), with
    the decisions of that degree.  The first conductor of a class, once its
    L-polynomials are at hand (computed or read from the L-cache), registers
    the class (`register`): its members are the indices of
    `polyring.affine_orbit` applied to its own index, and each is marked in
    `marks`, which the walk reads, so a member is passed over before its
    primes are read.  The marks keep the classes a partition of the
    squarefree monics of the degree: an index marked twice, or a mark on a
    monic that is not squarefree, raises InvariantViolation.

    The character with exponents e_i on the sigma_c(P_i(t + b)) has the L
    of the one with exponents e_i on the P_i, rescaled by zeta^(-z_c D),
    D = sum e_i deg P_i (see the module docstring), and the same parity and
    degree.  So each class counts its members' characters in bulk and
    decides its L-polynomials once per twist class z_c (`_vanishing`); a
    decision is made once per distinct (L, parity, degree) (`decide`).  A
    member is expanded to its primes (`_expand`), the images of the class's
    primes under the maps of `polyring.affine_maps`, only where something
    reads it: its vanishing characters (`vanishing`, listed in canonical
    order, with no character built, by `listed`), and the characters and
    L-polynomials (`member`) of the decomposition sample and of the first
    member reached through a translation (`translation`) and through a
    dilation that twists an odd character (`twist`).  `count` is the number
    of classes whose L-polynomials the run computed, `built` the number of
    characters built (`chars`), `firsts` the number of classes, and
    `expanded` the members expanded."""

    def __init__(self, F: Field, ell: int, d: int):
        self.field = F
        self.ell = ell
        self.degree = d
        # z_c with c^((q - 1)/ell) = zeta^z_c, by the element index of c
        self.twists = power_classes(F, ell)
        self.twist_classes = set(self.twists[1:])
        self.table = factor_table(F)
        self.squarefree = self.table.level(d).squarefree
        self.marks = bytearray(len(self.squarefree))  # the first conductors and their members
        self.decisions: dict = {}  # (L.rows, chi.even, chi.degree) -> vanishes
        self.count = 0
        self.built = 0
        self.firsts = 0
        self.conductors = 0
        self.characters = 0
        self.expanded: set = set()
        # (conductor index, assignment index, primes, codes, exponents) of
        # each vanishing character
        self.vanishing: list = []
        # (index, class, m) of the first member of the degree reached through
        # a translation, and through a dilation that twists an odd character
        self.translation = None
        self.twist = None

    def chars(self, primes: tuple, codes: tuple, assignments) -> list[DirichletChar]:
        """The characters with these exponent assignments on a conductor of
        `squarefree_conductors`."""
        self.built += len(assignments)
        make = DirichletChar._on_table_primes
        return [make(self.field, self.ell, primes, codes, x) for x in assignments]

    def decide(self, L: LPoly, chi: DirichletChar) -> bool:
        """Whether L, the L-polynomial of chi, vanishes at the centre once
        stripped.  The strip, its degree law and the central test read only
        L, the parity and the degree, so each distinct triple is decided once."""
        at = (L.rows, chi.even, chi.degree)
        vanishes = self.decisions.get(at)
        if vanishes is None:
            stripped, _k = strip_trivial_factor(L, chi)
            vanishes = self.decisions[at] = central_value_is_zero(stripped)
        return vanishes

    def _l_poly(self, cls: _Class, xi: int, z: int) -> LPoly:
        """The L of the class's character with assignment xi moved by a
        dilation of twist class z."""
        shift = z and -z * cls.dsums[xi] % self.ell
        L = cls.ls.get((xi, shift))
        if L is None:
            L = cls.ls[xi, shift] = rescale_by_root(cls.ls[xi, 0], shift)
        return L

    def _vanishing(self, cls: _Class, z: int) -> list[int]:
        """The assignments of the class's characters that vanish once moved
        by a dilation of twist class z (the member's character has the
        class character's parity and degree)."""
        decide, l_poly = self.decide, self._l_poly
        return [xi for xi, chi in enumerate(cls.chars) if decide(l_poly(cls, xi, z), chi)]

    def register(
        self, j: int, primes: tuple, codes: tuple, assignments, chars: list, l_polys: list
    ) -> _Class:
        """Register the class of the conductor with index j, these primes and
        codes, whose characters, with these exponent assignments, have the
        L-polynomials `l_polys`: mark and count its members, and list its
        vanishing characters."""
        F, q, d, twists = self.field, self.field.q, self.degree, self.twists
        images = affine_orbit(F, d, j)
        # each member's index with the first m that reaches it: a conductor
        # fixed by a non-trivial affine map is reached more than once, and
        # either matching of its primes is valid
        members = dict(zip(reversed(images), range(len(images) - 1, -1, -1)))
        members.pop(j, None)
        marks, squarefree = self.marks, self.squarefree
        marks[j] = 1
        for i in members:
            if marks[i] or not squarefree[i]:
                what = "already counted" if marks[i] else "not squarefree"
                raise InvariantViolation(
                    "affine-partition",
                    f"degree {d}: the class of conductor {j} reaches monic {i}, {what}",
                )
            marks[i] = 1
        self.firsts += 1
        self.conductors += 1 + len(members)
        self.characters += (1 + len(members)) * len(assignments)
        cls = _Class(codes, assignments, chars, l_polys, self.ell, members)
        # z = 0 is the class's own twist class (c = 1)
        by_z = {z: self._vanishing(cls, z) for z in self.twist_classes}
        if by_z[0]:
            self.vanishing.extend((j, xi, primes, codes, assignments[xi]) for xi in by_z[0])
        if any(by_z.values()):
            for i, m in members.items():
                got = by_z[twists[1 + m // q]]
                if got:
                    primes_i, codes_i, weights = self._expand(cls, i, m)
                    for xi in got:
                        at = _at(assignments[xi], weights)
                        self.vanishing.append((i, at, primes_i, codes_i, assignments[at]))
        # the first members of the degree reached through a translation and
        # through a dilation that twists an odd character; a later class has
        # all its members above its first conductor, so one below j stays
        # the first
        if self.translation is None or self.translation[0] > j:
            reached = ((i, m) for i, m in members.items() if m < q)
            self.translation = _first(self.translation, cls, reached)
        if any(cls.dsums) and (self.twist is None or self.twist[0] > j):
            reached = ((i, m) for i, m in members.items() if m >= q and twists[1 + m // q])
            self.twist = _first(self.twist, cls, reached)
        return cls

    def _expand(self, cls: _Class, i: int, m: int) -> tuple[tuple, tuple, list]:
        """The primes and codes, in canonical order, of the member i of the
        class, which the map m = (c - 1) q + b takes the first conductor to,
        and the weight in `itertools.product` order of the member's exponent
        on the image of each of the class's primes (`_at`)."""
        self.expanded.add(i)
        F = self.field
        b, c = m % F.q, 1 + m // F.q
        moved = []
        for n, (k, jp) in enumerate(cls.codes):
            shifts, scales = affine_maps(F, k)
            moved.append(((k, scales[c](shifts[b](jp))), n))
        moved.sort()
        codes = tuple(code for code, _ in moved)
        primes = tuple(self.table.prime(k, jp) for k, jp in codes)
        r = len(codes)
        weights = [0] * r
        for at, (_, n) in enumerate(moved):
            weights[n] = (self.ell - 1) ** (r - 1 - at)
        return primes, codes, weights

    def member(self, cls: _Class, i: int, m: int) -> tuple[list, list]:
        """The characters of the member i of the class, which m reaches, and
        their L-polynomials, in `squarefree_conductors` order."""
        primes, codes, weights = self._expand(cls, i, m)
        z = self.twists[1 + m // self.field.q]
        l_polys = [None] * len(cls.assignments)
        for xi, x in enumerate(cls.assignments):
            l_polys[_at(x, weights)] = self._l_poly(cls, xi, z)
        return self.chars(primes, codes, cls.assignments), l_polys

    def listed(self) -> list[tuple]:
        """(`int_key`, report object) of each vanishing character of the
        degree in canonical order, from its primes, codes and exponents."""
        self.vanishing.sort(key=operator.itemgetter(0, 1))
        F, ell = self.field, self.ell
        return [(char_key(codes, x), char_json(F, ell, zip(primes, x)))
                for _, _, primes, codes, x in self.vanishing]


def _at(x: tuple, weights: list) -> int:
    """The index in `itertools.product` order of the member's exponent tuple
    that puts the exponents x of a class assignment on the images of the
    class's primes, each with its weight from `_AffineClasses._expand`."""
    return sum(map(operator.mul, x, weights)) - sum(weights)


def _power_at(exponents, j: int, ell: int) -> int:
    """The index in `itertools.product` order, over 1..ell-1, of the
    exponents of chi^j on the conductor of chi, which has these exponents."""
    at = 0
    for e in exponents:
        at = at * (ell - 1) + e * j % ell - 1
    return at


def _first(best: "tuple | None", cls: _Class, reached) -> "tuple | None":
    """`best`, an (index, class, m), or the member (index, m) of `reached`
    with the smallest index, as (index, cls, m), if it comes before `best`."""
    got = min(reached, default=None)
    if got is None or best is not None and best[0] < got[0]:
        return best
    return got[0], cls, got[1]


class _Sample:
    """The zeta/L decomposition sample: the first even characters of the
    census in canonical order, up to `budget` by the end of each degree."""

    def __init__(self):
        self.budget = 0
        self.done = 0
        self.ok = True

    def take(self, chars: list, l_polys: list, fresh) -> bool:
        """Sample the even characters on one conductor while the budget
        lasts; a sampled conductor whose L-polynomials at `fresh` this run
        computed or read from its class is also recomputed by the monic
        route.  Whether it was.  chi's powers are the characters on its
        conductor at `_power_at`."""
        sampled = False
        for chi in chars:
            if self.done == self.budget:
                break
            if not chi.even:
                continue
            if not sampled and fresh:
                _spot_check([chars[j] for j in fresh], [l_polys[j] for j in fresh])
            sampled = True
            ell, exponents = chi.ell, [e for _, e in chi.exponent_map]
            powers = [l_polys[_power_at(exponents, j, ell)] for j in range(1, ell)]
            if not decomposition_check(model_from_char(chi), chi, powers):
                self.ok = False
            self.done += 1
        return sampled and bool(fresh)

    @property
    def open(self) -> bool:
        return self.done < self.budget


def _l_polys_cached(
    j: int, primes: tuple, codes: tuple, assignments, cache: "LCache | None", classes
) -> tuple:
    """(chars, l_polys, fresh, class) for the first conductor of an affine
    class, with index j, of `squarefree_conductors`: its characters, their
    L-polynomials in the order of `assignments`, the indices of those not
    read from the cache, and the class it registers.  It looks its
    characters up in the cache, computes and stores its misses; so the cache
    holds the first conductors of the classes only, and a warm run computes
    no Euler product.  The other members of the class are never looked up
    in the cache."""
    chars = classes.chars(primes, codes, assignments)
    found = [None] * len(chars) if cache is None else [cache.get(chi) for chi in chars]
    missing = [i for i, L in enumerate(found) if L is None]
    if missing:
        for i, L in zip(missing, l_polynomials([chars[i] for i in missing])):
            found[i] = L
        classes.count += 1
        if cache is not None:
            cache.put([(chars[i], found[i]) for i in missing])
    cls = classes.register(j, primes, codes, assignments, chars, found)
    return chars, found, missing, cls


def _spot_check(chars: list, l_polys: list) -> None:
    """Recompute L-polynomials by the monic route; a mismatch with the Euler
    product raises InvariantViolation."""
    for chi, L, oracle in zip(chars, l_polys, monic_sum_l_polynomials(chars)):
        if L != oracle:
            raise InvariantViolation(
                "euler-product", f"L of {chi!r} differs from its monic character sums"
            )


class CensusReport:
    def __init__(self, q: int, p: int, e: int, ell: int, max_degree: int):
        self.q = q
        self.p = p
        self.e = e
        self.ell = ell
        self.max_degree = max_degree
        self.per_degree: list[dict] = []
        self.duality_ok = True
        self.decomposition = {"sampled": 0, "all_match": True}
        self.runtime_stats: dict = {}
        self.cache_stats: dict = {}

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "census",
            "q": self.q,
            "p": self.p,
            "e": self.e,
            "ell": self.ell,
            "max_degree": self.max_degree,
            "per_degree": self.per_degree,
            "duality_ok": self.duality_ok,
            "decomposition": self.decomposition,
            "runtime_stats": self.runtime_stats,
            "cache": self.cache_stats,
        }

    def per_degree_csv(self) -> str:
        lines = ["degree,count_A,count_B"]
        for row in self.per_degree:
            lines.append(f"{row['degree']},{row['count_A']},{row['count_B']}")
        return "\n".join(lines) + "\n"


def run_census(
    p: int,
    e: int,
    ell: int,
    max_degree: int,
    *,
    sample_decomp: int = 25,
    cache_path: "str | None" = None,
) -> CensusReport:
    """The census with the cyclic garbage collector paused, and its state on
    entry restored on every exit.  What a census allocates stays alive
    (tables, classes, report entries) or is freed by reference counting, and
    no cyclic garbage is left, so a collection during it frees nothing and
    only walks those objects: a third of the q=16, n<=5 run (45.0 s with the
    collector on, 29.9 s off, at 761-762 MB either way)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _census(p, e, ell, max_degree, sample_decomp, cache_path)
    finally:
        if enabled:
            gc.enable()


def _census(
    p: int, e: int, ell: int, max_degree: int, sample_decomp: int, cache_path: "str | None"
) -> CensusReport:
    from . import limits

    if max_degree < 1:
        raise InputError(f"max_degree must be at least 1, got {max_degree}")
    if sample_decomp < 0:
        raise InputError(f"sample_decomp (--sample-decomp) must be at least 0, got {sample_decomp}")
    F = make_field(p, e)
    q = F.q
    what = f"census at conductor degree {max_degree} over q={q}"
    limits.require_power("SUPERELL_LIMIT_CENSUS", q, max_degree, what)
    ctx = char_context(F, ell)
    report = CensusReport(q, p, e, ell, max_degree)
    cache = None if cache_path is None else LCache(cache_path, F, ell)
    table = factor_table(F)
    total_counts = dict.fromkeys(
        ("conductors", "conductors_counted_by_class", "affine_classes", "characters_built",
         "factor_table_entries", *ctx.counts),
        0,
    )
    t0 = time.monotonic()
    sample = _Sample()
    per_degree_budget = max(1, sample_decomp // max_degree) if sample_decomp else 0
    for d in range(1, max_degree + 1):
        # spread the decomposition sample across degrees, topping up at the end
        if d == max_degree:
            sample.budget = sample_decomp
        else:
            sample.budget = min(sample_decomp, sample.done + per_degree_budget)
        td = time.monotonic()
        counts_before = dict(ctx.counts)
        entries_before = table.entries
        classes = _AffineClasses(F, ell, d)
        # (index, m, class) of the members with even characters, sampled in
        # index order among the first conductors while the sample is open,
        # and the members the sample recomputed by the monic route
        pending: list = []
        checked: set = set()

        def sample_members(below: int) -> None:
            while pending and pending[0][0] < below and sample.open:
                i, m, cls = heapq.heappop(pending)
                if sample.take(*classes.member(cls, i, m), range(len(cls.assignments))):
                    checked.add(i)

        for j, primes, codes, assignments in squarefree_conductors(F, ell, d, classes.marks):
            sample_members(j)
            chars, l_polys, fresh, cls = _l_polys_cached(
                j, primes, codes, assignments, cache, classes
            )
            if sample.open:
                sample.take(chars, l_polys, fresh)
                if sample.open and 0 in cls.dsums:
                    for i, m in cls.members.items():
                        heapq.heappush(pending, (i, m, cls))
        sample_members(len(classes.marks))
        # the first member of the degree reached through a translation, and
        # the first through a dilation that twists an odd character: these
        # check the maps and the twist
        for found in (classes.translation, classes.twist):
            if found is not None and found[0] not in checked:
                i, cls, m = found
                _spot_check(*classes.member(cls, i, m))
        squarefree = classes.squarefree.count(1)
        if classes.conductors != squarefree:
            raise InvariantViolation(
                "affine-partition",
                f"degree {d}: the classes hold {classes.conductors} conductors"
                f" of {squarefree} squarefree monics",
            )
        count_a = classes.characters
        expected = count_order_ell_exact(q, ell, d)
        if count_a != expected:
            raise InvariantViolation(
                "count-formula", f"degree {d}: enumerated {count_a}, formula {expected}"
            )
        vanishing = classes.listed()
        vanish_keys = {key for key, _ in vanishing}
        # duality closure: the dual of a vanishing character vanishes; its
        # key is chi's with every exponent e turned into ell - e
        for key, _ in vanishing:
            dual = list(key)
            dual[2::3] = [ell - e for e in key[2::3]]
            if tuple(dual) not in vanish_keys:
                report.duality_ok = False
                raise InvariantViolation("duality", f"dual of int_key {key} does not vanish")
        report.per_degree.append(
            {
                "degree": d,
                "count_A": count_a,
                "count_B": len(vanishing),
                "vanishing": [obj for _, obj in vanishing],
            }
        )
        report.runtime_stats[f"degree_{d}_seconds"] = round(time.monotonic() - td, 3)
        # monics the factor table classified; 0 when an earlier run built the level
        counts = {
            "conductors": classes.conductors,
            # members counted with no row, character or match
            "conductors_counted_by_class": (
                classes.conductors - classes.firsts - len(classes.expanded)
            ),
            "affine_classes": classes.count,
            "characters_built": classes.built,
            "factor_table_entries": table.entries - entries_before,
        }
        counts.update((k, n - counts_before[k]) for k, n in ctx.counts.items())
        report.runtime_stats[f"degree_{d}_counts"] = counts
        for k, n in counts.items():
            total_counts[k] += n
    report.decomposition = {"sampled": sample.done, "all_match": sample.ok}
    if not sample.ok:
        raise InvariantViolation("zeta-decomposition", "a sampled model failed the product identity")
    report.runtime_stats["total_seconds"] = round(time.monotonic() - t0, 3)
    report.runtime_stats["total_counts"] = total_counts
    if cache is not None:
        report.cache_stats = {
            "path": cache_path,
            "hits": cache.hits,
            "misses": cache.misses,
            "bad_lines": cache.bad_lines,
            "blocks": cache.blocks,
            "load_seconds": round(cache.load_seconds, 3),
        }
        if cache.bad_lines:
            report.cache_stats["rebuilt"] = True
    return report


# -- seed checks ------------------------------------------------------------------


class SeedReport:
    def __init__(self, kind: str, params: dict):
        self.kind = kind
        self.params = params
        self.data: dict = {}
        self.verdicts: dict = {}
        self.model = None  # the model a search found, which `seed_model` returns

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "seed_check",
            "seed_kind": self.kind,
            "params": self.params,
            **self.data,
            "verdicts": self.verdicts,
        }


def _trigonal_model(F: Field) -> SuperellipticModel:
    t = Poly.x(F)
    return SuperellipticModel(3, F, F.one(), (t**3 - t, Poly.one(F)))


def _require_seed_prime(kind: str, p: int, ell: int = 3) -> None:
    """A seed's requirement on p, for its seed check and its family: an odd
    p = -1 mod ell (at p = 2 the thm42 model's x - 2 is x)."""
    if p == 2 or p % ell != ell - 1:
        need = f"an odd prime p = {ell - 1} mod {ell}"
        raise InputError(f"the {kind} seed needs {need}, got p = {p}")


def seed_check_thm41(p: int) -> SeedReport:
    """The elliptic seed: y^2 = x^3 + 1 over F_p with p = 2 mod 3 is
    supersingular; after base change to F_{p^4} the numerator is (1 - p^2 T)^2,
    so the central eigenvalue appears.  The trigonal model y^3 = x^3 - x is
    compared against it over F_p, F_{p^2} and F_{p^4}."""
    _require_seed_prime("thm41", p)
    rep = SeedReport("thm41", {"p": p})
    F = make_field(p, 1)
    t = Poly.x(F)
    E = SuperellipticModel(2, F, F.one(), (t**3 + Poly.one(F),))
    P_E = zeta_numerator(E)
    rep.data["P_E"] = P_E.to_json()
    rep.verdicts["a_p_zero"] = P_E.coeffs[1] == 0
    bc = base_change(P_E, 4)
    rep.data["P_E_base4"] = bc.to_json()
    rep.verdicts["base4_is_square"] = bc.coeffs == (1, -2 * p**2, p**4)
    rep.verdicts["central_eigenvalue_q4"] = has_central_eigenvalue(bc)
    C = _trigonal_model(F)
    P_C = zeta_numerator(C)
    rep.data["P_C"] = P_C.to_json()
    rep.verdicts["numerators_equal"] = P_C == P_E
    counts = {}
    equal_all = True
    for n in (1, 2, 4):
        ne = count_points(E, n)
        nc = count_points(C, n)
        counts[str(n)] = {"E": ne, "C": nc}
        equal_all = equal_all and ne == nc
    rep.data["counts"] = counts
    rep.verdicts["counts_equal_q_q2_q4"] = equal_all
    rep.verdicts["supersingular"] = is_supersingular_np(P_E, p, 1)
    return rep


def thm42_model(F: Field, ell: int) -> SuperellipticModel:
    """y^ell = x (x-1) (x-2)^{ell-2} over F."""
    t = Poly.x(F)
    one = Poly.one(F)
    comps = [one] * (ell - 1)
    comps[0] = t * (t - one)
    idx = ell - 2
    comps[idx - 1] = comps[idx - 1] * (t - Poly.from_ints(F, [2]))
    return SuperellipticModel(ell, F, F.one(), comps)


def seed_check_thm42(ell: int, p: int) -> SeedReport:
    if ell == 2 or not is_prime(ell):
        raise InputError(f"this seed needs an odd prime ell, got {ell}")
    _require_seed_prime("thm42", p, ell)
    rep = SeedReport("thm42", {"p": p, "ell": ell})
    F = make_field(p, 1)
    M = thm42_model(F, ell)
    g = genus(M)
    rep.data["genus"] = g
    rep.verdicts["genus_formula"] = g == (ell - 1) // 2
    P = zeta_numerator(M)
    rep.data["P"] = P.to_json()
    rep.verdicts["supersingular_newton"] = is_supersingular_np(P, p, 1)
    d = find_central_extension(P)
    rep.data["central_extension"] = d
    rep.verdicts["central_extension_found"] = d is not None
    return rep


def seed_check_f25twist(p: int) -> SeedReport:
    """Exhaustive twist-parameter search over F_{p^2} for a trigonal model with
    numerator (1 - pT)^2: models y^3 = c * x * (x^2 - b) with c over cube-class
    representatives and b over {1, smallest non-square}, which together realise
    the full sextic-twist family of y^3 = x^3 - x."""
    _require_seed_prime("f25twist", p)
    rep = SeedReport("f25twist", {"p": p})
    F = make_field(p, 2)
    q = F.q
    t = Poly.x(F)
    one = Poly.one(F)
    # smallest non-square unit
    b0 = None
    for i in range(1, q):
        z = F.elem_at(i)
        if F.pow(z, (q - 1) // 2) != F.one():
            b0 = z
            break
    # cube-class representatives: minimal index per coset of (F^*)^3
    reps = sorted({twist_class_index(F, F.elem_at(i), 3) for i in range(1, q)})
    target = (1, -2 * p, p * p)
    candidates = []
    found = None
    for b in (F.one(), b0):
        D1 = t * (t * t - Poly.constant(b))
        for ci in reps:
            c = F.elem_at(ci)
            M = SuperellipticModel(3, F, c, (D1, one))
            P = zeta_numerator(M)
            trace = -P.coeffs[1]
            cand = {
                "b": F.index(b),
                "c": ci,
                "trace": trace,
                "P": P.to_json(),
                "central": P.coeffs == target,
            }
            candidates.append(cand)
            if found is None and P.coeffs == target:
                found = M
    rep.data["candidates"] = candidates
    rep.data["traces"] = sorted(c["trace"] for c in candidates)
    rep.model = found
    if found is not None:
        rep.data["found"] = found.to_json()
        rep.verdicts["found"] = True
        rep.verdicts["central_eigenvalue"] = True
    else:
        rep.data["found"] = None
        rep.verdicts["found"] = False
    return rep


def seed_check(kind: str, p: int, ell: "int | None" = None) -> SeedReport:
    if kind == "thm41":
        return seed_check_thm41(p)
    if kind == "thm42":
        if ell is None:
            raise InputError("thm42 needs --ell")
        return seed_check_thm42(ell, p)
    if kind == "f25twist":
        return seed_check_f25twist(p)
    raise InputError(f"unknown seed kind {kind!r}")


# -- family experiments ---------------------------------------------------------------


def seed_model(seed_kind: str, p: int) -> SuperellipticModel:
    """The base model a family experiment starts from."""
    if seed_kind == "f25twist":
        found = seed_check_f25twist(p).model
        if found is None:
            raise InputError("twist search found no model with a central eigenvalue")
        return found
    if seed_kind == "thm41":
        _require_seed_prime("thm41", p)
        F4 = make_field(p, 4)
        return _trigonal_model(F4)
    raise InputError(f"unknown family seed kind {seed_kind!r}")


def family_experiment(
    seed_kind: str,
    n: int,
    *,
    p: int,
    verify_vanishing: bool = False,
    max_pairs_per_degree: "int | None" = None,
    max_members_per_degree: "int | None" = None,
) -> dict:
    """Generate the family of a vanishing seed and verify, member by member,
    the numerator divisibility and central-eigenvalue transfer; optionally also
    the independent character-sum route to central vanishing, and the zeta/L
    decomposition of the first FAMILY_DECOMPOSITION_SAMPLE members."""
    base = seed_model(seed_kind, p)
    P0 = zeta_numerator(base)
    if not has_central_eigenvalue(P0):
        raise InputError("seed model lacks a central eigenvalue")
    t0 = time.monotonic()
    report = generate_family(
        base,
        n,
        max_pairs_per_degree=max_pairs_per_degree,
        max_members_per_degree=max_members_per_degree,
    )
    out = report.to_json()
    out["seed_kind"] = seed_kind
    out["P0"] = P0.to_json()
    g_bound = (n - 2) * (base.ell - 1) // 2
    verification = []
    decomp_done = 0
    all_ok = True
    for member in report.members:
        P_m = zeta_numerator(member)
        entry = {
            "model": member.to_json(),
            "genus": genus(member),
            "P": P_m.to_json(),
            "divides": numerator_divides(P0, P_m),
            "central_eigenvalue": has_central_eigenvalue(P_m),
            "genus_within_bound": genus(member) <= g_bound,
        }
        if verify_vanishing:
            chi = char_from_model(member)
            l_polys = l_polynomials([chi, *(chi.power(j) for j in range(2, member.ell))])
            L = rescale_by_root(l_polys[0], twist_exponent(member))
            stripped, _ = strip_trivial_factor(L, chi)
            entry["l_central_zero"] = central_value_is_zero(stripped)
            if decomp_done < FAMILY_DECOMPOSITION_SAMPLE:
                entry["decomposition"] = decomposition_check(member, chi, l_polys)
                decomp_done += 1
        verification.append(entry)
        all_ok = all_ok and all(v for k, v in entry.items() if isinstance(v, bool))
    out["verification"] = verification
    out["all_verified"] = all_ok
    out["vacuous"] = not report.members
    out["seconds"] = round(time.monotonic() - t0, 3)
    return out
