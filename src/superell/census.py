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
the first conductor of a class computes its L-polynomials and every later
one reads them, with its primes matched to the first one's through
P -> sigma_c(P(t + b)), the index maps of `polyring.affine_maps`.
Every decomposition-sampled conductor whose L-polynomials the run computed
or read from its class (rather than from the cache), and in each degree the
first conductor served through a translation and the first served through a
dilation that twists an odd character, is recomputed by monic character
sums, and a mismatch raises InvariantViolation.

The census walks the conductors as the factor table's prime codes with
their exponent assignments (`characters.squarefree_conductors`) and builds
a `DirichletChar` only where something reads one: every character of the
first conductor of a class (the Euler route and the L-cache keys), of the
spot-checked and decomposition-sampled conductors, and each vanishing
character the report lists.  Stripping, the degree law and the central
test read only the L-polynomial, the parity and the conductor degree, so
they run once per distinct (L, parity, degree) of a degree.  A member of a
class has the parity and degree of the class character whose L it shares,
so a class matches its L-polynomials and their decisions to a member's
exponent assignments once per distinct matching of the primes and twist,
and every other member with that matching reads both with no character
built (`_AffineClasses`).  The duality check stays independent: the dual
of chi has the conjugate L, decided from its own coefficients, and its key
is looked up among the vanishing characters' `int_key`s.

All list outputs are sorted by (conductor degree, canonical conductor order,
exponent assignment); reruns with a warm cache are bit-identical apart from
runtime statistics.
"""

from __future__ import annotations

import gc
import operator
import time

from .characters import (
    DirichletChar,
    char_context,
    char_from_model,
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
    l_polynomial,
    l_polynomials,
    monic_sum_l_polynomials,
    rescale_by_root,
    strip_trivial_factor,
    twist_exponent,
)
from .polyring import Poly, affine_maps, factor_table

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


def decomposition_check(model: SuperellipticModel, *, l_polys: "dict | None" = None) -> bool:
    """Exact identity P(T) = prod over j of the stripped L(u, chi^j), with the
    twist acting as the coefficient rotation u -> zeta^{k_c} u.  `l_polys`
    may hold the untwisted L(u, chi^j) already at hand, keyed by
    `DirichletChar.int_key` (the census passes those of the conductor it has
    just computed); otherwise they are computed here."""
    if not model.normalized:
        raise InputError("the zeta/L decomposition is asserted for normalized models only")
    chi = char_from_model(model)
    kc = twist_exponent(model)
    powers = [chi.power(j) for j in range(1, model.ell)]
    if l_polys is None:
        Ls = l_polynomials(powers)
    else:
        Ls = [l_polys[chij.int_key()] for chij in powers]
    prod = None
    for j, (chij, L) in enumerate(zip(powers, Ls), start=1):
        L = rescale_by_root(L, (j * kc) % model.ell)
        stripped, _ = strip_trivial_factor(L, chij)
        prod = stripped if prod is None else prod * stripped
    pad = (0,) * (model.ell - 2)
    return list(prod.rows) == [(c, *pad) for c in zeta_numerator(model).coeffs]


class _AffineClasses:
    """The affine classes {sigma_c(f(t + b)) : c in F_q^*, b in F_q} of the
    conductors of one degree, in one run, sigma_c(g) = c^-deg g g(ct), with
    the decisions of that degree.  The first conductor of a class, once its
    L-polynomials are at hand (computed or read from the L-cache), registers
    each other member (`register`), keyed by the member's prime codes, with
    the codes of the sigma_c(P(t + b)) for its own primes P, in their
    order, and with c; a later conductor of the class finds itself there
    and reads the positions of those images among its primes (`serve`).  The character with exponents e_i on the
    sigma_c(P_i(t + b)) has the L of the one with exponents e_i on the P_i,
    rescaled by zeta^(-z_c D), D = sum e_i deg P_i (see the module
    docstring), and the same parity and degree.  So each class rescales each
    of its L once per shift, and matches its L-polynomials and decisions to
    a member's exponents once per distinct (positions, z_c) (`_match`).
    A decision is made once per distinct (L, parity, degree) (`decide`).
    `count` is the number of classes whose L-polynomials the run computed,
    and `built` the number of characters built (`chars`)."""

    def __init__(self, F: Field, ell: int):
        self.field = F
        self.ell = ell
        # z_c with c^((q - 1)/ell) = zeta^z_c, by the element index of c
        self.twists = power_classes(F, ell)
        # prime codes -> (class, the codes of the images of its first
        # conductor's primes, c); a class is (its Ls by (exponents, shift),
        # its first conductor's characters by exponents, its matches by
        # (positions, z_c))
        self.members: dict = {}
        self.decisions: dict = {}  # (L.rows, chi.even, chi.degree) -> vanishes
        self.count = 0
        self.built = 0

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

    def serve(self, codes: tuple) -> "tuple[tuple, tuple, str] | None":
        """For a member of a registered class, with these prime codes: the
        L-polynomials of its characters in `squarefree_conductors` order, the
        indices of those that vanish, and how they were read: "translation"
        (c = 1), "twist" (z_c != 0 and one of them is odd, so its L was
        rescaled) or "dilation".  None when the conductor is not such a
        member."""
        member = self.members.pop(codes, None)
        if member is None:
            return None
        group, column, c = member
        # positions[n]: where the image of the class's n-th prime sits among
        # the member's primes
        positions = tuple(map(codes.index, column))
        z = self.twists[c]
        got = group[2].get((positions, z))
        if got is None:
            got = group[2][positions, z] = self._match(group, positions, z)
        l_polys, vanishing, twisted = got
        return l_polys, vanishing, "translation" if c == 1 else "twist" if twisted else "dilation"

    def _match(self, group: tuple, positions: tuple, z: int) -> tuple[tuple, tuple, bool]:
        """The L-polynomials of a class's members with these positions and
        twist, in the order of their exponent assignments, the indices of
        those that vanish, and whether one was rescaled."""
        ls, reps, _ = group
        ell = self.ell
        r = len(positions)
        # the index of an exponent tuple in itertools.product order
        weights = [(ell - 1) ** (r - 1 - n) for n in range(r)]
        out = [None] * (ell - 1) ** r
        vanishing = []
        twisted = False
        for x, chi in reps.items():
            key = chi.int_key()
            shift = z and -z * sum(map(operator.mul, key[0::3], x)) % ell
            twisted = twisted or shift != 0
            L = ls.get((x, shift))
            if L is None:
                L = ls[x, shift] = rescale_by_root(ls[x, 0], shift)
            # the member's exponent on its prime at positions[n] is x[n]
            i = sum((e - 1) * weights[n] for e, n in zip(x, positions))
            out[i] = L
            if self.decide(L, chi):  # the member's character has chi's parity and degree
                vanishing.append(i)
        vanishing.sort()
        return tuple(out), tuple(vanishing), twisted

    def register(self, codes: tuple, assignments, chars: list, l_polys: list) -> None:
        """Register every other member of the class of the conductor with
        these prime codes, whose characters, with these exponent
        assignments, have the L-polynomials `l_polys`."""
        group = ({(x, 0): L for x, L in zip(assignments, l_polys)}, dict(zip(assignments, chars)), {})
        F = self.field
        q = F.q
        members = self.members
        # the code of sigma_c(P(t + b)) for each prime P, by (c, b) in the
        # order c = 1, ..., q - 1 and b = 0, ..., q - 1: translations first;
        # m = (c - 1) q + b, and m = 0 is the identity.  A conductor fixed by
        # a non-trivial affine map meets a member twice, and either matching
        # of its primes is valid
        images = []
        for k, j in codes:
            shifts, scales = affine_maps(F, k)
            moved = [shift(j) for shift in shifts]
            images.append([(k, r) for scale in scales[1:] for r in scale.images(moved)])
        for m, column in enumerate(zip(*images)):
            if m:
                # a member's codes are its primes' images in canonical order
                key = column if len(column) == 1 else tuple(sorted(column))
                members.setdefault(key, (group, column, 1 + m // q))


def _l_polys_cached(
    primes: tuple, codes: tuple, assignments: tuple, cache: "LCache | None", classes: _AffineClasses
) -> tuple:
    """(l_polys, vanishing, fresh, route, chars) for the characters of one
    conductor of `squarefree_conductors`: their L-polynomials in the order of
    `assignments`, the indices of those that vanish, the indices of those not
    read from the cache, how they came from the conductor's affine class
    (`_AffineClasses.serve`; None when the conductor is the first of its
    class), and the characters built, or None.  A member of a class
    registered in this degree is served through the class maps, with no
    character built, and never looked up in the cache.  The first conductor
    of a class builds its characters, looks them up, computes and stores
    its misses and registers its class; so the cache holds the first
    conductors of the classes only, and a warm run computes no Euler
    product."""
    served = classes.serve(codes)
    if served is not None:
        l_polys, vanishing, route = served
        return l_polys, vanishing, range(len(l_polys)), route, None
    chars = classes.chars(primes, codes, assignments)
    found = [None] * len(chars) if cache is None else [cache.get(chi) for chi in chars]
    missing = [i for i, L in enumerate(found) if L is None]
    if missing:
        for i, L in zip(missing, l_polynomials([chars[i] for i in missing])):
            found[i] = L
        classes.count += 1
        if cache is not None:
            cache.put([(chars[i], found[i]) for i in missing])
    classes.register(codes, assignments, chars, found)
    vanishing = [i for i, (chi, L) in enumerate(zip(chars, found)) if classes.decide(L, chi)]
    return found, vanishing, missing, None, chars


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
        ("conductors", "affine_classes", "characters_built", "factor_table_entries", *ctx.counts),
        0,
    )
    t0 = time.monotonic()
    decomp_done = 0
    decomp_ok = True
    per_degree_budget = max(1, sample_decomp // max_degree) if sample_decomp else 0
    for d in range(1, max_degree + 1):
        # spread the decomposition sample across degrees, topping up at the end
        if d == max_degree:
            decomp_budget = sample_decomp
        else:
            decomp_budget = min(sample_decomp, decomp_done + per_degree_budget)
        td = time.monotonic()
        vanishing: list[DirichletChar] = []
        vanish_keys: set = set()  # their `int_key`s
        count_a = 0
        conductors = 0
        counts_before = dict(ctx.counts)
        entries_before = table.entries
        classes = _AffineClasses(F, ell)
        unchecked = {"translation", "twist"}
        for primes, codes, assignments in squarefree_conductors(F, ell, d):
            conductors += 1
            l_polys, vanishes, fresh, route, chars = _l_polys_cached(
                primes, codes, assignments, cache, classes
            )
            count_a += len(l_polys)
            if route in unchecked:
                # the first conductor of the degree served through a
                # translation, and the first through a dilation that twists
                # an odd character: these check the maps and the twist
                chars = classes.chars(primes, codes, assignments)
                _spot_check(chars, l_polys)
                fresh = ()
                unchecked.discard(route)
            # the decomposition sample: the first even characters of the degree
            for i, x in enumerate(assignments):
                if decomp_done == decomp_budget:
                    break
                if sum(k * e for (k, _), e in zip(codes, x)) % ell:
                    continue  # odd
                if chars is None:
                    chars = classes.chars(primes, codes, assignments)
                # a sampled conductor computed in this run is also
                # recomputed by the monic route
                if fresh:
                    _spot_check([chars[j] for j in fresh], [l_polys[j] for j in fresh])
                    fresh = ()
                # chi's powers are the other characters on its conductor
                known = {c.int_key(): Lc for c, Lc in zip(chars, l_polys)}
                if not decomposition_check(model_from_char(chars[i]), l_polys=known):
                    decomp_ok = False
                decomp_done += 1
            for i in vanishes:
                chi = chars[i] if chars else classes.chars(primes, codes, assignments[i : i + 1])[0]
                vanish_keys.add(chi.int_key())
                vanishing.append(chi)
        expected = count_order_ell_exact(q, ell, d)
        if count_a != expected:
            raise InvariantViolation(
                "count-formula", f"degree {d}: enumerated {count_a}, formula {expected}"
            )
        # duality closure: the dual of a vanishing character vanishes; its
        # key is chi's with every exponent e turned into ell - e
        for chi in vanishing:
            key = list(chi.int_key())
            key[2::3] = [ell - e for e in key[2::3]]
            if tuple(key) not in vanish_keys:
                report.duality_ok = False
                raise InvariantViolation("duality", f"dual of {chi!r} does not vanish")
        report.per_degree.append(
            {
                "degree": d,
                "count_A": count_a,
                "count_B": len(vanishing),
                "vanishing": [chi.to_json() for chi in vanishing],
            }
        )
        report.runtime_stats[f"degree_{d}_seconds"] = round(time.monotonic() - td, 3)
        # monics the factor table classified; 0 when an earlier run built the level
        counts = {
            "conductors": conductors,
            "affine_classes": classes.count,
            "characters_built": classes.built,
            "factor_table_entries": table.entries - entries_before,
        }
        counts.update((k, n - counts_before[k]) for k, n in ctx.counts.items())
        report.runtime_stats[f"degree_{d}_counts"] = counts
        for k, n in counts.items():
            total_counts[k] += n
    report.decomposition = {"sampled": decomp_done, "all_match": decomp_ok}
    if not decomp_ok:
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
            L = rescale_by_root(l_polynomial(chi), twist_exponent(member))
            stripped, _ = strip_trivial_factor(L, chi)
            entry["l_central_zero"] = central_value_is_zero(stripped)
            if decomp_done < FAMILY_DECOMPOSITION_SAMPLE:
                entry["decomposition"] = decomposition_check(member)
                decomp_done += 1
        verification.append(entry)
        all_ok = all_ok and all(v for k, v in entry.items() if isinstance(v, bool))
    out["verification"] = verification
    out["all_verified"] = all_ok
    out["vacuous"] = not report.members
    out["seconds"] = round(time.monotonic() - t0, 3)
    return out
