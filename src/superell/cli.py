"""Command-line interface.

Subcommands: census, seed-check, family, density, lpoly.  Reports are JSON
(default) or CSV where a tabular form exists; exit code 0 on success, 2 on a
violated invariant or bad input (the report names the invariant), 3 when a
resource guard refused the computation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .census import family_experiment, run_census, seed_check
from .characters import DirichletChar
from .curves import SuperellipticModel
from .density import empirical_density, product_form, truncated_density
from .errors import InputError, InvariantViolation, ResourceLimit
from .ffield import make_field
from .lfunction import central_value_is_zero, l_polynomial, strip_trivial_factor
from .polyring import is_irreducible, poly_from_json, poly_to_json


def _open_arg(flag: str, path: str, mode: str):
    """open(path, mode) for a user-supplied path; an OSError (a missing
    directory, a directory, no permission) is bad input naming the flag."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{flag}: cannot open {path!r} ({exc.strerror or exc})") from None


_ENCODE_STR = json.encoder.encode_basestring_ascii  # the C encoder
_BATCH = 1 << 16


def _json_key(key) -> str:
    """A non-str dict key as json converts it: numbers, bools and None."""
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _dump_json(payload, fh) -> None:
    """The bytes of json.dump(payload, fh, indent=2, sort_keys=True) and a
    newline, from one recursive pass with no encoder generators (the
    indenting encoder is pure Python, one generator hop per token).

    Strings go through the C `encode_basestring_ascii`, ints through
    `int.__repr__` (an all-int list in one join), and floats and every other
    leaf through `json.dumps`; dict items are sorted before their keys are
    converted, as json does, so mixed key types raise TypeError.  Each leaf
    is one piece with the separator, indent and key before it; the pieces
    are written in batches of about 64 KiB, never as one string."""
    parts: list = []
    size = 0

    def put(o, head: str, nl: str) -> None:
        # head: what precedes o on its line; nl: newline and o's indent
        nonlocal size
        if size >= _BATCH:
            fh.write("".join(parts))
            parts.clear()
            size = 0
        if isinstance(o, str):
            text = head + _ENCODE_STR(o)
        elif type(o) is int:
            text = head + int.__repr__(o)
        elif isinstance(o, dict):
            if not o:
                text = head + "{}"
            else:
                inner = nl + "  "
                parts.append(head + "{")
                size += len(head) + 1
                sep = inner
                for key, value in sorted(o.items()):
                    if not isinstance(key, str):
                        key = _json_key(key)
                    put(value, sep + _ENCODE_STR(key) + ": ", inner)
                    sep = "," + inner
                text = nl + "}"
        elif isinstance(o, (list, tuple)):
            if not o:
                text = head + "[]"
            elif all(type(x) is int for x in o):
                inner = nl + "  "
                text = head + "[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]"
            else:
                inner = nl + "  "
                parts.append(head + "[")
                size += len(head) + 1
                sep = inner
                for x in o:
                    put(x, sep, inner)
                    sep = "," + inner
                text = nl + "]"
        else:
            text = head + json.dumps(o)
        parts.append(text)
        size += len(text)

    put(payload, "", "\n")
    parts.append("\n")
    fh.write("".join(parts))


def _write_out(payload, out_path: "str | None", csv_text: "str | None" = None) -> None:
    if out_path is None:
        _dump_json(payload, sys.stdout)
        return
    if out_path.endswith(".csv"):  # only the census has one; _dispatch refuses the rest
        with _open_arg("--out", out_path, "w") as fh:
            fh.write(csv_text)
        return
    with _open_arg("--out", out_path, "w") as fh:
        _dump_json(payload, fh)


def _json_arg(flag: str, raw: str):
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise InputError(f"{flag}: malformed JSON ({exc})") from None


def _expect(flag: str, ok: bool, shape: str, data) -> None:
    """Reject JSON that parsed but does not have the shape the flag takes."""
    if not ok:
        raise InputError(f"{flag}: expected {shape}, got {json.dumps(data)}")


def _is_coeffs(f) -> bool:
    """A coefficient list: ints, or for an extension field lists of them."""
    return isinstance(f, list) and all(isinstance(c, int) or _is_coeffs(c) for c in f)


def _parse_caps(flag: str, raw: "str | None"):
    """A cap on pairs or members: an int >= 0, or a JSON dict of them keyed
    by deg h."""
    if raw is None:
        return None
    try:
        if raw.startswith("{"):
            caps = {int(k): v for k, v in _json_arg(flag, raw).items()}
        else:
            caps = int(raw)
    except ValueError:
        caps = None
    values = caps.values() if isinstance(caps, dict) else [caps]
    if not all(type(v) is int and v >= 0 for v in values):
        raise InputError(
            f"{flag}: expected an int >= 0 or a JSON dict of them keyed by deg h, got {raw!r}"
        )
    return caps


def _model_from_args(args) -> SuperellipticModel:
    F = make_field(args.p, args.e)
    if getattr(args, "base", None):
        raw = args.base
        if raw.startswith("@"):
            with _open_arg("--base", raw[1:], "r") as fh:
                raw = fh.read()
        data = _json_arg("--base", raw)
        _expect(
            "--base",
            isinstance(data, dict)
            and isinstance(data.get("ell"), int)
            and (isinstance(data.get("twist"), int) or _is_coeffs(data.get("twist")))
            and isinstance(data.get("components"), list)
            and all(_is_coeffs(c) for c in data["components"]),
            '{"ell": int, "twist": coefficient, "components": [coefficient list, ...]}',
            data,
        )
        return SuperellipticModel.from_json(F, data)
    if args.components is None or args.ell is None:
        raise InputError("density needs either --base or both --ell and --components")
    data = _json_arg("--components", args.components)
    _expect("--components", isinstance(data, list) and all(_is_coeffs(c) for c in data),
            "a list of coefficient lists", data)
    comps = [poly_from_json(F, c) for c in data]
    twist = F.from_int(args.twist)
    return SuperellipticModel(args.ell, F, twist, comps)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="superell")
    sub = parser.add_subparsers(dest="command", required=True)

    p_census = sub.add_parser("census", help="full order-ell character census with vanishing decisions")
    p_census.add_argument("--p", type=int, required=True)
    p_census.add_argument("--e", type=int, default=1)
    p_census.add_argument("--ell", type=int, required=True)
    p_census.add_argument("--max-degree", type=int, required=True)
    p_census.add_argument("--sample-decomp", type=int, default=25)
    p_census.add_argument("--cache", default=None)
    p_census.add_argument("--out", default=None)

    p_seed = sub.add_parser("seed-check", help="verify a supersingular seed construction")
    p_seed.add_argument("--kind", choices=["thm41", "thm42", "f25twist"], required=True)
    p_seed.add_argument("--p", type=int, required=True)
    p_seed.add_argument("--ell", type=int, default=None)

    p_family = sub.add_parser("family", help="generate and verify a vanishing family")
    p_family.add_argument("--seed-kind", choices=["f25twist", "thm41"], required=True)
    p_family.add_argument("--p", type=int, required=True)
    p_family.add_argument("--n", type=int, required=True)
    p_family.add_argument("--verify-vanishing", action="store_true")
    p_family.add_argument("--max-pairs-per-degree", default=None,
                          help="int, or JSON dict keyed by deg h")
    p_family.add_argument("--max-members-per-degree", default=None,
                          help="int, or JSON dict keyed by deg h")
    p_family.add_argument("--out", default=None)

    p_density = sub.add_parser("density", help="squarefree sieve density for a base model")
    p_density.add_argument("--base", default=None,
                           help="model JSON (inline, or @path to a file); overrides --components")
    p_density.add_argument("--p", type=int, required=True)
    p_density.add_argument("--e", type=int, default=1)
    p_density.add_argument("--ell", type=int, default=None)
    p_density.add_argument("--twist", type=int, default=1)
    p_density.add_argument("--components", default=None,
                           help='JSON list of coefficient lists, e.g. \'[[0,6,0,1],[1]]\'')
    p_density.add_argument("--deg-max", type=int, required=True)
    p_density.add_argument("--samples", type=int, default=0)
    p_density.add_argument("--seed", type=int, default=0)
    p_density.add_argument("--h-deg", type=int, default=2)
    p_density.add_argument("--coprime-only", action="store_true")
    p_density.add_argument("--out", default=None)

    p_lpoly = sub.add_parser("lpoly", help="inspect one character's L-polynomial")
    p_lpoly.add_argument("--p", type=int, required=True)
    p_lpoly.add_argument("--e", type=int, default=1)
    p_lpoly.add_argument("--ell", type=int, required=True)
    p_lpoly.add_argument("--conductor-factors", required=True,
                         help='JSON [[poly, exponent], ...], e.g. \'[[[0,1],1],[[6,1],2]]\'')
    p_lpoly.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except InvariantViolation as exc:
        json.dump(
            {"error": "invariant_violation", "invariant": exc.invariant, "detail": exc.detail},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 2
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ResourceLimit as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return 3


def _dispatch(args) -> int:
    out = getattr(args, "out", None)
    if out is not None:
        # refused before the work, not after it
        folder = os.path.dirname(os.path.abspath(out))
        if os.path.isdir(out) or not os.path.isdir(folder):
            raise InputError(f"--out: cannot write a file at {out!r}")
        if out.endswith(".csv") and args.command != "census":
            raise InputError("this report has no CSV form")
    if args.command == "census":
        if args.cache is not None:
            # the census appends to the cache file: refuse a path it cannot
            # append to, or (before opening it: a FIFO blocks) no regular file
            if os.path.exists(args.cache) and not os.path.isfile(args.cache):
                raise InputError(f"--cache: {args.cache!r} is not a regular file")
            _open_arg("--cache", args.cache, "a").close()
        rep = run_census(
            args.p,
            args.e,
            args.ell,
            args.max_degree,
            sample_decomp=args.sample_decomp,
            cache_path=args.cache,
        )
        _write_out(rep.to_json(), args.out, csv_text=rep.per_degree_csv())
        return 0

    if args.command == "seed-check":
        rep = seed_check(args.kind, args.p, args.ell)
        _write_out(rep.to_json(), None)
        return 0

    if args.command == "family":
        out = family_experiment(
            args.seed_kind,
            args.n,
            p=args.p,
            verify_vanishing=args.verify_vanishing,
            max_pairs_per_degree=_parse_caps("--max-pairs-per-degree", args.max_pairs_per_degree),
            max_members_per_degree=_parse_caps(
                "--max-members-per-degree", args.max_members_per_degree
            ),
        )
        _write_out(out, args.out)
        return 0

    if args.command == "density":
        model = _model_from_args(args)
        form = product_form(model)
        rep = truncated_density(form, args.deg_max)
        if args.samples:
            rep.empirical = empirical_density(
                model, args.h_deg, args.samples, args.seed, coprime_only=args.coprime_only
            )
        _write_out(rep.to_json(), args.out)
        return 0

    if args.command == "lpoly":
        F = make_field(args.p, args.e)
        data = _json_arg("--conductor-factors", args.conductor_factors)
        _expect(
            "--conductor-factors",
            isinstance(data, list)
            and all(isinstance(pe, list) and len(pe) == 2 and _is_coeffs(pe[0])
                    and isinstance(pe[1], int) for pe in data),
            "[[coefficient list, exponent], ...]",
            data,
        )
        pairs = [(poly_from_json(F, pj), e) for pj, e in data]
        chi = DirichletChar(F, args.ell, pairs)
        for P, _ in chi.exponent_map:
            if not is_irreducible(P):
                raise InputError(f"--conductor-factors: {poly_to_json(P)} is reducible over {F}")
        L = l_polynomial(chi)
        stripped, k = strip_trivial_factor(L, chi)
        payload = {
            "schema_version": 1,
            "kind": "lpoly",
            "char": chi.to_json(),
            "even": chi.even,
            "L": L.to_json(),
            "stripped": stripped.to_json(),
            "trivial_factor_exponent": k,
            "central_value_is_zero": central_value_is_zero(stripped),
        }
        _write_out(payload, args.out)
        return 0

    raise InputError(f"unknown command {args.command!r}")  # pragma: no cover


def run() -> None:
    """The console entry point: main(), then exit with its code.  The heap is
    frozen first, so the collection at interpreter shutdown skips every
    object the run left alive; os._exit would skip that collection too, but
    also the atexit handlers and the L-cache's close."""
    try:
        code = main()
    finally:  # argparse's --help and usage errors exit from inside main
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
