"""Command-line front end: compute invariants, verify Pachner invariance,
expand Frobenius polynomials and emit JSON reports.

Exit codes are stable API: 0 ok, 1 usage error, 2 orientation failure,
3 enumeration cap exceeded, 4 no applicable Pachner move, 5 malformed input.
Identical arguments (including --seed) produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import triangulation as tri
from .cocycles import reference_cubic, specialize_double, is_hexagon_cocycle
from .gf import FieldError, is_prime, make_field
from .hexagon import gram_matrix
from .intersect import compare_forms, reduced_cup_invariants
from .invariants import (CapExceeded, FrobeniusSpec, form_invariants,
                         probability_distribution, distribution_equal)
from .manifolds import BUILTIN_FILES, builtin_manifold

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ORIENTATION = 2
EXIT_CAP = 3
EXIT_NO_MOVE = 4
EXIT_MALFORMED = 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; usage errors must be exit 1
    def error(self, message):
        raise UsageError(message)


def _load_manifold(args) -> tri.Triangulation:
    if args.manifold and args.file:
        raise UsageError("give either --manifold or --file, not both")
    if args.manifold:
        return builtin_manifold(args.manifold)
    if args.file:
        return tri.load(args.file)
    raise UsageError("a manifold is required (--manifold or --file)")


def _oriented(t: tri.Triangulation) -> tri.Triangulation:
    return t if t.signs is not None else tri.orient(t)


def _frobenius_spec(args) -> FrobeniusSpec:
    double = args.m1 is not None or args.m2 is not None
    if double:
        if args.m is not None:
            raise UsageError("give --m or the pair --m1/--m2, not both")
        if args.m1 is None or args.m2 is None:
            raise UsageError("double mode needs both --m1 and --m2")
        return FrobeniusSpec.double(args.p, args.n, args.m1, args.m2)
    return FrobeniusSpec.single(args.p, args.n, args.m if args.m is not None else 0)


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _invariant_payload(t: tri.Triangulation, args) -> dict:
    if args.mode == "form":
        if not t.is_closed():
            raise UsageError("the form invariant needs a closed triangulation; "
                             "use --mode prob for manifolds with boundary")
        inv = form_invariants(gram_matrix(t).matrix)
        return {"mode": "form", "invariants": inv.to_json()}
    spec = _frobenius_spec(args)
    dist = probability_distribution(t, spec, args.model, args.cap)
    return {"mode": "prob", "distribution": dist.to_json()}


def cmd_invariant(args) -> int:
    t = _oriented(_load_manifold(args))
    report = {"command": "invariant", "manifold": t.name}
    report.update(_invariant_payload(t, args))
    _emit(report, args.out)
    return EXIT_OK


def _pick_move(t: tri.Triangulation, kind: str, rng: random.Random | None):
    if kind == "random":
        pool = []
        for k in tri.MOVE_KINDS:
            pool.extend(tri.find_moves(t, k))
        if not pool:
            raise tri.ConfigurationNotFound("no applicable move of any kind")
        return pool[rng.randrange(len(pool))] if rng else pool[0]
    if kind not in tri.MOVE_KINDS:
        raise UsageError(f"unknown move kind {kind!r}")
    found = tri.find_moves(t, kind)
    if not found:
        raise tri.ConfigurationNotFound(f"no applicable {kind} move")
    return found[rng.randrange(len(found))] if rng else found[0]


def cmd_verify(args) -> int:
    if args.random < 0:
        raise UsageError(f"--random takes a count of moves, not {args.random}")
    t = _oriented(_load_manifold(args))
    if args.mode == "form" and not t.is_closed():
        raise UsageError("form-mode verification needs a closed triangulation")
    script = []
    if args.moves:
        script.extend(s.strip() for s in args.moves.split(",") if s.strip())
    script.extend(["random"] * args.random)
    if not script:
        raise UsageError("nothing to verify: give --moves and/or --random N")
    rng = random.Random(args.seed) if args.seed is not None else None

    def snapshot(s: tri.Triangulation):
        if args.mode == "form":
            g = gram_matrix(s)
            return form_invariants(g.matrix), g.dim
        spec = _frobenius_spec(args)
        dist = probability_distribution(s, spec, args.model, args.cap)
        return dist, dist.dim

    base, dim = snapshot(t)
    steps = []
    all_equal = True
    current = t
    for kind in script:
        d = _pick_move(current, kind, rng)
        current = tri.apply_move(current, d)
        value, new_dim = snapshot(current)
        if args.mode == "form":
            # dims grow with moves; the invariant lives modulo zero summands
            equal = value.equivalent(base)
        else:
            equal, _ = distribution_equal(base, value)
        all_equal = all_equal and equal
        steps.append({
            "kind": d.kind,
            "six_vertices": list(d.six_vertices),
            "dim_before": dim,
            "dim_after": new_dim,
            "dim_shift": new_dim - dim,
            "equal": equal,
        })
        dim = new_dim
    report = {
        "command": "verify",
        "manifold": t.name,
        "mode": args.mode,
        "seed": args.seed,
        "initial": base.to_json(),
        "steps": steps,
        "all_equal": all_equal,
    }
    _emit(report, args.out)
    return EXIT_OK


def _check_printable(spec: FrobeniusSpec) -> None:
    """Refuse exponents whose polynomial's degree p^m1 + p^m2 has more digits
    than the interpreter prints (0: no limit), ruling out a huge p^m by
    p^m >= 2^(m * (bit_length(p) - 1)) before computing it; a composite p
    is left to `specialize_double` to name."""
    digits = sys.get_int_max_str_digits()
    if not digits or not is_prime(spec.p):
        return
    limit, p = 10 ** digits, spec.p
    if (max(spec.m1, spec.m2) * (p.bit_length() - 1) >= limit.bit_length()
            or p ** spec.m1 + p ** spec.m2 >= limit):
        flags = "--m" if spec.mode == "single" else "--m1/--m2"
        raise UsageError(f"{flags} too large: the polynomial's degree would have "
                         f"more than {digits} digits")


def cmd_frobenius(args) -> int:
    if args.reference_cubic:
        if any(x is not None for x in (args.p, args.m, args.m1, args.m2)):
            raise UsageError("--reference-cubic is over GF(2) and takes no --p or exponents")
        c = reference_cubic()
        mode = {"kind": "reference-cubic"}
    else:
        if args.p is None:
            raise UsageError("--p is required unless --reference-cubic is given")
        spec = _frobenius_spec(args)
        _check_printable(spec)
        c = specialize_double(spec.p, spec.m1, spec.m2)
        mode = spec.mode_json()
    report = {
        "command": "frobenius",
        "p": c.p,
        "mode": mode,
        "degree": c.degree,
        "polynomial": str(c),
    }
    if args.check or args.reference_cubic:
        report["cocycle"] = is_hexagon_cocycle(c, make_field(c.p))
    _emit(report, args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    t = _oriented(_load_manifold(args))
    report = {"command": "compare"}
    report.update(compare_forms(t))
    _emit(report, args.out)
    return EXIT_OK


def cmd_manifold(args) -> int:
    t = _load_manifold(args)
    oriented = _oriented(t)
    if args.save:
        tri.save(oriented, args.save)
        return EXIT_OK
    report = {
        "command": "manifold",
        "name": t.name,
        "vertices": len(t.vertex_ids),
        "pentachora": len(t.pentachora),
        "tetrahedra": len(t.tetrahedra()),
        "closed": t.is_closed(),
        "euler_characteristic": t.euler_characteristic(),
        "signs": list(oriented.signs),
    }
    _emit(report, args.out)
    return EXIT_OK


def _add_manifold_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifold", choices=sorted(BUILTIN_FILES),
                   help="builtin manifold name")
    p.add_argument("--file", help="triangulation JSON file")


def _add_prob_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, default=2, help="field characteristic")
    p.add_argument("--n", type=int, default=1, help="extension degree")
    p.add_argument("--m", type=int, default=None, help="Frobenius exponent (single mode)")
    p.add_argument("--m1", type=int, default=None, help="first exponent (double mode)")
    p.add_argument("--m2", type=int, default=None, help="second exponent (double mode)")
    p.add_argument("--model", choices=("field", "tensor"), default="field",
                   help="value model for distributions")
    p.add_argument("--cap", type=int, default=None,
                   help="refuse (exit 3) when the coloring space has more points than "
                        "this (default 10^7, or HEXAFORM_CAP)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hexaform",
                     description="PL 4-manifold invariants from hexagon relations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="compute the form or probability invariant")
    _add_manifold_args(p)
    p.add_argument("--mode", choices=("form", "prob"), default="form")
    _add_prob_args(p)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("verify", help="check invariance under Pachner moves")
    _add_manifold_args(p)
    p.add_argument("--mode", choices=("form", "prob"), default="form")
    p.add_argument("--moves", help="comma-separated move kinds, e.g. 1-5,2-4,3-3")
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="append N randomly chosen moves")
    p.add_argument("--seed", type=int, default=None, help="seed for move selection")
    _add_prob_args(p)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("frobenius", help="expand a Frobenius polynomial cocycle")
    p.add_argument("--p", type=int, default=None, help="field characteristic")
    p.add_argument("--m", type=int, default=None, help="Frobenius exponent (single mode)")
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--reference-cubic", action="store_true",
                   help="show the non-Frobenius cubic cocycle instead")
    p.add_argument("--check", action="store_true",
                   help="decide the hexagon cocycle property exactly, by reducing the "
                        "facet sum as a polynomial on the permitted colorings")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    # the polynomial has GF(p) coefficients: its spec is over the prime field
    p.set_defaults(func=cmd_frobenius, n=1)

    p = sub.add_parser("compare", help="hexagon form vs cup-product intersection form")
    _add_manifold_args(p)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("manifold", help="inspect or save a triangulation")
    _add_manifold_args(p)
    p.add_argument("--save", help="write the oriented triangulation to this file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_manifold)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (tri.NonOrientableError, tri.DisconnectedError) as exc:
        print(f"orientation error: {exc}", file=sys.stderr)
        return EXIT_ORIENTATION
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except tri.MoveError as exc:
        print(f"move error: {exc}", file=sys.stderr)
        return EXIT_NO_MOVE
    except tri.MalformedFile as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (KeyError, OSError, FieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
