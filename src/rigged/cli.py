"""Command-line surface: map configurations, trace moves, evaluate characters, verify.

Exit codes: 0 on success (and on verified), 1 when a verification fails,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import identities
from .bijection import RiggedPartition, iota, kappa
from .characters import chi_closed, config_sum
from .configuration import Configuration
from .moves import left_move, lowest_particle, highest_particle, passing_history, right_move


def _parse_config(text: str) -> Configuration:
    try:
        return Configuration.from_text(text)
    except Exception as exc:
        raise ValueError(f"cannot parse configuration {text!r}: {exc}") from None


def _parse_partition(text: str) -> RiggedPartition:
    try:
        return RiggedPartition.from_json_dict(json.loads(text))
    except Exception as exc:
        raise ValueError(f"cannot parse rigged partition {text!r}: {exc}") from None


def _cmd_map(args: argparse.Namespace) -> tuple[object, str, int]:
    value = iota(_parse_config(args.config), args.k).to_json_dict()
    return value, json.dumps(value), 0


def _cmd_unmap(args: argparse.Namespace) -> tuple[object, str, int]:
    cfg = kappa(_parse_partition(args.partition), args.k)
    return cfg.to_json_dict(), cfg.to_text(), 0


def _cmd_trace(args: argparse.Namespace) -> tuple[object, str, int]:
    given = {"right": args.right is not None, "left": args.left is not None, "pass": args.do_pass}
    chosen = [name for name, on in given.items() if on]
    if len(chosen) != 1:
        raise ValueError("trace needs exactly one of --right N, --left N, or --pass")
    (direction,) = chosen
    cfg = _parse_config(args.config)
    k, l = args.k, args.l
    if direction == "pass":
        nodes, result = passing_history(cfg, k, l)
        value = {
            "nodes": [{"kind": kind, "position": pos, "config": c.to_json_dict()} for kind, pos, c in nodes],
            "result": result.to_json_dict(),
        }
        lines = [f"{kind}@{pos}  {c.to_text()}" for kind, pos, c in nodes] + [f"result  {result.to_text()}"]
        return value, "\n".join(lines), 0
    steps = args.right if direction == "right" else args.left
    if steps < 0:
        raise ValueError(f"--{direction} must be non-negative")
    move, sight = (right_move, highest_particle) if direction == "right" else (left_move, lowest_particle)
    chain = [cfg]
    for _ in range(steps):
        chain.append(move(chain[-1], k, l))
    sightings = [sight(c, k, l) for c in chain]
    notes = [f"{s.kind}@{s.position}" if s else "-" for s in sightings]
    value = [{"config": c.to_json_dict(), "particle": note} for c, note in zip(chain, notes)]
    return value, "\n".join(f"{c.to_text()}  [{note}]" for c, note in zip(chain, notes)), 0


def _cmd_chi(args: argparse.Namespace) -> tuple[object, str, int]:
    poly = chi_closed(args.k, args.l, args.a, args.b, args.N)
    return poly.to_json_dict(), poly.to_text(), 0


def _cmd_sum(args: argparse.Namespace) -> tuple[object, str, int]:
    poly = config_sum(args.k, args.r, a0=args.a0, a1=args.a1, N=args.N, max_degree=args.max_degree)
    return poly.to_json_dict(), poly.to_text(), 0


def _required(args: argparse.Namespace, name: str) -> int:
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"missing required flag --{name}")
    return value


def _verify_init(args: argparse.Namespace) -> list[identities.VerifyReport]:
    """One (a, b) family when either column is given, else every family and their cover."""
    k, l, N = args.k, _required(args, "l"), args.N
    if args.a is not None or args.b is not None:
        return [identities.verify_init(k, l, _required(args, "a"), _required(args, "b"), N)]
    reports = [identities.verify_init(k, l, a, b, N) for a in range(l + 1) for b in range(l + 1 - a)]
    return reports + [identities.verify_init_cover(k, l, N)]


def _verify_shift(args: argparse.Namespace) -> list[identities.VerifyReport]:
    l = _required(args, "l")
    return [identities.verify_shift(args.k, l, identities.shift_sample_space(args.k, l, args.width))]


# The ``verify`` checks, in the order ``--help`` lists them: each maps the flags it reads, by argparse
# destination, to their defaults, and makes its reports.  Each looks its ``identities.verify_*``
# function up when it runs, so rebinding one reaches the CLI.
_CHECKS = {
    "roundtrip": ({"k": None, "N": 6}, lambda args: [identities.verify_roundtrip(args.k, args.N)]),
    "gordon": ({"k": None, "max_degree": 20}, lambda args: [identities.verify_gordon(args.k, args.max_degree)]),
    "gordon-r2": ({"k": None, "max_degree": 20}, lambda args: [identities.verify_gordon_r2(args.k, args.max_degree)]),
    "polynomial": (
        {"k": None, "l": None, "a": None, "b": None, "N": 6},
        lambda args: [
            identities.verify_polynomial_identity(
                args.k, _required(args, "l"), _required(args, "a"), _required(args, "b"), args.N
            )
        ],
    ),
    "init": ({"k": None, "l": None, "a": None, "b": None, "N": 6}, _verify_init),
    "boundary": (
        {"k": None, "l": None, "N": 6}, lambda args: [identities.verify_boundary(args.k, _required(args, "l"), args.N)]
    ),
    "recursion": (
        {"k": None, "l": None, "N": 4}, lambda args: [identities.verify_recursion(_required(args, "l"), args.k, args.N)]
    ),
    "shift": ({"k": None, "l": None, "width": 6}, _verify_shift),
    "golden": ({}, lambda args: [identities.verify_golden()]),
    "all": (
        {"k": 3, "N": 6, "max_degree": 20},
        lambda args: identities.verify_all(k_max=args.k, n_max=args.N, max_degree=args.max_degree),
    ),
}

#: Every optional ``verify`` flag, by its argparse destination; each defaults to None.
_VERIFY_FLAGS = ("k", "l", "a", "b", "N", "max_degree", "width")


def _cmd_verify(args: argparse.Namespace) -> tuple[object, str, int]:
    reads, run = _CHECKS[args.what]
    for name, default in reads.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    reports = run(args)
    value = [r.to_json_dict() for r in reports]
    return value, "\n".join(map(str, reports)), 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rigged", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", type=int, required=True, help="admissibility level")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("map", help="configuration -> rigged partition")
    add_common(p)
    p.add_argument("--config", required=True, help="offset:c0,c1,... (offset optional)")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("unmap", help="rigged partition -> configuration")
    add_common(p)
    p.add_argument("--partition", required=True, help='JSON like {"parts": [{"weight": 3, "rigging": 0}]}')
    p.set_defaults(func=_cmd_unmap)

    p = sub.add_parser("trace", help="print a move chain or a passing history")
    add_common(p)
    p.add_argument("--l", type=int, required=True, help="particle weight")
    p.add_argument("--config", required=True)
    p.add_argument("--right", type=int, help="number of right moves")
    p.add_argument("--left", type=int, help="number of left moves")
    p.add_argument("--pass", dest="do_pass", action="store_true", help="pass a weight-l probe through")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("chi", help="closed-form character polynomial")
    add_common(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("sum", help="energy generating function over configurations")
    add_common(p)
    p.add_argument("--r", type=int, default=3, choices=(2, 3), help="window size")
    p.add_argument("--a0", type=int)
    p.add_argument("--a1", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--max-degree", type=int)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("verify", help="run identity and property checks")
    p.add_argument("what", choices=tuple(_CHECKS))
    p.add_argument("--k", type=int, help="level (or level cap for 'all')")
    p.add_argument("--l", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--width", type=int, help="support width for shift samples")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def _attach_negative_configs(argv: list[str]) -> list[str]:
    """Rewrite ``--config -5:1,1`` as ``--config=-5:1,1``.

    argparse takes a token that starts with ``-`` and is not a plain number
    for a flag, so a configuration with a negative offset would otherwise
    leave ``--config`` without its value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--config" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"--config={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_configs(sys.argv[1:] if argv is None else argv))
    if args.command == "verify":
        if args.what not in ("all", "golden") and args.k is None:
            parser.error("verify needs --k")
        reads = _CHECKS[args.what][0]
        unread = [name for name in _VERIFY_FLAGS if getattr(args, name) is not None and name not in reads]
        if unread:
            flags = ", ".join("--" + name.replace("_", "-") for name in unread)
            parser.error(f"verify {args.what} does not read {flags}")
    try:
        value, text, code = args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(value) if args.json else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
