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


def _cmd_map(args: argparse.Namespace) -> int:
    cfg = _parse_config(args.config)
    rp = iota(cfg, args.k)
    print(json.dumps(rp.to_json_dict()))
    return 0


def _cmd_unmap(args: argparse.Namespace) -> int:
    rp = _parse_partition(args.partition)
    cfg = kappa(rp, args.k)
    if args.json:
        print(json.dumps(cfg.to_json_dict()))
    else:
        print(cfg.to_text())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    given = {"right": args.right is not None, "left": args.left is not None, "pass": args.do_pass}
    chosen = [name for name, on in given.items() if on]
    if len(chosen) != 1:
        raise ValueError("trace needs exactly one of --right N, --left N, or --pass")
    (direction,) = chosen
    cfg = _parse_config(args.config)
    k, l = args.k, args.l
    if direction == "pass":
        nodes, result = passing_history(cfg, k, l)
        if args.json:
            print(
                json.dumps(
                    {
                        "nodes": [
                            {"kind": kind, "position": pos, "config": c.to_json_dict()}
                            for kind, pos, c in nodes
                        ],
                        "result": result.to_json_dict(),
                    }
                )
            )
        else:
            for kind, pos, c in nodes:
                print(f"{kind}@{pos}  {c.to_text()}")
            print(f"result  {result.to_text()}")
        return 0
    steps = args.right if direction == "right" else args.left
    if steps < 0:
        raise ValueError(f"--{direction} must be non-negative")
    chain = [cfg]
    for _ in range(steps):
        chain.append(right_move(chain[-1], k, l) if direction == "right" else left_move(chain[-1], k, l))
    lines = []
    for c in chain:
        sight = highest_particle(c, k, l) if direction == "right" else lowest_particle(c, k, l)
        note = f"{sight.kind}@{sight.position}" if sight else "-"
        lines.append((c, note))
    if args.json:
        print(
            json.dumps(
                [{"config": c.to_json_dict(), "particle": note} for c, note in lines]
            )
        )
    else:
        for c, note in lines:
            print(f"{c.to_text()}  [{note}]")
    return 0


def _cmd_chi(args: argparse.Namespace) -> int:
    poly = chi_closed(args.k, args.l, args.a, args.b, args.N)
    print(json.dumps(poly.to_json_dict()) if args.json else poly.to_text())
    return 0


def _cmd_sum(args: argparse.Namespace) -> int:
    poly = config_sum(args.k, args.r, a0=args.a0, a1=args.a1, N=args.N, max_degree=args.max_degree)
    print(json.dumps(poly.to_json_dict()) if args.json else poly.to_text())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    which = args.what
    if which == "roundtrip":
        reports = [identities.verify_roundtrip(args.k, args.N if args.N is not None else 6)]
    elif which == "gordon":
        reports = [identities.verify_gordon(args.k, args.max_degree)]
    elif which == "gordon-r2":
        reports = [identities.verify_gordon_r2(args.k, args.max_degree)]
    elif which == "polynomial":
        reports = [
            identities.verify_polynomial_identity(
                args.k, _required(args.l, "--l"), _required(args.a, "--a"), _required(args.b, "--b"),
                args.N if args.N is not None else 6,
            )
        ]
    elif which == "init":
        l = _required(args.l, "--l")
        N = args.N if args.N is not None else 6
        if args.a is not None or args.b is not None:
            reports = [identities.verify_init(args.k, l, _required(args.a, "--a"), _required(args.b, "--b"), N)]
        else:
            reports = [
                identities.verify_init(args.k, l, a, b, N)
                for a in range(l + 1)
                for b in range(l + 1 - a)
            ]
            reports.append(identities.verify_init_cover(args.k, l, N))
    elif which == "boundary":
        reports = [identities.verify_boundary(args.k, _required(args.l, "--l"), args.N if args.N is not None else 6)]
    elif which == "recursion":
        reports = [identities.verify_recursion(_required(args.l, "--l"), args.k, args.N if args.N is not None else 4)]
    elif which == "shift":
        l = _required(args.l, "--l")
        samples = identities.shift_sample_space(args.k, l, args.width)
        reports = [identities.verify_shift(args.k, l, samples)]
    elif which == "golden":
        reports = [identities.verify_golden()]
    elif which == "all":
        reports = identities.verify_all(
            k_max=args.k if args.k is not None else 3,
            n_max=args.N if args.N is not None else 6,
            max_degree=args.max_degree,
        )
    else:
        raise ValueError(f"unknown verification {which!r}")
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports]))
    else:
        for r in reports:
            print(r)
    return 0 if all(r.passed for r in reports) else 1


def _required(value, flag: str):
    if value is None:
        raise ValueError(f"missing required flag {flag}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rigged", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, need_k: bool = True) -> None:
        if need_k:
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
    p.add_argument(
        "what",
        choices=(
            "roundtrip",
            "gordon",
            "gordon-r2",
            "polynomial",
            "init",
            "boundary",
            "recursion",
            "shift",
            "golden",
            "all",
        ),
    )
    p.add_argument("--k", type=int, help="level (or level cap for 'all')")
    p.add_argument("--l", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--max-degree", type=int, default=20)
    p.add_argument("--width", type=int, default=6, help="support width for shift samples")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.what not in ("all", "golden") and args.k is None:
        parser.error("verify needs --k")
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
