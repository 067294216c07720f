"""Command-line surface: stable, scriptable output for every operation.

Exit codes: 0 success, 1 usage error, 2 computation failure (orbit or
search cap exceeded, failed certificate, failed witness).
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, dynamics, factoradic, towers

# Offsets known to steer every attractor member to the given fixed
# point, so `build` works out of the box for e in {2, 3, 4}.
BUILTIN_OFFSETS = {
    (2, 1): 20, (2, 4): 2841, (2, 5): 45,
    (3, 1): 2, (3, 16): 50127, (3, 17): 4506,
    (4, 1): 6, (4, 658): 65763, (4, 659): 31743,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="facthappy",
                     description="Factorial-base digit-power dynamics toolkit.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("convert", help="convert between integer and digit text")
    p.add_argument("n", nargs="?", type=int, help="nonnegative integer")
    p.add_argument("--digits", help="digit text such as 2.4.4.0.2.0!")

    p = sub.add_parser("orbit", help="classify one orbit")
    p.add_argument("n", type=int)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--trace", action="store_true",
                   help="print step<TAB>value<TAB>digits per step")
    p.add_argument("--cap", type=int, default=dynamics.DEFAULT_ORBIT_CAP)

    p = sub.add_parser("attractors", help="fixed points and cycles for e")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--format", choices=("csv",), default=None)

    p = sub.add_parser("bound", help="certified descent bound for e")
    p.add_argument("--e", type=int, required=True)

    p = sub.add_parser("nice", help="check an offset against all attractor members")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--cap", type=int, default=1000)

    p = sub.add_parser("build", help="build a consecutive-run certificate")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, default=None,
                   help="offset override (default: built-in table)")
    p.add_argument("--format", choices=("json",), default=None)

    p = sub.add_parser("runs", help="smallest runs of consecutive p-happy numbers")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--floor", type=int, choices=(1, 2), default=2)
    p.add_argument("--cap", type=int, default=analysis.DEFAULT_SEARCH_CAP)
    p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("density", help="attractor tallies over [1, upper]")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--upper", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default=None)

    return parser


def _attractor_phrase(att: dynamics.Attractor) -> str:
    return f"{att.kind.replace('_', ' ')} {att.text}"


def _cmd_convert(args) -> int:
    if (args.n is None) == (args.digits is None):
        raise UsageError("convert needs exactly one of <n> or --digits")
    if args.digits is not None:
        print(factoradic.to_natural(factoradic.parse(args.digits)))
    else:
        if args.n < 0:
            raise UsageError("n must be nonnegative")
        print(factoradic.format(factoradic.to_factoradic(args.n)))
    return 0


def _cmd_orbit(args) -> int:
    report = dynamics.classify(args.n, args.e, cap=args.cap, trace=args.trace)
    if args.trace:
        for step, value in enumerate(report.trajectory):
            digits = factoradic.format(factoradic.to_factoradic(value))
            print(f"{step}\t{value}\t{digits}")
    print(f"start: {report.start}")
    print(f"e: {report.e}")
    print(f"steps: {report.steps_to_attractor}")
    print(f"attractor: {_attractor_phrase(report.attractor)}")
    return 0


def _cmd_attractors(args) -> int:
    atlas = dynamics.enumerate_attractors(args.e)
    if args.format == "csv":
        print("kind,members")
        for att in atlas.attractors:
            print(f"{att.kind},{';'.join(str(m) for m in att.members)}")
        return 0
    print(f"e: {atlas.e}")
    print(f"bound: {atlas.bound}")
    print("fixed points: " + ", ".join(str(p) for p in atlas.fixed_points))
    if atlas.cycles:
        print("cycles: " + ", ".join(att.text for att in atlas.cycles))
    else:
        print("cycles: none")
    return 0


def _cmd_bound(args) -> int:
    bound = dynamics.descent_bound(args.e)
    print(f"e: {bound.e}")
    print(f"j: {bound.j}")
    print(f"bound: {bound.bound}")
    print(f"tail_offset: {bound.tail_offset}")
    if bound.certificate_ok:
        print("certificate: ok")
        return 0
    print("certificate: FAILED (" + ", ".join(bound.failed_checks) + ")")
    return 2


def _cmd_nice(args) -> int:
    atlas = dynamics.enumerate_attractors(args.e)
    witness = towers.nice_check(args.e, args.p, args.l, atlas, cap=args.cap)
    print(f"e: {witness.e}")
    print(f"p: {witness.p}")
    print(f"l: {witness.offset}")
    for u in sorted(witness.q_by_member):
        print(f"u={u}: q={witness.q_by_member[u]}")
    return 0


def _cmd_build(args) -> int:
    offset = args.l
    if offset is None:
        offset = BUILTIN_OFFSETS.get((args.e, args.p))
        if offset is None:
            raise UsageError(
                f"no built-in offset for (e={args.e}, p={args.p}); pass --l")
    atlas = dynamics.enumerate_attractors(args.e)
    witness = towers.nice_check(args.e, args.p, offset, atlas)
    cert = towers.build_sequence(args.e, args.p, args.m, witness, atlas)
    if args.format == "json":
        print(towers.certificate_to_json(cert))
        return 0
    print(f"e: {cert.e}")
    print(f"p: {cert.p}")
    print(f"m: {cert.m}")
    print(f"r: {cert.r}")
    print(f"t: {cert.t}")
    print(f"l: {cert.offset}")
    print(f"size: {cert.size_note}")
    for i in sorted(cert.steps_by_index):
        print(f"i={i}: {cert.steps_by_index[i]} steps")
    return 0


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_runs(args) -> int:
    atlas = dynamics.enumerate_attractors(args.e)
    search = analysis.smallest_runs(
        args.e, args.p, args.max_m, atlas,
        search_floor=args.floor, search_cap=args.cap)
    if args.format is not None:
        _emit(analysis.emit_report(search, args.format))
    else:
        print(f"e: {search.e}")
        print(f"p: {search.p}")
        print(f"floor: {search.search_floor}")
        for record in search.records:
            print(f"m={record.m}: start {record.start}")
        if not search.complete:
            print(f"m={len(search.records) + 1}: not found below {search.search_cap}")
    if not search.complete:
        print(f"error: search cap {search.search_cap} reached before all "
              f"lengths were resolved", file=sys.stderr)
        return 2
    return 0


def _cmd_density(args) -> int:
    atlas = dynamics.enumerate_attractors(args.e)
    report = analysis.density(args.e, args.upper, atlas)
    if args.format is not None:
        _emit(analysis.emit_report(report, args.format))
        return 0
    print(f"e: {report.e}")
    print(f"upper: {report.upper}")
    for att, count in report.counts.items():
        if count:
            print(f"{att.text}: {count} ({count}/{report.upper})")
    return 0


_DISPATCH = {
    "convert": _cmd_convert,
    "orbit": _cmd_orbit,
    "attractors": _cmd_attractors,
    "bound": _cmd_bound,
    "nice": _cmd_nice,
    "build": _cmd_build,
    "runs": _cmd_runs,
    "density": _cmd_density,
}

_FAILURES = (
    dynamics.CertificationError,
    dynamics.OrbitCapError,
    towers.WitnessError,
    towers.ReplayError,
    towers.SizeCapError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return exc.code or 0
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
