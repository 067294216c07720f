"""Command-line surface: stable, scriptable output for every operation.

Exit codes: 0 success, 1 usage error or a reader that closed stdout
early, 2 computation failure (orbit or search cap exceeded, failed
certificate, failed witness).

`main(argv)` maps every outcome to its exit code and flushes stdout
once; `run()`, the process entry, only ends the process with that code.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import factoradic  # dynamics, towers and analysis: per command

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


def _over_limit(what: str, digits: int) -> str:
    return (f"{what} has {digits:,} decimal digits, over the limit of "
            f"{factoradic.DIGIT_LIMIT:,}")


def integer(text: str) -> int:
    """argparse type: a sign and up to factoradic.DIGIT_LIMIT ASCII digits."""
    digits = text.strip().lstrip("+-")
    if len(digits) > factoradic.DIGIT_LIMIT:
        raise argparse.ArgumentTypeError(_over_limit("the value", len(digits)))
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)  # int() would read '٣' and '1_000' too
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="facthappy",
                     description="Factorial-base digit-power dynamics toolkit.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("convert", help="convert between integer and digit text")
    p.add_argument("n", nargs="?", type=integer, help="nonnegative integer")
    p.add_argument("--digits", help="digit text such as 2.4.4.0.2.0!")

    p = sub.add_parser("orbit", help="classify one orbit")
    p.add_argument("n", type=integer)
    p.add_argument("--e", type=integer, required=True)
    p.add_argument("--trace", action="store_true",
                   help="print step<TAB>value<TAB>digits per step")
    p.add_argument("--cap", type=integer)  # default: DEFAULT_ORBIT_CAP

    p = sub.add_parser("attractors", help="fixed points and cycles for e")
    p.add_argument("--e", type=integer, required=True)
    p.add_argument("--format", choices=("csv",), default=None)

    p = sub.add_parser("bound", help="certified descent bound for e")
    p.add_argument("--e", type=integer, required=True)

    p = sub.add_parser("nice", help="check an offset against all attractor members")
    p.add_argument("--e", type=integer, required=True)
    p.add_argument("--p", type=integer, required=True)
    p.add_argument("--l", type=integer, required=True)

    p = sub.add_parser("build", help="build a consecutive-run certificate")
    p.add_argument("--e", type=integer, required=True)
    p.add_argument("--p", type=integer, required=True)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--l", type=integer, default=None,
                   help="offset override (default: built-in table)")
    p.add_argument("--format", choices=("json",), default=None)

    p = sub.add_parser("runs", help="smallest runs of consecutive p-happy numbers")
    p.add_argument("--e", type=integer, required=True)
    p.add_argument("--p", type=integer, default=1)
    p.add_argument("--max-m", type=integer, required=True)
    p.add_argument("--floor", type=integer, choices=(1, 2), default=2)
    p.add_argument("--cap", type=integer)  # default: DEFAULT_SEARCH_CAP
    p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("density", help="attractor tallies over [1, upper]")
    p.add_argument("--e", type=integer, required=True)
    p.add_argument("--upper", type=integer, required=True)
    p.add_argument("--format", choices=("csv", "json"), default=None)

    return parser


def _attractor_phrase(att) -> str:
    return f"{att.kind.replace('_', ' ')} {att.text}"


def _cmd_convert(args) -> int:
    if (args.n is None) == (args.digits is None):
        raise UsageError("convert needs exactly one of <n> or --digits")
    if args.digits is not None:
        value = factoradic.to_natural(factoradic.parse(args.digits))
        if value >= 10 ** factoradic.DIGIT_LIMIT:
            raise UsageError(_over_limit(
                "the result", factoradic._decimal_digits(value)))
        print(value)
    else:
        if args.n < 0:
            raise UsageError("n must be nonnegative")
        print(factoradic.format(factoradic.to_factoradic(args.n)))
    return 0


def _cmd_orbit(args) -> int:
    from . import dynamics
    cap = dynamics.DEFAULT_ORBIT_CAP if args.cap is None else args.cap
    report = dynamics.classify(args.n, args.e, cap=cap, trace=args.trace)
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
    from . import dynamics
    atlas = dynamics.enumerate_attractors(args.e)
    if args.format == "csv":
        print("kind,members")
        for att in atlas.attractors:
            print(f"{att.kind},{';'.join(str(m) for m in att.members)}")
        return 0
    print(f"e: {atlas.e}")
    print(f"bound: {atlas.bound}")
    print("fixed points: " + ", ".join(str(p) for p in atlas.fixed_points))
    print("cycles: " + (", ".join(att.text for att in atlas.cycles) or "none"))
    return 0


def _cmd_bound(args) -> int:
    from . import dynamics
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
    from . import dynamics, towers
    atlas = dynamics.enumerate_attractors(args.e)
    witness = towers.nice_check(args.e, args.p, args.l, atlas)
    print(f"e: {witness.e}")
    print(f"p: {witness.p}")
    print(f"l: {witness.offset}")
    for u in sorted(witness.q_by_member):
        print(f"u={u}: q={witness.q_by_member[u]}")
    return 0


def _cmd_build(args) -> int:
    from . import dynamics, towers
    towers._check_run_length(args.m)
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
    from . import analysis, dynamics
    cap = analysis.DEFAULT_SEARCH_CAP if args.cap is None else args.cap
    atlas = dynamics.enumerate_attractors(args.e)
    search = analysis.smallest_runs(
        args.e, args.p, args.max_m, atlas,
        search_floor=args.floor, search_cap=cap)
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
        raise factoradic.ComputationError(
            f"search cap {search.search_cap} reached before all lengths "
            f"were resolved")
    return 0


def _cmd_density(args) -> int:
    from . import analysis, dynamics
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


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            code = _DISPATCH[args.command](args)
        except SystemExit as exc:  # --help
            code = exc.code or 0
        except (UsageError, ValueError, factoradic.ComputationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2 if isinstance(exc, factoradic.ComputationError) else 1
        sys.stdout.flush()  # here, so no flush after main can raise
        return code
    except BrokenPipeError:  # the reader has gone: drop what is buffered
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def run() -> None:
    """Run main on sys.argv and end by os._exit, skipping teardown.

    With a trace, profile or monitoring hook set it raises SystemExit
    instead, so the hook's owner (coverage, cProfile) can finish.
    """
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # cProfile's from 3.12
    if (sys.gettrace() or sys.getprofile()
            or monitoring and any(map(monitoring.get_tool, range(6)))):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
