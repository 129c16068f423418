"""Command-line front end.

Subcommands: encode, extract, repair, analyze, oracle. Exit codes:

    0  success (for repair: every rebuilt column verified)
    1  repair ran but verification failed
    2  bad parameters
    3  I/O failure
    4  unrecoverable erasure pattern
    5  oracle result contradicts the closed form
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from itertools import combinations

from . import analysis, container, simnet
from .codes import FAMILIES, Code
from .core import (
    CorruptionError,
    OracleMismatch,
    ParameterError,
    UnrecoverableError,
    is_prime,
)
from .planner import plan_star_double, plan_to_json

__all__ = ["main"]


def _add_encode(sub) -> None:
    enc = sub.add_parser("encode", help="encode a file into a container")
    enc.add_argument("input")
    enc.add_argument("output")
    enc.add_argument("--family", required=True, choices=sorted(FAMILIES))
    enc.add_argument("--p", type=int, required=True)
    enc.add_argument("--r", type=int, default=None)
    enc.add_argument("--block-size", type=int, default=16)


def _add_extract(sub) -> None:
    ext = sub.add_parser("extract", help="recover the original file")
    ext.add_argument("input")
    ext.add_argument("output")


def _add_repair(sub) -> None:
    rep = sub.add_parser("repair", help="fail columns and rebuild them")
    rep.add_argument("input")
    rep.add_argument("--fail", required=True,
                     help="comma-separated column numbers")
    rep.add_argument("--strategy", choices=["paper", "naive"], default="paper")
    rep.add_argument("--report", help="write the session report JSON here")
    rep.add_argument("--plan", help="write the first repair plan JSON here")


def _add_analyze(sub) -> None:
    ana = sub.add_parser("analyze", help="bandwidth sweep over primes")
    ana.add_argument("--family", required=True, choices=sorted(FAMILIES))
    ana.add_argument("--p-range", required=True,
                     help="single prime or inclusive range lo:hi")
    ana.add_argument("--r", type=int, default=3)
    ana.add_argument("--csv", help="write the sweep as CSV here")


def _add_oracle(sub) -> None:
    orc = sub.add_parser("oracle", help="check closed forms by enumeration")
    orc.add_argument("--mode", required=True,
                     choices=["evenodd-min", "f-check", "star-validate"])
    orc.add_argument("--p", type=int, required=True)
    orc.add_argument("--r", type=int, default=3)


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: with only the subcommand ``argv[0]`` names,
    or every subcommand when it names none (``--help``, no arguments, an
    unknown command), so usage text and errors list them all."""
    ap = argparse.ArgumentParser(prog="arraycode",
                                 description="Binary MDS array codes with "
                                             "bandwidth-efficient repair")
    sub = ap.add_subparsers(dest="cmd", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (add, _) in _COMMANDS.items():
        if named in (None, name):
            add(sub)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv).parse_args(argv)
    try:
        return _COMMANDS[args.cmd][1](args)
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 5
    except (UnrecoverableError, CorruptionError) as exc:
        print(f"unrecoverable: {exc}", file=sys.stderr)
        return 4
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _cmd_encode(args) -> int:
    code = Code.make(args.family, args.p, args.r)
    if args.block_size < 1:
        raise ParameterError(f"block size must be positive, got {args.block_size}")
    with open(args.input, "rb") as fh:  # closed before the output opens: they may be one file
        st, cap = os.fstat(fh.fileno()), container.capacity(code, args.block_size)
        if stat.S_ISREG(st.st_mode) and st.st_size > cap:  # a pipe's excess shows in the read
            raise container.ContainerError(f"payload exceeds capacity {cap} bytes")
        grid, length = container.encode_payload(code, fh, args.block_size)
    container.write_container(args.output, grid, length)
    m = code.total_info_blocks
    print(f"family={code.family} p={code.p} r={code.r} "
          f"n={code.n} k={code.k} M={m} blocks "
          f"overhead={code.n / code.k:.3f}")
    print(f"wrote {args.output}: {length} payload bytes in "
          f"{m * args.block_size} data bytes")
    return 0


def _cmd_extract(args) -> int:
    grid, payload_length = container.read_container(args.input)
    if os.path.exists(args.output) and os.path.samefile(args.input, args.output):
        grid = grid.copy()  # opening the output truncates the pages the grid maps
    with open(args.output, "wb") as fh:
        container.extract_payload(grid, payload_length, fh)
    print(f"extracted {payload_length} bytes to {args.output}")
    return 0


def _parse_cols(text: str) -> list[int]:
    try:
        cols = sorted({int(tok) for tok in text.split(",")})
    except ValueError:
        raise ParameterError(f"bad column list {text!r}") from None
    return cols


def _cmd_repair(args) -> int:
    grid, _ = container.read_container(args.input)
    cluster = simnet.cluster_from_grid(grid)
    failed = _parse_cols(args.fail)
    simnet.fail_nodes(cluster, failed)
    results = [simnet.run_repair(cluster, target, args.strategy)
               for target in failed]
    report = simnet.session_report(cluster, failed, args.strategy, results)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(json.dumps(report, indent=2))
    if args.plan:
        planned = next((r for r in results if r.plan is not None), None)
        doc = (plan_to_json(planned.plan) if planned
               else {"note": "no parity-group plan; every repair ran naive"})
        with open(args.plan, "w") as fh:
            fh.write(json.dumps(doc, indent=2))
    for res in results:
        print(f"node {res.target}: {res.strategy_used} strategy, "
              f"{res.ledger.total_blocks} blocks, "
              f"{'verified' if res.verified else 'MISMATCH'}")
    print(f"session {report['session']}: gamma_blocks={report['gamma_blocks']} "
          f"gamma_bytes={report['gamma_bytes']}")
    return 0 if report["verified"] else 1


def _parse_p_range(text: str) -> list[int]:
    lo_s, sep, hi_s = text.partition(":")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise ParameterError(f"bad prime range {text!r}") from None
    primes = [p for p in range(lo, hi + 1) if is_prime(p) and p >= 3]
    if not primes:
        raise ParameterError(f"no odd primes in range {text!r}")
    return primes


def _cmd_analyze(args) -> int:
    min_p = FAMILIES[args.family].lowest_p(args.r)
    primes = [p for p in _parse_p_range(args.p_range) if p >= min_p]
    if not primes:
        raise ParameterError(f"{args.family} needs primes >= {min_p}")
    reports = analysis.bandwidth_sweep(args.family, primes, args.r)
    header = ["family", "p", "r", "erased", "gamma", "bound", "naive",
              "ratio", "cutset"]
    print("  ".join(f"{h:>8}" for h in header))
    for rep in reports:
        print("  ".join(f"{str(v):>8}" for v in rep.row()))
    if args.csv:
        analysis.write_report_csv(reports, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_oracle(args) -> int:
    p = args.p
    if args.mode == "evenodd-min":
        got, got_x = analysis.brute_force_min_single(p)
        want = analysis.evenodd_min_bandwidth(p)
        want_x = analysis.evenodd_optimal_x(p)
        if got != want or got_x != want_x:
            raise OracleMismatch(
                f"enumeration min={got} at x={sorted(got_x)}, "
                f"closed form {want} at x={sorted(want_x)}")
        print(f"PASS evenodd-min p={p}: min={got} optimal_x={sorted(got_x)}")
        return 0
    if args.mode == "f-check":
        r = args.r
        Code("evenodd-ext", p, r)  # refuses an r the extended code does not allow
        part = analysis.default_partition(p, r)
        checked = 0
        for k in range(2, r + 1):
            for classes in combinations(range(r), k):
                a = analysis.common_block_count(p, part, classes)
                b = analysis.common_block_oracle(p, part, classes)
                if a != b:
                    raise OracleMismatch(
                        f"classes {classes}: arithmetic count {a}, "
                        f"enumeration {b}")
                checked += 1
        print(f"PASS f-check p={p} r={r}: {checked} class subsets agree")
        return 0
    # star-validate
    if p < 5:
        raise ParameterError("star-validate needs p >= 5")
    want = analysis.star_symmetry_saving(p)
    code = Code.make("star", p)
    for x in range(1, p):
        plan = plan_star_double(code, (1, 1 + x))
        if plan.meta["savings"] != want:
            raise OracleMismatch(
                f"x={x}: measured savings {plan.meta['savings']}, "
                f"closed form {want}")
        if plan.meta["parity_values"] != 3 * (p - 1) // 2:
            raise OracleMismatch(
                f"x={x}: {plan.meta['parity_values']} parity groups, "
                f"expected {3 * (p - 1) // 2}")
    print(f"PASS star-validate p={p}: schedule solvable for all x, savings={want}")
    return 0


# each command's parser builder and handler, in the order help lists them
_COMMANDS = {"encode": (_add_encode, _cmd_encode), "extract": (_add_extract, _cmd_extract),
             "repair": (_add_repair, _cmd_repair), "analyze": (_add_analyze, _cmd_analyze),
             "oracle": (_add_oracle, _cmd_oracle)}


if __name__ == "__main__":
    sys.exit(main())
