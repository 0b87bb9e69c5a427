"""Command line front end: sort, analyze, seq, verify, export.

Every command is a thin wrapper over the library; outputs are byte-identical
to calling the corresponding functions directly. Exit codes: 0 success,
1 verification failure, 2 usage or parse error (input that is not UTF-8
included), 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analytics, engine, netbuild, rankcore
from .errors import DimensionError, InvalidKey, RankNetError
from .netbuild import Builder

__all__ = ["main"]


def _parse_numbers(text: str) -> np.ndarray:
    """Keys from comma or whitespace separated numbers.

    All-integer input that fits 64 bits stays exact. Other input, with a
    decimal token or an integer beyond 64 bits, is read as float64, and an
    integer token that float64 would round is refused.
    """
    tokens = text.replace(",", " ").split()
    try:
        keys = np.asarray([int(t) for t in tokens])
    except ValueError:  # not all integers
        keys = None
    # numpy holds integers beyond 64 bits as Python objects
    if keys is None or keys.dtype == object:
        try:
            keys = np.asarray([float(t) for t in tokens])
        except ValueError as exc:
            raise InvalidKey(str(exc)) from None
    if keys.dtype.kind == "f":
        # float64 holds every integer below 2**53 exactly
        for i in np.flatnonzero(np.abs(keys) >= 2**53).tolist():
            try:
                exact = int(tokens[i]) == float(keys[i])
            except ValueError:  # a decimal token
                continue
            if not exact:
                raise InvalidKey(f"integer {tokens[i]} cannot be held exactly as a float64")
    return rankcore.as_keys(keys)


def _fmt(values) -> str:
    return ",".join(str(v) for v in values)


def cmd_sort(args) -> int:
    if args.input:
        with open(args.input) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    x = _parse_numbers(text)
    if x.size == 1:
        pi = np.zeros(1, dtype=np.int64)
    else:
        pi = engine.execute(netbuild.build_network(x.size, args.algo), x)
    print(f"pi: {_fmt(pi.tolist())}")
    print(f"sorted: {_fmt(engine.apply_permutation(x, pi).tolist())}")
    return 0


def cmd_analyze(args) -> int:
    prof = analytics.complexity_profile(args.n)
    print(f"N: {prof.n}")
    print(
        "levels per prime: "
        + ", ".join(f"{p}={c}" for p, c in sorted(prof.level_coeffs.items()))
    )
    print(
        "comparators per prime: "
        + ", ".join(f"{p}={c}" for p, c in sorted(prof.comparator_coeffs.items()))
    )
    print(f"partial rank count |L_N|: {prof.partial_rank_count}")
    print(f"addition complexity: {prof.addition_complexity}")
    print(f"total comparators |C_N|: {prof.total_comparators}")
    print(f"binary equivalent: {prof.binary_equivalent}")
    return 0


_SEQ_FUNCS = {
    "levels": (2, analytics.partial_rank_count),
    "comparators": (1, analytics.total_comparators),
    "adds": (2, analytics.addition_complexity),
}


def cmd_seq(args) -> int:
    start, fn = _SEQ_FUNCS[args.kind]
    if args.max < start:
        raise DimensionError(f"seq --kind {args.kind} needs --max >= {start}")
    lines = [f"{n},{fn(n)}" for n in range(start, args.max + 1)]
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _verify_networks(max_n: int, samples: int, rng) -> str | None:
    """Build each network once, check its pair coverage, then its samples'
    ranks against stable_rank; the first FAIL line, or None."""
    for n in range(2, max_n + 1):
        for builder in Builder:
            net = netbuild.build_network(n, builder)
            report = netbuild.validate_network(net)
            if not report.ok:
                return f"pair-coverage: FAIL n={n} builder={builder.value}: {report.violations[0]}"
            for s in range(samples):
                if s % 2 == 0:
                    x = rng.integers(0, max(n // 2, 1), size=n)
                else:
                    x = rng.standard_normal(n)
                expect = rankcore.stable_rank(x)
                got = engine.execute(net, x)
                if not np.array_equal(got, expect):
                    return (
                        f"oracle-equivalence: FAIL n={n} builder={builder.value} "
                        f"x={x.tolist()} expected={expect.tolist()} got={got.tolist()}"
                    )
    return None


def _verify_counts(max_n: int) -> str | None:
    for n in range(2, max_n + 1):
        ln = analytics.partial_rank_count(n)
        if analytics.maundy_a(n) != ln:
            return f"maundy-identity: FAIL n={n}"
        cn = analytics.total_comparators(n)
        if not (1 <= ln <= n - 1) or not (1 <= cn <= n * (n - 1) // 2):
            return f"bounds: FAIL n={n} |L_N|={ln} |C_N|={cn}"
    return None


def cmd_verify(args) -> int:
    if args.max < 2 or args.samples < 1:
        raise DimensionError("verify needs --max >= 2 and --samples >= 1")
    failure = _verify_networks(args.max, args.samples, np.random.default_rng(args.seed))
    if not failure:
        print("pair-coverage: ok")
        print("oracle-equivalence: ok")
        failure = _verify_counts(args.max)
    if failure:
        print(failure)
        return 1
    print("counting: ok")
    return 0


def cmd_export(args) -> int:
    net = netbuild.build_network(args.n, args.algo)
    text = (
        netbuild.network_to_json(net)
        if args.format == "json"
        else netbuild.network_to_dot(net)
    )
    with open(args.out, "w") as fh:
        fh.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ranknet")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sort", help="rank and sort a sequence of numbers")
    sp.add_argument("--algo", choices=[b.value for b in Builder], default="binary")
    sp.add_argument("--input", help="file with newline/comma separated numbers")
    sp.set_defaults(func=cmd_sort)

    ap = sub.add_parser("analyze", help="print the complexity profile for N")
    ap.add_argument("--n", type=int, required=True)
    ap.set_defaults(func=cmd_analyze)

    qp = sub.add_parser("seq", help="emit a counting sequence as CSV rows")
    qp.add_argument("--kind", choices=sorted(_SEQ_FUNCS), required=True)
    qp.add_argument("--max", type=int, required=True)
    qp.add_argument("--csv", help="write to this file instead of stdout")
    qp.set_defaults(func=cmd_seq)

    vp = sub.add_parser("verify", help="run the self-verification suite")
    vp.add_argument("--max", type=int, required=True)
    vp.add_argument("--samples", type=int, default=20)
    vp.add_argument("--seed", type=int, default=0)
    vp.set_defaults(func=cmd_verify)

    ep = sub.add_parser("export", help="write a network as JSON or DOT")
    ep.add_argument("--n", type=int, required=True)
    ep.add_argument("--algo", choices=[b.value for b in Builder], required=True)
    ep.add_argument("--format", choices=["json", "dot"], required=True)
    ep.add_argument("--out", required=True)
    ep.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RankNetError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
