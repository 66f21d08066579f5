"""Command-line front end: simulate, opt, verify, bound, optimal-beta,
sweep, fuzz, search, gen.

Exit codes: 0 success, 1 check failure, 2 usage or parse error. All
output is deterministic given flags and seeds; rationals go on the wire
as num/den with 6-place decimal renderings as advisory duplicates. The
FBL_SEED environment variable overrides the default seed; it and every
integer flag follow the instance file's integer grammar (parse_int).
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, NoReturn, TypeVar

from .analysis import (
    InstanceAnalysis,
    analyze,
    format_ledger,
    format_report,
)
from .generators import GenConfig, adversarial_search, demo_instance, greedy_blocking, random_instance
from .model import (
    Instance,
    InstanceParseError,
    InvalidInstanceError,
    Rat,
    arrival_id,
    format_instance,
    format_rat,
    parse_instance,
    parse_int,
    parse_rat,
)
from .offline import brute_force_opt
from .simulate import Policy, run, trace_lines
from .theory import DEFAULT_BETA, competitive_bound, optimal_beta

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

FUZZ_CSV_HEADER = [
    "seed",
    "capacity",
    "alpha",
    "beta",
    "policy",
    "policy_value",
    "opt_value",
    "ratio",
    "ratio_decimal",
    "bound",
    "bound_decimal",
    "within_bound",
    "failed_checks",
    "warn_checks",
]


def decimal_str(value: Rat) -> str:
    """Exact six-place rendering of a value that must not be negative; rounds half to even."""
    micros = round(value * 10**6)
    return f"{micros // 10**6}.{micros % 10**6:06d}"


T = TypeVar("T")


def _flag(
    parse: Callable[[str], T], ok: Callable[[T], object] = lambda v: True, rule: str = ""
) -> Callable[[str], T]:
    """An argparse `type` that parses, then checks the flag's range rule."""

    def convert(text: str) -> T:
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    return convert


def _rat_list(text: str) -> tuple[Rat, ...]:
    return tuple(parse_rat(part) for part in text.split(","))


# GenConfig checks the ranges of the flags that only configure it
_INT = _flag(parse_int)
_SEED = _flag(lambda text: parse_int(text, signed=True))
_COUNT = _flag(parse_int, lambda v: v > 0, "must be positive")
_RAT = _flag(parse_rat)
_POSITIVE = _flag(parse_rat, lambda v: v > 0, "must be positive")
_ALPHA = _flag(parse_rat, lambda v: v > 1, "must exceed 1")
_ALPHAS = _flag(_rat_list, lambda v: v and all(a > 1 for a in v), "must list values above 1")
_BETAS = _flag(_rat_list, lambda v: v and all(b > 0 for b in v), "must list positive values")


def _load_instance(path: str) -> Instance:
    try:
        return parse_instance(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _policy_from_args(args: argparse.Namespace) -> Policy:
    if args.policy == "on":
        return Policy.on(args.beta)
    return Policy.greedy()


def _write_out(chunks: Iterable[str], out: str | None) -> None:
    """Write `chunks` to stdout, and to the file `out` if given, as they come.

    The file is opened first, so a bad path fails before any output.
    """
    with open(out, "w") if out else nullcontext() as file:
        for chunk in chunks:
            if file:
                file.write(chunk)
            sys.stdout.write(chunk)


def cmd_simulate(args: argparse.Namespace) -> int:
    trace = run(_policy_from_args(args), _load_instance(args.instance))
    _write_out(trace_lines(trace), args.out)
    return EXIT_OK


def cmd_opt(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    result = brute_force_opt(inst)
    ids = " ".join(arrival_id(inst, i) for i in result.indices)
    sys.stdout.write(f"value {format_rat(result.value)}\nsubset {ids}\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    result = analyze(_load_instance(args.instance), args.beta)
    if args.emit_ledger and result.ledger is not None:
        Path(args.emit_ledger).write_text(format_ledger(result.ledger))
    sys.stdout.write(format_report(result.report))
    return EXIT_OK if result.report.ok else EXIT_CHECK_FAILED


def cmd_bound(args: argparse.Namespace) -> int:
    breakdown = competitive_bound(args.alpha, args.beta)
    sys.stdout.write(
        f"first {format_rat(breakdown.first_term)} ({decimal_str(breakdown.first_term)})\n"
        f"second {format_rat(breakdown.second_term)} ({decimal_str(breakdown.second_term)})\n"
        f"bound {format_rat(breakdown.bound)} ({decimal_str(breakdown.bound)})\n"
    )
    return EXIT_OK


def cmd_optimal_beta(args: argparse.Namespace) -> int:
    beta = optimal_beta(args.tol)
    ratio = (1 + beta) / beta
    sys.stdout.write(
        f"beta {format_rat(beta)} ({decimal_str(beta)})\n"
        f"ratio {format_rat(ratio)} ({decimal_str(ratio)})\n"
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    worst: dict[Rat, Rat] = {}
    for beta in args.betas:
        for alpha in args.alphas:
            breakdown = competitive_bound(alpha, beta)
            rows.append((beta, alpha, breakdown))
            if beta not in worst or breakdown.bound > worst[beta]:
                worst[beta] = breakdown.bound
    minimizer = min(worst, key=worst.__getitem__)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["beta", "alpha", "first", "second", "bound", "bound_decimal", "is_minimizer"]
    )
    for beta, alpha, breakdown in rows:
        writer.writerow(
            [
                format_rat(beta),
                format_rat(alpha),
                format_rat(breakdown.first_term),
                format_rat(breakdown.second_term),
                format_rat(breakdown.bound),
                decimal_str(breakdown.bound),
                str(beta == minimizer).lower(),
            ]
        )
    _write_out([buf.getvalue()], args.out)
    return EXIT_OK


def fuzz_config(args: argparse.Namespace) -> GenConfig:
    try:
        return GenConfig(
            capacity_min=args.b_min,
            capacity_max=args.b_max,
            horizon=args.horizon,
            max_burst=args.max_burst,
            alpha_choices=args.alphas,
            alpha_weight=args.alpha_weight,
            max_packets=args.max_packets,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def experiment_row(seed: int, result: InstanceAnalysis) -> list[str]:
    inst, ratio, policy = result.ropt.on.instance, result.ratio, result.ropt.on.policy
    return [
        str(seed),
        str(inst.capacity),
        format_rat(inst.alpha),
        format_rat(policy.beta),
        policy.describe(),
        format_rat(ratio.policy_value),
        format_rat(ratio.opt_value),
        format_rat(ratio.ratio),
        decimal_str(ratio.ratio),
        format_rat(ratio.bound),
        decimal_str(ratio.bound),
        str(ratio.within_bound).lower(),
        "|".join(c.name for c in result.report.failures),
        "|".join(c.name for c in result.report.warnings),
    ]


def fuzz_rows(cfg: GenConfig, count: int, base_seed: int, beta: Rat) -> tuple[str, list[str], Rat]:
    """CSV text, failure descriptions, and the worst ratio for a seeded sweep."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FUZZ_CSV_HEADER)
    failures: list[str] = []
    worst = Fraction(0)
    for i in range(count):
        seed = base_seed + i
        inst = random_instance(replace(cfg, seed=seed))
        result = analyze(inst, beta)
        writer.writerow(experiment_row(seed, result))
        worst = max(worst, result.ratio.ratio)
        if not result.report.ok:
            names = ",".join(c.name for c in result.report.failures)
            failures.append(f"seed {seed}: {names}")
    return buf.getvalue(), failures, worst


def cmd_fuzz(args: argparse.Namespace) -> int:
    csv_text, failures, worst = fuzz_rows(fuzz_config(args), args.count, args.seed, args.beta)
    _write_out([csv_text], args.out)
    sys.stderr.write(f"max ratio {format_rat(worst)} ({decimal_str(worst)})\n")
    if failures:
        for line in failures[:20]:
            sys.stderr.write(f"FAIL {line}\n")
        sys.stderr.write(f"{len(failures)} failing instance(s)\n")
        return EXIT_CHECK_FAILED
    sys.stderr.write("all checks passed\n")
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    policy = _policy_from_args(args)
    inst, report = adversarial_search(policy, fuzz_config(args), args.budget, args.beta)
    _write_out([format_instance(inst)], args.out)
    sys.stdout.write(
        f"# ratio {format_rat(report.ratio)} bound {format_rat(report.bound)} "
        f"within {str(report.within_bound).lower()}\n"
    )
    if policy.kind == "on" and not report.within_bound:
        # a threshold-policy instance above the bound would falsify the
        # guarantee (or expose a bug); make it impossible to miss
        sys.stderr.write(f"ALERT: ratio {format_rat(report.ratio)} exceeds the theoretical bound\n")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "example":
        inst = demo_instance(args.alpha)
    elif args.family == "blocking":
        inst = greedy_blocking(args.alpha)
    else:
        inst = random_instance(fuzz_config(args))
    _write_out([format_instance(inst)], args.out)
    return EXIT_OK


class UsageError(ValueError):
    pass


def _add_gen_flags(parser: argparse.ArgumentParser) -> None:
    # a string default goes through `type` too, so a bad FBL_SEED fails like a bad --seed
    parser.add_argument("--seed", type=_SEED, default=os.environ.get("FBL_SEED", "0"))
    parser.add_argument("--b-min", type=_INT, default=1)
    parser.add_argument("--b-max", type=_INT, default=5)
    parser.add_argument("--horizon", type=_INT, default=12)
    parser.add_argument("--max-burst", type=_INT, default=2)
    parser.add_argument("--alphas", type=_ALPHAS, default="3/2,2,5,10")
    parser.add_argument("--alpha-weight", type=_RAT, default=Fraction(1, 2))
    parser.add_argument("--max-packets", type=_INT, default=14)


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one `error:` line; subcommand parsers inherit it."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fifolab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a policy over an instance file")
    p.add_argument("instance")
    p.add_argument("--policy", choices=["on", "greedy"], default="on")
    p.add_argument("--beta", type=_POSITIVE, default=DEFAULT_BETA)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("opt", help="offline optimum of an instance file (matroid greedy)")
    p.add_argument("instance")
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("verify", help="full analysis checks over an instance file")
    p.add_argument("instance")
    p.add_argument("--beta", type=_POSITIVE, default=DEFAULT_BETA)
    p.add_argument("--emit-ledger")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="competitive bound breakdown at (alpha, beta)")
    p.add_argument("--alpha", type=_ALPHA, required=True)
    p.add_argument("--beta", type=_POSITIVE, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("optimal-beta", help="bisect for the best threshold")
    p.add_argument("--tol", type=_POSITIVE, default=Fraction(1, 10**6))
    p.set_defaults(func=cmd_optimal_beta)

    p = sub.add_parser("sweep", help="bound table over alpha and beta grids")
    p.add_argument("--alphas", type=_ALPHAS, required=True)
    p.add_argument("--betas", type=_BETAS, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fuzz", help="seeded random sweep with full verification")
    p.add_argument("--count", type=_COUNT, required=True)
    p.add_argument("--beta", type=_POSITIVE, default=DEFAULT_BETA)
    _add_gen_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("search", help="hill-climb for high-ratio instances")
    p.add_argument("--policy", choices=["on", "greedy"], default="on")
    p.add_argument("--beta", type=_POSITIVE, default=DEFAULT_BETA)
    p.add_argument("--budget", type=_COUNT, required=True)
    _add_gen_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen", help="write an instance file")
    p.add_argument("family", choices=["example", "blocking", "random"])
    p.add_argument("--alpha", type=_ALPHA, default=Fraction(2))
    _add_gen_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InstanceParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_USAGE
    except (InvalidInstanceError, UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
