"""Command-line driver.

Exit codes: 0 success (check: Certified; oracle: all agree), 1 Violated or
oracle mismatch, 2 schema or usage error, 3 cap exceeded or internal
inconsistency.  Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from .convex import DEFAULT_VERTEX_CAP
from .engine import CERTIFIED, check, forbidden, matched_drops
from .errors import (
    CapExceeded,
    InternalInconsistency,
    InvalidParameter,
    KnxError,
    SchemaError,
)
from .oracle import OracleConfig, cross_check_problem, random_problem
from .problemfile import load_problem
from .report import (
    check_report,
    forbidden_report,
    oracle_report_text,
    strata_report,
)
from .strata import ORIENTATIONS, enumerate_kn

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_SCHEMA = 2
EXIT_CAP = 3


def run_random_self_checks(config: OracleConfig) -> bool:
    """Cross-check a seeded batch of random torus problems."""
    for i in range(config.sample_count):
        p = random_problem(1 + i % 3, 1 + (i * 5) % 6, config.rng_seed * 1000 + i)
        if not cross_check_problem(p, config).agreed:
            return False
    return True


def int_in_range(name: str, low: int, high: int | None = None):
    """An argparse type: an int k >= low, and k <= high when high is given."""
    def parse(text: str) -> int:
        k = int(text)
        if k < low or high is not None and k > high:
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"{name} must be {bound}, not {k}")
        return k
    parse.__name__ = "int"  # named in argparse's "invalid int value: ..."
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knx",
        description="Exact Kirwan-Ness strata and exactness certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("strata", "check", "forbidden", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--orientation", choices=ORIENTATIONS, default=None)
        p.add_argument("--max-weights", type=int_in_range("N", 1), default=None, metavar="N")
        if name == "oracle":
            # eps = -1/2^K: the oracle's denominators grow as 2^K
            p.add_argument("--eps-den", type=int_in_range("K", 0, 1000), default=20, metavar="K",
                           help="use eps = -1/2^K and -1/2^(K+4)")
            p.add_argument("--samples", type=int_in_range("M", 0), default=20, metavar="M",
                           help="seeded random self-check problems to run")
            p.add_argument("--seed", type=int, default=0, metavar="S")
    return parser


# built on the first call, not at import: in-process callers reuse it
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cap = args.max_weights if args.max_weights is not None else DEFAULT_VERTEX_CAP
    try:
        problem = load_problem(args.file, cap, args.orientation)

        if args.command == "strata":
            result = enumerate_kn(
                problem.weights, problem.chi, problem.group, problem.orientation, cap
            )
            matched_drops(problem, result)  # every stratum is still listed
            print(strata_report(problem, result, args.json))
            return EXIT_OK

        if args.command == "check":
            if problem.c is None or problem.c.direction is not None:
                raise SchemaError('check needs a fixed "c" with a base and no direction')
            verdict = check(problem)
            print(check_report(problem, verdict, args.json))
            return EXIT_OK if verdict.status == CERTIFIED else EXIT_VIOLATED

        if args.command == "forbidden":
            if problem.c is None or problem.c.direction is None:
                raise SchemaError('forbidden needs a parametric "c" with a direction')
            verdict = forbidden(problem)
            print(forbidden_report(problem, verdict, args.json))
            return EXIT_OK

        if args.command == "oracle":
            config = OracleConfig(
                epsilon_values=(
                    Fraction(-1, 2**args.eps_den),
                    Fraction(-1, 2 ** (args.eps_den + 4)),
                ),
                sample_count=args.samples,
                rng_seed=args.seed,
            )
            report = cross_check_problem(problem, config)
            samples_ok = run_random_self_checks(config)
            print(oracle_report_text(report, args.json))
            if not args.json:
                print(
                    f"random self-check: {config.sample_count} seeded problems, "
                    f"{'all agree' if samples_ok else 'MISMATCH'}"
                )
            return EXIT_OK if report.agreed and samples_ok else EXIT_VIOLATED

    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except CapExceeded as exc:
        # every cap on a CLI path is the one --max-weights sets
        print(f"error: {exc} (raise it with --max-weights)", file=sys.stderr)
        return EXIT_CAP
    except InternalInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InvalidParameter, KnxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
