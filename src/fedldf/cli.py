"""Command line interface.

Exit codes: 0 success, 2 load error (manifest, data, or query), 3 timeout,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .decomposer import enumerate_decompositions, explain
from .executor import PlanInvariantError
from .federation import select_sources
from .harness import (
    DEFAULT_TIMEOUT_S,
    InvariantViolation,
    LoadError,
    RunConfig,
    VARIANTS,
    describe_decomposition,
    load_inputs,
    oracle_check,
    prepare,
    run,
    variant_plan,
)
from .planner import AccessPlan, explain_plan
from .services import InterfaceViolationError

EXIT_OK = 0
EXIT_LOAD = 2
EXIT_TIMEOUT = 3
EXIT_INVARIANT = 4


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--manifest", required=True, type=Path, help="federation manifest JSON")
    sub.add_argument("--query", required=True, type=Path, help="query file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedldf",
        description="Federated query engine over heterogeneous LDF interfaces",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_run = commands.add_parser("run", help="execute a query and report metrics")
    _add_common(p_run)
    p_run.add_argument("--variant", default="decomposer_ps_pbj", choices=VARIANTS)
    p_run.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S, help="seconds")
    p_run.add_argument("--reps", type=int, default=1, help="repetitions")
    p_run.add_argument("--out", type=Path, default=None, help="directory for trace files")

    p_dec = commands.add_parser("decompose", help="show the chosen decomposition")
    _add_common(p_dec)
    p_dec.add_argument("--variant", default="decomposer_ps_pbj", choices=VARIANTS)
    p_dec.add_argument("--explain", action="store_true", help="plain text instead of JSON")

    p_plan = commands.add_parser("plan", help="show the physical join plan")
    _add_common(p_plan)
    p_plan.add_argument("--variant", default="decomposer_ps_pbj", choices=VARIANTS)
    p_plan.add_argument("--explain", action="store_true", help="plain text instead of JSON")

    p_oracle = commands.add_parser(
        "oracle-check", help="compare engine answers against brute-force evaluation"
    )
    _add_common(p_oracle)
    p_oracle.add_argument("--variant", default="decomposer_ps_pbj", choices=VARIANTS)

    p_enum = commands.add_parser(
        "enumerate-decompositions",
        help="exhaustive density/cost survey for small queries",
    )
    _add_common(p_enum)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except (InvariantViolation, InterfaceViolationError, PlanInvariantError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        config = RunConfig(
            manifest=args.manifest,
            query=args.query,
            variant=args.variant,
            timeout_s=args.timeout,
            repetitions=args.reps,
            out_dir=args.out,
        )
        report = run(config)
        print(json.dumps(report, indent=2, sort_keys=True))
        return EXIT_TIMEOUT if report.get("timeout") else EXIT_OK

    if args.command in ("decompose", "plan"):
        federation, _, patterns = load_inputs(args.manifest, args.query)
        prepared = prepare(federation, patterns, args.variant)
        decomposition, sources = prepared.decomposition, prepared.sources
        if decomposition is None:
            print(f"empty answer: no relevant source for {prepared.unmatched}", file=sys.stderr)
        elif args.command == "decompose" and args.explain:
            print(explain(decomposition, patterns, sources, federation))
        elif args.command == "decompose":
            payload = describe_decomposition(decomposition, patterns, sources, federation)
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            node = variant_plan(args.variant, decomposition, federation)
            if args.explain:
                print(explain_plan(node, patterns))
            else:
                print(json.dumps(_plan_json(node, patterns), indent=2, sort_keys=True))
        return EXIT_OK

    if args.command == "oracle-check":
        result = oracle_check(args.manifest, args.query, args.variant)
        print(json.dumps(result, indent=2, sort_keys=True))
        return EXIT_OK

    if args.command == "enumerate-decompositions":
        federation, _, patterns = load_inputs(args.manifest, args.query)
        sources = select_sources(federation, patterns)
        try:
            records = enumerate_decompositions(patterns, sources, federation)
        except ValueError as exc:
            raise LoadError(str(exc)) from exc
        index = {p: i + 1 for i, p in enumerate(patterns)}
        payload = [
            {
                "entries": [
                    {
                        "patterns": [index[p] for p in entry.patterns],
                        "sources": sorted(entry.sources),
                    }
                    for entry in rec["decomposition"].entries
                ],
                "density": str(rec["density"]),
                "cost": rec["cost"],
                "pareto": rec["pareto"],
            }
            for rec in records
            if rec["pareto"]
        ]
        print(json.dumps({"pareto_front": payload, "total": len(records)}, indent=2))
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


def _plan_json(node, patterns) -> dict:
    index = {p: i + 1 for i, p in enumerate(patterns)}
    if isinstance(node, AccessPlan):
        return {
            "access": {
                "patterns": [index[p] for p in node.entry.patterns],
                "cards": {uri: n for uri, n in node.cards},
                "card": node.card,
            }
        }
    return {
        "join": {
            "op": node.op.value,
            "card": node.card,
            "requests_shj": node.shj_requests,
            "requests_pbj": node.pbj_requests,
            "left": _plan_json(node.left, patterns),
            "right": _plan_json(node.right, patterns),
        }
    }


if __name__ == "__main__":
    sys.exit(main())
