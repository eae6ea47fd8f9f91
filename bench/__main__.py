"""Command line: ``python3 -m bench {run,agree}`` from the repository root."""

from __future__ import annotations

import argparse
import sys

from bench import load_spec, use_source_tree


def main(argv: list[str] | None = None) -> int:
    workloads = [workload["name"] for workload in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="End-to-end benchmark of the HashCore system.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads and print metrics")
    run.add_argument("--workload", choices=workloads,
                     help="one workload (default: all, in turn)")
    run.add_argument("--seed", type=int, default=1,
                     help="seed the workload inputs are generated from")
    run.add_argument("--seconds", type=float,
                     help="measured seconds (default: run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="1: traced run reporting the per-layer metrics")
    run.add_argument("--quick", action="store_true",
                     help="smoke run: 2 s and short stage profiles")
    run.add_argument("--out", help="append each result to this JSONL file")

    agree = commands.add_parser(
        "agree", help="compare two sets of runs written by run --out")
    agree.add_argument("a")
    agree.add_argument("b")

    child = commands.add_parser("_child")
    child.add_argument("--workload", choices=workloads, required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), required=True)
    child.add_argument("--quick", action="store_true")
    child.add_argument("--setup-only", action="store_true")
    child.add_argument("--t0", type=float, required=True,
                       help="time.monotonic() when the process was started")

    server = commands.add_parser("_pool_server")
    server.add_argument("--seed", type=int, required=True)
    server.add_argument("--trace", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "agree":
        from bench.agree import agree as compare

        return compare(args.a, args.b, load_spec())
    use_source_tree()
    if args.command == "run":
        from bench.harness import run as run_workloads

        return run_workloads(args)
    if args.command == "_child":
        from bench.harness import child as run_child

        run_child(args)
        return 0
    from bench.poolproc import serve

    serve(args.seed, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
