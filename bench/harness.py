"""``python -m bench run``: each workload in a process of its own.

For an untraced run the harness starts the workload process four times
with ``--setup-only`` and once more for the measurement; ``setup_s`` is
the median of the five set-up times, each timed from process start (imports
included) until the workload is ready.  It prints every metric with its
unit, then the result as one JSON object on the last line, and exits 1
if any correctness check failed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from bench import OUT_DIR, ROOT, load_spec

#: Set-up-only processes per untraced run, besides the measured one.
SETUP_PROBES = 4
#: Measured seconds of a ``--quick`` smoke run.
QUICK_SECONDS = 2.0
#: A workload process that runs longer than this has hung.
CHILD_TIMEOUT = 160


def _child_env() -> dict:
    """The workload process's environment: temporary files (the mining
    engine's manager socket) go under ``.bench_out`` when the socket path
    fits the 107-byte limit of a Unix socket address."""
    env = dict(os.environ)
    # multiprocessing adds /pymp-XXXXXXXX/listener-XXXXXXXX: 32 bytes.
    if len(str(OUT_DIR).encode()) + 32 <= 107:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(OUT_DIR)
    return env


def _spawn(name: str, seed: int, seconds: float, trace: int, quick: bool,
           setup_only: bool = False) -> dict:
    """Run one workload process; its last stdout line is its report."""
    command = [sys.executable, "-m", "bench", "_child", "--workload", name,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", str(trace)]
    if quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    command += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"bench: {name} workload process timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: {name} workload process failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 quick: bool, spec: dict) -> tuple[dict, list[str]]:
    """The result object for one workload, and the failures behind it."""
    setups = [] if trace else [
        _spawn(name, seed, seconds, trace, quick, setup_only=True)["setup_s"]
        for _ in range(SETUP_PROBES)]
    report = _spawn(name, seed, seconds, trace, quick)
    metrics = dict(report["metrics"])
    metrics["setup_s"] = statistics.median(setups + [report["setup_s"]])
    failures = list(report["failures"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        failures.append(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": not failures and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    return result, failures


def run(args) -> int:
    spec = load_spec()
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    status = 0
    for name in names:
        result, failures = run_workload(name, args.seed, seconds, args.trace,
                                        args.quick, spec)
        mode = "traced" if args.trace else "untraced"
        print(f"{name}  seed {args.seed}  {mode}  {seconds:g} s")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<26}{entry['value']:>14.6g} {entry['unit']}")
        print(f"  attempted {result['attempted']}  failed {result['failed']}")
        for failure in failures:
            print(f"  FAILED: {failure}")
        if args.trace:
            print(f"  spans: {OUT_DIR.name}/trace-{name}-seed{args.seed}.jsonl")
        print(json.dumps(result), flush=True)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed,
                                     "trace": args.trace, "seconds": seconds,
                                     "result": result}) + "\n")
        if not result["correct"]:
            status = 1
    return status


def measure(workload, seconds: float, t0: float) -> dict:
    """Set up, run, close and check ``workload``; its report.  ``t0`` is
    when its process started, the origin of ``setup_s``."""
    from bench.trace import hx_profile
    from bench.workloads import KAT_DIGEST, KAT_INPUT, Outcome

    outcome = Outcome()
    try:
        workload.setup()
        setup_s = time.monotonic() - t0
        workload.run(seconds, outcome)
    finally:
        workload.close()
    workload.check(outcome)
    outcome.record(workload.pow_factory().hash(KAT_INPUT).hex() == KAT_DIGEST,
                   "the known-answer digest of HashCore() changed")
    tracer = workload.tracer
    if tracer is not None:
        datas, warm = workload.hx_inputs()
        metrics, checks = hx_profile(datas, workload.pow_factory, tracer,
                                     warm)
        outcome.metrics.update(metrics)
        for passed, failure in checks:
            outcome.record(passed, failure)
        for metric in load_spec()["per_layer"]:
            if metric["name"].split(".")[0] in workload.unused_layers:
                outcome.metrics.setdefault(metric["name"], 0.0)
    return {"setup_s": setup_s, "attempted": outcome.attempted,
            "failed": outcome.failed, "failures": outcome.failures,
            "metrics": outcome.metrics}


def child(args) -> None:
    """Body of one workload process; prints its report as JSON."""
    from bench.trace import Tracer
    from bench.workloads import WORKLOAD_CLASSES

    tracer = Tracer() if args.trace else None
    workload = WORKLOAD_CLASSES[args.workload](args.seed, quick=args.quick,
                                               tracer=tracer)
    if args.setup_only:
        try:
            workload.setup()
            print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        finally:
            workload.close()
        return
    report = measure(workload, args.seconds, args.t0)
    if tracer is not None:
        summary = tracer.write(
            OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(f"{'span':<22}{'count':>7}{'total ms':>12}{'self ms':>12}",
              file=sys.stderr)
        for span, row in sorted(summary.items()):
            print(f"{span:<22}{row['count']:>7}{row['total_ms']:>12.1f}"
                  f"{row['self_ms']:>12.1f}", file=sys.stderr)
    print(json.dumps(report))
