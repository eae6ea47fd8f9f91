"""``python -m bench agree A.jsonl B.jsonl``: do two sets of runs agree?

Each file holds the records ``bench run --out FILE`` appends, one run per
line.  For every (end-to-end metric, workload) pair the untraced runs of
each set give a median and a spread, the distance between the first and
third quartiles as a share of the median.  The verdict is

* ``unresolved`` when either set's spread exceeds the metric's bound:
  the runs are too noisy to tell a change of that size;
* ``DISAGREE`` when the medians differ by more than the bound;
* ``agree`` otherwise.

Exits 1 on any disagreement or on any run that failed its checks.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_runs(path: str | Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over the untraced runs of a file;
    raises ``ValueError`` on a run that failed its correctness checks."""
    values: dict[tuple[str, str], list[float]] = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        record = json.loads(line)
        result = record["result"]
        if not result["correct"] or result["failed"]:
            raise ValueError(f"{path}:{number}: run of {record['workload']} "
                             f"seed {record['seed']} failed its checks")
        if record["trace"]:
            continue
        for metric, entry in result["metrics"].items():
            values.setdefault((record["workload"], metric), []).append(
                entry["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(a: dict, b: dict, end_to_end: list[dict]) -> list[dict]:
    """One row per (metric, workload) seen in either set."""
    rows = []
    workloads = sorted({workload for workload, _ in a} | {workload for workload, _ in b})
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        for workload in workloads:
            va, vb = a.get((workload, name)), b.get((workload, name))
            row = {"metric": name, "workload": workload, "bound": bound}
            if not va or not vb:
                row["verdict"] = "DISAGREE"
                row["note"] = "missing from one set"
                rows.append(row)
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            row.update(median_a=ma, median_b=mb, rel=(mb - ma) / ma,
                       spread=max(spread(va), spread(vb)))
            if row["spread"] > bound:
                row["verdict"] = "unresolved"
            elif abs(row["rel"]) > bound:
                row["verdict"] = "DISAGREE"
            else:
                row["verdict"] = "agree"
            rows.append(row)
    return rows


def agree(path_a: str, path_b: str, spec: dict) -> int:
    try:
        a, b = load_runs(path_a), load_runs(path_b)
    except ValueError as exc:
        print(f"agree: {exc}")
        return 1
    rows = compare(a, b, spec["end_to_end"])
    print(f"{'metric':<14}{'workload':<15}{'median A':>12}{'median B':>12}"
          f"{'rel':>9}{'spread':>9}{'bound':>8}  verdict")
    for row in rows:
        if "rel" not in row:
            print(f"{row['metric']:<14}{row['workload']:<15}{'':>50}  "
                  f"{row['verdict']} ({row['note']})")
            continue
        print(f"{row['metric']:<14}{row['workload']:<15}"
              f"{row['median_a']:>12.4g}{row['median_b']:>12.4g}"
              f"{row['rel']:>+9.1%}{row['spread']:>9.1%}{row['bound']:>8.0%}"
              f"  {row['verdict']}")
    verdicts = [row["verdict"] for row in rows]
    print(f"{verdicts.count('agree')} agree, "
          f"{verdicts.count('unresolved')} unresolved, "
          f"{verdicts.count('DISAGREE')} disagree")
    return 1 if "DISAGREE" in verdicts else 0
