"""Tests of the benchmark itself: ``pytest bench -q`` from the repository
root (not in the default ``testpaths``; the smoke runs take ~1 min)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from bench import ROOT, load_spec, use_source_tree
from bench.agree import agree, compare, spread

use_source_tree()

from repro.core.hashcore import HashCore  # noqa: E402

from bench.harness import measure  # noqa: E402
from bench.workloads import WORKLOAD_CLASSES  # noqa: E402

SPEC = load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", "run", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric(workload, trace):
    proc = _run("--quick", "--workload", workload, "--seed", "7",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in wanted}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_run_without_source_tree_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verify_cached", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _flip(digest: bytes) -> bytes:
    return bytes([digest[0] ^ 0x80]) + digest[1:]


class CorruptDigests(HashCore):
    """A PoW function that flips one bit of every digest it returns."""

    def hash(self, data: bytes) -> bytes:
        return _flip(super().hash(data))

    def hash_batch(self, datas, **kwargs) -> list[bytes]:
        return [_flip(digest) for digest in super().hash_batch(datas, **kwargs)]


@pytest.mark.parametrize("workload", ["mine_fresh", "verify_cached"])
def test_corrupt_digests_fail_the_run(workload):
    subject = WORKLOAD_CLASSES[workload](3, quick=True,
                                         pow_factory=CorruptDigests)
    report = measure(subject, 1.0, time.monotonic())
    assert report["failed"] > 0
    assert any("known-answer" in failure for failure in report["failures"])
    assert any("re-hash" in failure or "timed reference" in failure
               for failure in report["failures"])


# ----------------------------------------------------------------------
# agree
# ----------------------------------------------------------------------
END_TO_END = [{"name": "ops_s", "bound": 0.1}, {"name": "setup_s", "bound": 0.25}]


def _set(ops: list[float], setup: float = 1.0) -> dict:
    return {("w", "ops_s"): ops, ("w", "setup_s"): [setup] * len(ops)}


def _verdicts(a: dict, b: dict) -> dict:
    return {row["metric"]: row["verdict"] for row in compare(a, b, END_TO_END)}


def test_spread_is_iqr_over_median():
    assert spread([10.0]) == 0.0
    values = [9.0, 10.0, 10.0, 11.0]
    assert spread(values) == pytest.approx(1.5 / 10.0)


def test_compare_verdicts():
    steady = _set([100.0, 101.0, 99.0, 100.0, 100.5])
    assert _verdicts(steady, steady) == {"ops_s": "agree", "setup_s": "agree"}
    slower = _set([80.0, 81.0, 79.0, 80.0, 80.5])
    assert _verdicts(steady, slower)["ops_s"] == "DISAGREE"
    noisy = _set([50.0, 150.0, 80.0, 120.0, 100.0])
    assert _verdicts(steady, noisy)["ops_s"] == "unresolved"
    missing = {("w", "ops_s"): [100.0]}
    assert _verdicts(steady, missing)["setup_s"] == "DISAGREE"


def _write(path, values: list[float], correct: bool = True) -> str:
    with open(path, "w") as fh:
        for seed, value in enumerate(values):
            result = {"correct": correct, "attempted": 1,
                      "failed": 0 if correct else 1,
                      "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                                  for m in SPEC["end_to_end"]}}
            fh.write(json.dumps({"workload": "verify_cached", "seed": seed,
                                 "trace": 0, "result": result}) + "\n")
    return str(path)


def test_agree_exit_codes(tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl", [10.0, 10.1, 9.9, 10.0])
    same = _write(tmp_path / "b.jsonl", [10.05, 10.0, 9.95, 10.1])
    far = _write(tmp_path / "c.jsonl", [13.0, 13.1, 12.9, 13.0])
    failed = _write(tmp_path / "d.jsonl", [10.0, 10.0], correct=False)
    assert agree(a, same, SPEC) == 0
    assert agree(a, far, SPEC) == 1
    assert agree(a, failed, SPEC) == 1
    out = capsys.readouterr().out
    assert "DISAGREE" in out and "failed its checks" in out
