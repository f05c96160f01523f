"""Tests of the benchmark itself, on tiny instances (``--smoke``).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(workload: str, trace: int, *extra: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.2", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    result = _result(_run(workload, trace, "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def _corrupt(reference: dict, workload: str) -> None:
    section = reference["smoke"][workload]
    if workload.startswith("mc-"):
        section["csv_sha256"] = ["0" * 64] * len(section["csv_sha256"])
    elif workload == "lazy-solve":
        section["sigma"] = [s * (1 + 1e-6) for s in section["sigma"]]
    else:
        section["values"] = [v + 1e-5 for v in section["values"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_every_operation(workload, tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    _corrupt(reference, workload)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    result = _result(_run(workload, 0, "--smoke", "--reference", str(path)))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["pass_ratio"]["value"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("mc-smooth", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_self_time_and_restore():
    class Module:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Module.inner() + Module.inner()

    original = Module.inner
    with Tracer() as tracer:
        tracer.wrap(Module, "inner", "inner", lambda t, span, args, result: t.counts.update(inner=result))
        tracer.wrap(Module, "outer", "outer")
        assert Module.outer() == 2
    assert Module.inner is original
    assert tracer.calls() == {"inner": 2, "outer": 1}
    assert tracer.counts["inner"] == 2
    name, start, end, parent = tracer.spans[0]
    assert name == "outer" and parent == -1
    assert [s[3] for s in tracer.spans[1:]] == [0, 0]
    children = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert tracer.self_times()["outer"] == pytest.approx((end - start) - children)
