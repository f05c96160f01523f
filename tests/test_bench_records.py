"""The checked-in ``BENCH_*.json`` files at the repository root: each records, for every workload and
end-to-end metric that ``BENCHMARK.json`` declares, the parent's and the change's runs, and every claim
in it names a declared metric and workload and holds on the runs it records."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def summary(runs):
    """Median and quartiles, by ``statistics.quantiles``' default (exclusive) method."""
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def wins_and_ties(parent, change, better):
    """Pairs the change wins and pairs it ties, run by run."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0.0)
    return wins, sum(1 for p, c in zip(parent, change) if c == p)


def test_a_benchmark_record_is_checked_in():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_has_both_sides_of_every_workload_and_metric(path):
    record = json.loads(path.read_text())
    assert sorted(record["workloads"]) == sorted(WORKLOADS)
    for name, workload in record["workloads"].items():
        pairs = workload["pairs"]
        assert pairs == len(workload["seeds"]) >= 1 and workload["seconds"] > 0.0, name
        assert sorted(workload["metrics"]) == sorted(METRICS), name
        for metric, entry in workload["metrics"].items():
            assert entry["unit"] == METRICS[metric]["unit"], (name, metric)
            for side in ("parent", "change"):
                runs = entry[side]["runs"]
                assert len(runs) == pairs and all(isinstance(v, (int, float)) for v in runs), (name, metric, side)
                if pairs >= 2:
                    assert entry[side] | summary(runs) == entry[side], (name, metric, side)
            wins, ties = wins_and_ties(entry["parent"]["runs"], entry["change"]["runs"], METRICS[metric]["better"])
            assert (entry["wins"], entry["ties"]) == (wins, ties), (name, metric)
    for side in ("parent", "change"):
        tier1 = record["tier1"][side]
        assert tier1["tests"] > 0 and len(tier1["wall_s"]) >= 1
        assert tier1["median_wall_s"] == statistics.median(tier1["wall_s"])


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_records_claims_name_a_declared_metric_and_hold_on_its_runs(path):
    """A gain is claimed only when the change wins at least nine pairs in ten and the medians differ by more
    than the distance between the parent's quartiles."""
    record = json.loads(path.read_text())
    for claim in record["claims"]:
        assert claim["workload"] in WORKLOADS and claim["metric"] in METRICS, claim
        entry = record["workloads"][claim["workload"]]["metrics"][claim["metric"]]
        parent, change = entry["parent"], entry["change"]
        assert entry["wins"] >= 0.9 * len(parent["runs"]), claim
        assert abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"], claim
        sign = 1.0 if METRICS[claim["metric"]]["better"] == "lower" else -1.0
        assert sign * (change["median"] - parent["median"]) < 0.0, claim
