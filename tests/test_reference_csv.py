"""``svdstop mc`` still writes the recorded ``replications.csv`` bytes, ``tv_numeric`` the recorded values,
and the lazy solve passes its workload's check with the recorded work.

The benchmark's reference records the sha256 of the CSV that each Monte
Carlo workload writes at every pool seed. This runs the smoke-size
workloads through the CLI at two seeds and compares, so a change that
moves a single output byte fails here, not only in the benchmark. The
hashes come from ``scripts/check_reference_hashes.py``, which checks every
pool seed the same way. The reference also records ``tv_numeric`` on the
whole acceptance-criterion-7 grid; here every point must stay within 1e-12
of it, so drift shows long before the benchmark's own 1e-6. The
``lazy-solve`` workload must pass its own check against the recorded
singular values and the dense solve, at the stopping index and
matrix-vector product count it was recorded with: that count is the
benchmark's gated ``work_count``. It only reads the benchmark's files, as
``test_trace_contract.py`` does.
"""

import importlib.util
from pathlib import Path

import pytest

from svdstop import lowerbound


def load_hash_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "check_reference_hashes.py"
    spec = importlib.util.spec_from_file_location("check_reference_hashes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HASHES = load_hash_script()
WORKLOADS = HASHES._workloads()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["mc-smooth", "mc-wide"])
def test_mc_csv_bytes_match_the_benchmark_reference(tmp_path, name, seed):
    digest = HASHES.csv_sha256(WORKLOADS, name, seed, True, tmp_path)
    assert digest == WORKLOADS.load_reference()["smoke"][name]["csv_sha256"][seed]


def test_tv_numeric_matches_the_recorded_grid():
    grid = WORKLOADS.TvGrid(seed=0, smoke=False).grid  # criterion 7's 84 points, in the recorded order
    recorded = WORKLOADS.load_reference()["full"]["tv-grid"]["values"]
    assert len(grid) == len(recorded) == 84
    values = [lowerbound.tv_numeric(a, b, k) for a, b, k in grid]
    assert values == pytest.approx(recorded, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("smoke, work", [(True, (5, 80)), (False, (44, 260))], ids=["120x80", "800x500"])
def test_lazy_solve_passes_its_workload_check_with_the_recorded_work(smoke, work, seed):
    workload = WORKLOADS.LazySolve(seed=seed, smoke=smoke)
    workload.setup()
    outcome = workload.run_pass()
    assert workload.check(outcome, WORKLOADS.load_reference()[WORKLOADS.size_key(smoke)]) == 0
    assert (outcome.detail["tau"], outcome.work) == work
