"""The benchmark's per-layer trace still sees every layer it names.

``perfbench/worker.py`` wraps functions at the names their callers
resolve (``harness.stop_index``, ``lazysvd.next_triplet``, ...). A
refactor that calls a layer under another name would leave its span
silently empty, so this runs tiny instances under the benchmark's own
tracer and checks the spans.
"""

import importlib.util
from pathlib import Path

import numpy as np

from svdstop import harness, lazysvd, lowerbound
from svdstop.model import NoiseModel
from svdstop.stopping import StoppingConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_records_every_layer():
    tracer_cls = _load("tracing").Tracer
    install = _load("worker")._install
    # a huge threshold with m0 > 0 stops immediately, so the two-step AIC runs
    config = harness.ExperimentConfig(
        dim=40,
        delta=0.1,
        signal_name="smooth",
        signal_target=10.0,
        kappa=100.0,
        m0_mode="explicit",
        m0=5,
        replications=3,
        procedures=("plain_stop", "two_step_strong"),
    )
    rng = np.random.default_rng(0)
    operator = lazysvd.MatrixOperator(rng.standard_normal((12, 8)))
    with tracer_cls() as tracer:
        install(tracer)
        report = harness.run_experiment(config)
        y = rng.standard_normal(12)
        result = lazysvd.sequential_solve(operator, y, NoiseModel(0.1), StoppingConfig(kappa=0.0, m0=3))
    calls = tracer.calls()

    assert all(r.immediate for r in report.records)
    assert calls["model.simulate"] == 3
    assert calls["stopping.stop"] == 3
    assert calls["stopping.aic"] == 3
    # one estimate per distinct index a replication chose: procedures that agree share it
    chosen = {(r.rep, r.rho if r.procedure.startswith("two_step") else r.tau) for r in report.records}
    assert calls["estimator.estimate"] == len(chosen)
    assert calls["lazysvd.solve"] == 1
    assert calls["lazysvd.triplet"] == result.outcome.tau == len(result.state.triplets)
    assert tracer.counts["stopping.coeffs_read"] == 3 * 5
    assert tracer.counts["lazysvd.matvecs"] == result.matvec_count


def test_benchmark_trace_records_the_lowerbound_layer():
    tracer_cls = _load("tracing").Tracer
    install = _load("worker")._install
    with tracer_cls() as tracer:
        install(tracer)
        lowerbound.tv_numeric(2.0, 0.5, 5)
        lowerbound.tv_numeric(2.0, 2.0, 5)  # equal norms take the shortcut: no latency sample
        lowerbound.tv_bound(2.0, 0.5, 5)
    calls = tracer.calls()

    assert calls["lowerbound.tv_numeric"] == 2
    assert calls["lowerbound.tv_bound"] == 1
    assert len(tracer.samples["lowerbound.tv_ms"]) == 1
