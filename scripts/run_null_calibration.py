#!/usr/bin/env python3
"""How often does the residual rule overrun its starting index on pure noise?

At the reference scale (D=10000, delta=0.01, threshold D*delta**2 = 1,
start index 329 from the normal quantile rule) the overrun fraction
should land near one percent. The script sweeps a few threshold drifts
to show the sensitivity. The experiment is configs/null_calibration.json;
the options override its values.
"""

import argparse
import json
from pathlib import Path

from svdstop.harness import config_from_mapping, run_experiment

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "null_calibration.json"


def main():
    shipped = json.loads(CONFIG.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replications", type=int, default=shipped["replications"])
    parser.add_argument("--seed", type=int, default=shipped["base_seed"])
    parser.add_argument("--drifts", type=float, nargs="*", default=[-1.0, 0.0, 1.0],
                        help="threshold drifts in units of sqrt(D)*delta**2")
    args = parser.parse_args()

    print(f"{args.replications} replications per drift, zero signal, D=10000, delta=0.01")
    for drift in args.drifts:
        config = config_from_mapping(
            {
                **shipped,
                "stopping": {**shipped["stopping"], "kappa_drift": drift},
                "replications": args.replications,
                "base_seed": args.seed,
            }
        )
        report = run_experiment(config)
        summary = report.summaries[0]
        overrun = 1.0 - summary.immediate_fraction
        print(
            f"  drift {drift:+.1f}: overrun fraction {overrun:.4f}"
            f"  mean stopping index {summary.tau_mean:.1f}"
        )


if __name__ == "__main__":
    main()
