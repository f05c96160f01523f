#!/usr/bin/env python3
"""How often does the residual rule overrun its starting index on pure noise?

At the reference scale (D=10000, delta=0.01, threshold D*delta**2 = 1,
start index 329 from the normal quantile rule) the overrun fraction
should land near one percent. The script sweeps a few threshold drifts
to show the sensitivity.
"""

import argparse

from svdstop.harness import ExperimentConfig, run_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replications", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--drifts", type=float, nargs="*", default=[-1.0, 0.0, 1.0],
                        help="threshold drifts in units of sqrt(D)*delta**2")
    args = parser.parse_args()

    print(f"{args.replications} replications per drift, zero signal, D=10000, delta=0.01")
    for drift in args.drifts:
        config = ExperimentConfig(
            dim=10_000,
            delta=0.01,
            signal_name="zero",
            kappa_drift=drift,
            m0_mode="normal_quantile",
            replications=args.replications,
            base_seed=args.seed,
            procedures=("plain_stop",),
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
