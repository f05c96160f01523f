#!/usr/bin/env python3
"""Reference-scale efficiency study over the three named signals.

Runs plain early stopping and the two-step variant at D=10000,
delta=0.01, writes one CSV per signal plus a combined box-plot SVG,
and prints the summary table. With --quick the replication count drops
to 100 so the whole thing finishes in a few seconds.
"""

import argparse
import time
from pathlib import Path

from svdstop.harness import ExperimentConfig, run_experiment, write_records_csv
from svdstop.model import write_new_file
from svdstop.signals import NAMED_PROFILES
from svdstop.svgplot import efficiency_plot


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("efficiency_study"))
    parser.add_argument("--replications", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--start", choices=("zero", "normal_quantile"), default="normal_quantile",
                        help="minimum stopping index rule (normal_quantile gives m0=329)")
    parser.add_argument("--quick", action="store_true", help="100 replications instead of 1000")
    args = parser.parse_args()

    reps = 100 if args.quick else args.replications
    args.out.mkdir(parents=True, exist_ok=True)

    for name in sorted(NAMED_PROFILES):
        config = ExperimentConfig(
            dim=10_000,
            delta=0.01,
            signal_name=name,
            kappa=1.0,
            m0_mode=args.start,
            replications=reps,
            base_seed=args.seed,
            procedures=("plain_stop", "two_step_strong"),
        )
        started = time.time()
        report = run_experiment(config)
        write_records_csv(args.out / f"{name}.csv", report.records, config.to_mapping())
        print(f"{name} ({time.time() - started:.1f}s, weak oracle t={report.oracle['weak_time']:.1f}):")
        for s in report.summaries:
            print(
                f"  {s.procedure:16s} strong median {s.eff_strong_quartiles[1]:.3f}"
                f"  mean {s.eff_strong_mean:.3f}"
                f"  weak median {s.eff_weak_quartiles[1]:.3f}"
                f"  immediate {s.immediate_fraction:.3f}"
            )
        svg_path = args.out / f"{name}.svg"
        write_new_file(
            svg_path,
            efficiency_plot(report.records, title=f"{name}, {reps} replications, m0 mode {args.start}"),
        )
        print(f"  wrote {svg_path}")


if __name__ == "__main__":
    main()
