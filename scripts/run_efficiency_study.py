#!/usr/bin/env python3
"""Reference-scale efficiency study over the three named signals.

Runs the experiment of configs/efficiency_smooth.json (plain early
stopping and the two-step variant at D=10000, delta=0.01) once per named
signal, writes one CSV per signal plus a combined box-plot SVG, and
prints the summary table. The options override the config's values.
"""

import argparse
import json
import time
from pathlib import Path

from svdstop.harness import config_from_mapping, run_experiment, write_records_csv
from svdstop.model import write_new_file
from svdstop.signals import NAMED_PROFILES
from svdstop.svgplot import efficiency_plot

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "efficiency_smooth.json"


def main():
    shipped = json.loads(CONFIG.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("efficiency_study"))
    parser.add_argument("--replications", type=int, default=shipped["replications"])
    parser.add_argument("--seed", type=int, default=shipped["base_seed"])
    parser.add_argument("--start", choices=("zero", "normal_quantile"), default=shipped["stopping"]["m0_mode"],
                        help="minimum stopping index rule (normal_quantile gives m0=329)")
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)

    for name in sorted(NAMED_PROFILES):
        config = config_from_mapping(
            {
                **shipped,
                "signal": {"name": name},
                "stopping": {**shipped["stopping"], "m0_mode": args.start},
                "replications": args.replications,
                "base_seed": args.seed,
            }
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
            efficiency_plot(report.records, title=f"{name}, {args.replications} replications, m0 mode {args.start}"),
        )
        print(f"  wrote {svg_path}")


if __name__ == "__main__":
    main()
