"""Command-line front end.

Every subcommand reads one JSON config file, applies ``--set`` dotted
overrides, runs, and writes its outputs into the directory given by
``--out`` (default: the ``SVDSTOP_OUT`` environment variable, falling
back to the current directory). The effective config is echoed into
every emitted file, so re-running from an echoed config reproduces the
outputs byte for byte.

Exit codes: 0 success, 2 usage or unknown command, 3 config error,
4 numeric failure. Failures print a one-line JSON error record to
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import harness, lazysvd, lowerbound
from .estimator import estimate_at
from .harness import _EXPERIMENT_KEYS, _check_keys
from .model import NoiseModel, load_vector, replication_seed, save_vector, simulate_observation
from .oracles import theory_bounds
from .stopping import StopOutcome, early_stop, make_stopping_config, two_step
from .svgplot import efficiency_plot

__all__ = ["main"]

_NUMERIC_ERRORS = (
    lowerbound.AccuracyError,
    lazysvd.ConvergenceError,
    lazysvd.RankDeficiencyError,
    lazysvd.TripletBudgetError,
    ArithmeticError,
    RuntimeError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("UsageError", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": str(message)}), file=sys.stderr)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")


def _apply_override(mapping: dict, dotted: str, raw: str) -> None:
    keys = dotted.split(".")
    if not all(keys):
        raise ValueError(f"bad override path {dotted!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = mapping
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ValueError(f"override path {dotted!r} crosses a non-mapping value")
    node[keys[-1]] = value


def _load_mapping(args) -> tuple[dict, Path]:
    config_path = Path(args.config)
    mapping = json.loads(config_path.read_text())
    if not isinstance(mapping, dict):
        raise ValueError("config file must contain a JSON object")
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        _apply_override(mapping, dotted, raw)
    if args.seed is not None:
        mapping["base_seed"] = int(args.seed)
    return mapping, config_path.resolve().parent


def _experiment_config(mapping: dict) -> harness.ExperimentConfig:
    sub = {k: v for k, v in mapping.items() if k in _EXPERIMENT_KEYS}
    return harness.config_from_mapping(sub)


def _outcome_record(outcome: StopOutcome) -> dict:
    return {
        "tau": outcome.tau,
        "rho": outcome.rho,
        "coefficients_consumed": outcome.coefficients_consumed,
        "immediate_stop": outcome.immediate_stop,
    }


def _cmd_oracles(mapping: dict, out: Path, base: Path, args) -> None:
    _check_keys(mapping, _EXPERIMENT_KEYS)
    config = _experiment_config(mapping)
    exp = harness.resolve_experiment(config, base)
    _write_json(out / "oracles.json", {"config": config.to_mapping(), "oracle": harness.oracle_payload(exp)})


def _cmd_stop(mapping: dict, out: Path, base: Path, args) -> None:
    _check_keys(mapping, _EXPERIMENT_KEYS)
    config = _experiment_config(mapping)
    exp = harness.resolve_experiment(config, base)
    obs = simulate_observation(exp.signal, exp.spectrum, exp.noise, replication_seed(config.base_seed, 0))
    outcome = early_stop(obs, exp.stopping)
    estimate = estimate_at(obs, exp.spectrum, float(outcome.tau))
    save_vector(out / "estimate.txt", estimate.values)
    print(f"wrote {out / 'estimate.txt'}")
    payload = {
        "config": config.to_mapping(),
        "outcome": _outcome_record(outcome),
        "kappa": exp.stopping.kappa,
        "m0": exp.stopping.m0,
    }
    _write_json(out / "stop.json", payload)


def _cmd_two_step(mapping: dict, out: Path, base: Path, args) -> None:
    _check_keys(mapping, _EXPERIMENT_KEYS | {"selection"})
    selection = mapping.get("selection", {})
    _check_keys(selection, {"norm", "penalty_multiplier"}, "selection")
    norm = selection.get("norm", "strong")
    penalty = float(selection.get("penalty_multiplier", 1.0))
    config = _experiment_config(mapping)
    exp = harness.resolve_experiment(config, base)
    obs = simulate_observation(exp.signal, exp.spectrum, exp.noise, replication_seed(config.base_seed, 0))
    outcome = early_stop(obs, exp.stopping)
    rho = two_step(outcome.tau, obs.y, exp.spectrum.values, exp.noise.delta, exp.stopping.m0, norm, penalty)
    outcome = dataclasses.replace(outcome, rho=rho)
    estimate = estimate_at(obs, exp.spectrum, float(rho))
    save_vector(out / "estimate.txt", estimate.values)
    print(f"wrote {out / 'estimate.txt'}")
    payload = {
        "config": {**config.to_mapping(), "selection": {"norm": norm, "penalty_multiplier": penalty}},
        "outcome": _outcome_record(outcome),
        "kappa": exp.stopping.kappa,
        "m0": exp.stopping.m0,
    }
    _write_json(out / "two_step.json", payload)


def _cmd_mc(mapping: dict, out: Path, base: Path, args) -> None:
    _check_keys(mapping, _EXPERIMENT_KEYS)
    config = _experiment_config(mapping)
    csv_path = out / "replications.csv"
    report = harness.run_experiment(config, csv_path=csv_path, base_dir=base)
    print(f"wrote {csv_path}")
    _write_json(out / "report.json", report.as_record())


def _cmd_bounds(mapping: dict, out: Path, base: Path, args) -> None:
    _check_keys(mapping, _EXPERIMENT_KEYS)
    config = _experiment_config(mapping)
    exp = harness.resolve_experiment(config, base)
    bounds = theory_bounds(exp.signal, exp.spectrum, exp.noise, exp.stopping.kappa, exp.stopping.m0)
    payload = {
        "config": config.to_mapping(),
        "bounds": dataclasses.asdict(bounds),
        "kappa": exp.stopping.kappa,
        "m0": exp.stopping.m0,
    }
    _write_json(out / "bounds.json", payload)


def _cmd_adversary(mapping: dict, out: Path, base: Path, args) -> None:
    _check_keys(mapping, _EXPERIMENT_KEYS | {"adversary"})
    section = mapping.get("adversary")
    if not isinstance(section, dict):
        raise ValueError("adversary command requires an 'adversary' config section")
    _check_keys(section, {"kind", "i0", "alpha", "r_bar"}, "adversary")
    kind = section.get("kind")
    if kind not in ("hide_signal", "residual_adversary"):
        raise ValueError("adversary.kind must be 'hide_signal' or 'residual_adversary'")
    i0 = int(section["i0"])
    alpha = float(section.get("alpha", 0.0))
    r_bar = float(section["r_bar"])
    config = _experiment_config(mapping)
    exp = harness.resolve_experiment(config, base)
    if kind == "hide_signal":
        result = lowerbound.hide_signal(exp.signal, i0, alpha, r_bar)
    else:
        result = lowerbound.residual_adversary(exp.signal, exp.spectrum, exp.noise, i0, alpha, r_bar)
    save_vector(out / "mu_bar.txt", result.mu_bar.coefficients)
    print(f"wrote {out / 'mu_bar.txt'}")
    payload = {
        "config": {
            **config.to_mapping(),
            "adversary": {"kind": kind, "i0": i0, "alpha": alpha, "r_bar": r_bar},
        },
        "adversary": result.as_record(),
    }
    _write_json(out / "adversary.json", payload)


def _cmd_lazysvd(mapping: dict, out: Path, base: Path, args) -> None:
    _check_keys(mapping, {"matrix", "data", "noise", "stopping", "lazysvd", "base_seed"})
    for key in ("matrix", "data", "noise"):
        if key not in mapping:
            raise ValueError(f"lazysvd command requires a '{key}' config section")
    for key, allowed in (
        ("matrix", {"file"}),
        ("data", {"file"}),
        ("noise", {"delta"}),
        ("stopping", {"kappa", "m0_mode", "m0", "level"}),
        ("lazysvd", {"tolerance", "max_iterations", "triplet_budget", "selection_norm", "penalty_multiplier"}),
    ):
        _check_keys(mapping.get(key, {}), allowed, key)

    def _path(section: str) -> Path:
        name = mapping[section].get("file")
        if not name:
            raise ValueError(f"{section}.file is required")
        path = Path(name)
        path = path if path.is_absolute() else base / path
        if not path.exists():
            raise ValueError(f"referenced file not found: {path}")
        return path

    entries = lazysvd.load_matrix(_path("matrix"))
    y_raw = load_vector(_path("data"))
    operator = lazysvd.MatrixOperator(entries)
    delta = float(mapping["noise"]["delta"])
    stopping = mapping.get("stopping", {})
    kappa = stopping.get("kappa")
    if kappa is None:
        # in matrix coordinates the residual keeps all raw noise directions
        kappa = operator.codomain_dim * delta**2
    stop_config = make_stopping_config(
        operator.domain_dim,
        delta,
        kappa=float(kappa),
        m0_mode=stopping.get("m0_mode", "zero"),
        m0=int(stopping["m0"]) if stopping.get("m0") is not None else None,
        level=float(stopping.get("level", 0.99)),
    )
    section = mapping.get("lazysvd", {})
    result = lazysvd.sequential_solve(
        operator,
        y_raw,
        NoiseModel(delta=delta),
        stop_config,
        seed=int(mapping.get("base_seed", 0)),
        tolerance=float(section.get("tolerance", 1e-10)),
        max_iterations=int(section.get("max_iterations", 10000)),
        triplet_budget=int(section["triplet_budget"]) if section.get("triplet_budget") is not None else None,
        selection_norm=section.get("selection_norm"),
        penalty_multiplier=float(section.get("penalty_multiplier", 1.0)),
    )
    save_vector(out / "estimate.txt", result.estimate.values)
    print(f"wrote {out / 'estimate.txt'}")
    payload = {
        "config": mapping,
        "outcome": _outcome_record(result.outcome),
        "matvec_count": result.matvec_count,
        "iterations": list(result.state.iterations),
        "singular_values": [t.sigma for t in result.state.triplets],
        "kappa": stop_config.kappa,
        "m0": stop_config.m0,
    }
    _write_json(out / "lazysvd.json", payload)


def _cmd_plot(mapping: dict, out: Path, base: Path, args) -> None:
    _check_keys(mapping, _EXPERIMENT_KEYS | {"plot"})
    section = mapping.get("plot")
    if not isinstance(section, dict) or "csv" not in section:
        raise ValueError("plot command requires a 'plot' section with a 'csv' path")
    _check_keys(section, {"csv", "title"}, "plot")
    csv_path = Path(section["csv"])
    csv_path = csv_path if csv_path.is_absolute() else base / csv_path
    if not csv_path.exists():
        raise ValueError(f"referenced file not found: {csv_path}")
    records, _ = harness.read_records_csv(csv_path)
    svg = efficiency_plot(records, config_mapping=mapping, title=section.get("title", "Relative efficiency"))
    path = out / "efficiency.svg"
    path.write_text(svg)
    print(f"wrote {path}")


_COMMANDS = {
    "oracles": _cmd_oracles,
    "stop": _cmd_stop,
    "two-step": _cmd_two_step,
    "mc": _cmd_mc,
    "lazysvd": _cmd_lazysvd,
    "bounds": _cmd_bounds,
    "adversary": _cmd_adversary,
    "plot": _cmd_plot,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="svdstop", description="Early stopping for truncated SVD estimation.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory (default: $SVDSTOP_OUT or '.')")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="dotted-path config override")
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        mapping, base = _load_mapping(args)
        out = Path(args.out if args.out is not None else os.environ.get("SVDSTOP_OUT", "."))
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 3
    try:
        _COMMANDS[args.command](mapping, out, base, args)
    except _NUMERIC_ERRORS as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 4
    except (ValueError, KeyError, TypeError, OSError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
