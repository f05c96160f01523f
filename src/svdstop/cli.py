"""Command-line front end.

Every subcommand reads one JSON config file, applies ``--set`` dotted
overrides, runs, and writes its outputs into the directory given by
``--out`` (default: the current directory). The effective config is
echoed into every emitted file, so re-running from an echoed config
reproduces the outputs byte for byte.

Exit codes: 0 success, 2 usage or unknown command, 3 config error,
4 numeric failure (``mc`` exits 4 after writing its outputs when any
replication failed). Failures print a one-line JSON error record to
stderr. JSON outputs write a non-finite number as the string ``"inf"``,
``"-inf"`` or ``"nan"``, as the CSV does, so every file is strict JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import harness, lazysvd, lowerbound
from .estimator import estimate_at
from .harness import _EXPERIMENT_KEYS, _check_keys, _resolve_path
from .model import _check_float, _check_int, load_vector, save_vector, write_new_file
from .oracles import theory_bounds
from .stopping import StopOutcome, StoppingConfig, _check_selection
from .svgplot import efficiency_plot

__all__ = ["main"]

# the solver failures (ConvergenceError, RankDeficiencyError, TripletBudgetError) and lowerbound's
# AccuracyError (an error bound above its tolerance) are RuntimeErrors
_NUMERIC_ERRORS = (ArithmeticError, RuntimeError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("UsageError", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": str(message)}), file=sys.stderr)


def _json_safe(value):
    """``value`` with each non-finite float as the string the CSV writes for it: ``"inf"``, ``"-inf"`` or ``"nan"``."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return repr(float(value)) if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path: Path, payload: dict) -> None:
    write_new_file(path, json.dumps(_json_safe(payload), sort_keys=True, indent=2, allow_nan=False) + "\n")
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


def _section(mapping: dict, name: str, allowed: set[str], required: bool = False) -> dict:
    """Config section ``name``, checked against its ``allowed`` keys; ``{}`` when optional and absent."""
    if required and name not in mapping:
        raise ValueError(f"config requires a '{name}' section")
    section = mapping.get(name, {})
    _check_keys(section, allowed, name)
    return section


def _experiment(mapping: dict, base: Path, *extra_sections: str):
    """Config and model objects; ``config_from_mapping`` checks every top-level key but ``extra_sections``."""
    config = harness.config_from_mapping({k: v for k, v in mapping.items() if k not in extra_sections})
    return config, harness.resolve_experiment(config, base)


def _write_record(
    out: Path, name: str, config: dict, outcome: StopOutcome, estimate, stopping: StoppingConfig, **extras
) -> None:
    """Save ``estimate.txt``, then write ``name``: config, outcome, ``kappa``, ``m0`` and ``extras``."""
    save_vector(out / "estimate.txt", estimate.values)
    print(f"wrote {out / 'estimate.txt'}")
    payload = {"config": config, "outcome": dataclasses.asdict(outcome), "kappa": stopping.kappa, "m0": stopping.m0}
    _write_json(out / name, {**payload, **extras})


def _cmd_oracles(mapping: dict, out: Path, base: Path, args) -> None:
    config, exp = _experiment(mapping, base)
    _write_json(out / "oracles.json", {"config": config.to_mapping(), "oracle": harness.oracle_payload(exp)})


def _cmd_stop(mapping: dict, out: Path, base: Path, args) -> None:
    """``stop``, or ``two-step`` with the ``selection`` section's AIC re-selection: replication 0 of ``mc``."""
    extra = {}
    procedure = "plain_stop"
    if args.command == "two-step":
        norm = _section(mapping, "selection", {"norm"}).get("norm", "strong")
        _check_selection(norm, "selection.norm")
        procedure = f"two_step_{norm}"
        extra["selection"] = {"norm": norm}
    config, exp = _experiment(mapping, base, *extra)
    obs, [outcome] = harness._replicate(exp, 0, (procedure,))
    estimate = estimate_at(obs, exp.spectrum, float(outcome.chosen))
    name = "two_step.json" if extra else "stop.json"
    # the echo is the `mc` config whose only record is this run
    echo = {**config.to_mapping(), "procedures": [procedure], "replications": 1, **extra}
    _write_record(out, name, echo, outcome, estimate, exp.stopping)


def _cmd_mc(mapping: dict, out: Path, base: Path, args) -> None:
    report = harness.run_experiment(harness.config_from_mapping(mapping), base_dir=base)
    csv_path = out / "replications.csv"
    harness.write_records_csv(csv_path, report.records, report.config)  # through the module, which the trace wraps
    print(f"wrote {csv_path}")
    _write_json(out / "report.json", report.as_record())
    if report.failures:
        reps = [rep for rep, _ in report.failures]
        raise ArithmeticError(f"replications {reps} failed; report.json lists why")


def _cmd_bounds(mapping: dict, out: Path, base: Path, args) -> None:
    config, exp = _experiment(mapping, base)
    try:
        bounds = theory_bounds(exp.signal, exp.spectrum, exp.noise, exp.stopping)
    except ValueError as exc:  # its one ValueError on a resolved experiment opens with delta
        raise harness._keyed(exc, "noise") from None
    payload = {
        "config": config.to_mapping(),
        "bounds": dataclasses.asdict(bounds),
        "kappa": exp.stopping.kappa,
        "m0": exp.stopping.m0,
    }
    _write_json(out / "bounds.json", payload)


def _cmd_adversary(mapping: dict, out: Path, base: Path, args) -> None:
    section = _section(mapping, "adversary", {"kind", "i0", "alpha", "r_bar"}, required=True)
    kind = section.get("kind")
    if kind not in ("hide_signal", "residual_adversary"):
        raise ValueError("adversary.kind must be 'hide_signal' or 'residual_adversary'")
    i0 = _check_int(section["i0"], "adversary.i0")
    alpha = _check_float(section.get("alpha", 0.0), "adversary.alpha")
    r_bar = _check_float(section["r_bar"], "adversary.r_bar")
    extra = {"adversary": {"kind": kind, "i0": i0, "alpha": alpha, "r_bar": r_bar}}
    config, exp = _experiment(mapping, base, *extra)
    if kind == "hide_signal":
        result = lowerbound.hide_signal(exp.signal, i0, alpha, r_bar)
    else:
        result = lowerbound.residual_adversary(exp.signal, exp.spectrum, exp.noise, i0, alpha, r_bar)
    save_vector(out / "mu_bar.txt", result.mu_bar.coefficients)
    print(f"wrote {out / 'mu_bar.txt'}")
    _write_json(out / "adversary.json", {"config": {**config.to_mapping(), **extra}, "adversary": result.as_record()})


def _cmd_lazysvd(mapping: dict, out: Path, base: Path, args) -> None:
    _check_keys(mapping, {"matrix", "data", "noise", "stopping", "lazysvd", "base_seed"})
    matrix = _section(mapping, "matrix", {"file"}, required=True)
    data = _section(mapping, "data", {"file"}, required=True)
    _section(mapping, "stopping", {"kappa", "m0_mode", "m0", "level"})
    section = _section(mapping, "lazysvd", {"tolerance", "max_iterations", "triplet_budget", "selection_norm"})
    operator = lazysvd.MatrixOperator(lazysvd.load_matrix(_resolve_path(base, matrix.get("file"), "matrix.file")))
    y_raw = load_vector(_resolve_path(base, data.get("file"), "data.file"))
    # the rule is calibrated on the noise directions its residual keeps, the data's `rows`;
    # the zero signal fills a required slot
    matrix_model = {**mapping, "dim": operator.codomain_dim, "signal": {"name": "zero"}}
    config, exp = _experiment(matrix_model, base, "matrix", "data", "lazysvd")
    if exp.stopping.m0 > operator.domain_dim:  # checked against the rows above, but the rule runs over the columns
        key = "stopping.m0_mode" if config.m0 is None else "stopping.m0"
        raise ValueError(f"{key} sets the start {exp.stopping.m0}, beyond the {operator.domain_dim} matrix columns")
    # the solver checks the lazysvd settings, naming each key
    result = lazysvd.sequential_solve(operator, y_raw, exp.noise, exp.stopping, seed=config.base_seed, **section)
    _write_record(
        out,
        "lazysvd.json",
        mapping,
        result.outcome,
        result.estimate,
        exp.stopping,
        matvec_count=result.matvec_count,
        iterations=list(result.state.iterations),
        release_residuals=list(result.state.release_residuals),
        singular_values=[t.sigma for t in result.state.triplets],
    )


def _cmd_plot(mapping: dict, out: Path, base: Path, args) -> None:
    _check_keys(mapping, _EXPERIMENT_KEYS | {"plot"})
    section = _section(mapping, "plot", {"csv", "title"}, required=True)
    options = {"title": section["title"]} if "title" in section else {}  # else efficiency_plot's own default
    if not isinstance(options.get("title", ""), str):
        raise ValueError(f"plot.title must be a string, got {options['title']!r}")
    records, _ = harness.read_records_csv(_resolve_path(base, section.get("csv"), "plot.csv"))
    svg = efficiency_plot(records, config_mapping=mapping, **options)
    path = out / "efficiency.svg"
    write_new_file(path, svg)
    print(f"wrote {path}")


_COMMANDS = {
    "oracles": _cmd_oracles,
    "stop": _cmd_stop,
    "two-step": _cmd_stop,
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
    parser.add_argument("--out", default=".", help="output directory (default: '.')")
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
        out = Path(args.out)
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
