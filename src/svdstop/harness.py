"""Reproducible Monte Carlo experiments for early-stopped truncation.

An experiment is described by a plain nested mapping (JSON-friendly),
parsed into :class:`ExperimentConfig`, and resolved into model objects.
Each replication simulates one observation, runs the configured
procedures on it, and records truncation indices, estimation errors in
both norms, and relative efficiencies against the exact discrete oracle
risks computed once from the instance. The CLI's ``stop`` and ``two-step``
run replication 0 of the same loop. Per-replication seeds are split
off the base seed by replication index and replications run in index
order, so the same config gives bit-identical records on every run.

The CSV schema is one row per (replication, procedure):
``rep,tau,rho,immediate,err_strong,err_weak,eff_strong,eff_weak,procedure``
with a ``# config=...`` echo line above the header. Efficiencies with a
zero error denominator are recorded as the literal ``inf``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .estimator import estimate_at  # unused here; kept as harness.estimate_at, which perfbench's trace wraps
from .model import (
    NoiseModel,
    Observation,
    Signal,
    Spectrum,
    _check_float,
    _check_int,
    _check_noise_level,
    load_vector,
    make_polynomial_spectrum,
    replication_seed,
    simulate_observation,
    write_new_file,
)
from .oracles import oracle_set
from .signals import calibrated_signal
from .stopping import StopOutcome, StoppingConfig, aic_select, make_stopping_config, stop_index

__all__ = [
    "CSV_HEADER",
    "EfficiencyReport",
    "ExperimentConfig",
    "PROCEDURES",
    "ProcedureSummary",
    "ReplicationRecord",
    "ResolvedExperiment",
    "config_from_mapping",
    "oracle_payload",
    "read_records_csv",
    "resolve_experiment",
    "run_experiment",
    "write_records_csv",
]

PROCEDURES = ("plain_stop", "two_step_weak", "two_step_strong", "fixed_oracle")

CSV_HEADER = "rep,tau,rho,immediate,err_strong,err_weak,eff_strong,eff_weak,procedure"

# The experiment schema: each section key and the ExperimentConfig field it sets. The key checks, the
# parse, the echo and the stopping call all walk it, so a new key is one entry here and one field there.
_SECTIONS = {
    "spectrum": {"p": "spectrum_p", "file": "spectrum_file"},
    "noise": {"delta": "delta"},
    "signal": {"name": "signal_name", "target": "signal_target", "file": "signal_file"},
    # the keys are make_stopping_config's keyword arguments
    "stopping": {"kappa": "kappa", "kappa_drift": "kappa_drift", "m0_mode": "m0_mode", "m0": "m0", "level": "level"},
}
_TOP_LEVEL = ("dim", "replications", "base_seed", "procedures")  # each sets the field of its own name
_FIELD_KEYS = {field: f"{name}.{key}" for name, keys in _SECTIONS.items() for key, field in keys.items()}
_EXPERIMENT_KEYS = set(_TOP_LEVEL) | set(_SECTIONS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo experiment."""

    dim: int
    delta: float
    spectrum_p: float | None = 0.5
    spectrum_file: str | None = None
    signal_name: str | None = None
    signal_target: float | None = None
    signal_file: str | None = None
    kappa: float | None = None
    kappa_drift: float = 0.0
    m0_mode: str = "zero"
    m0: int | None = None
    level: float = 0.99
    replications: int = 1000
    base_seed: int = 0
    procedures: tuple[str, ...] = ("plain_stop",)

    def __post_init__(self):
        # a JSON null for a field without an unset state fails here, naming its key
        for name in ("delta", "kappa_drift", "level"):
            object.__setattr__(self, name, _check_float(getattr(self, name), _FIELD_KEYS[name]))
        for name in ("spectrum_p", "signal_target", "kappa"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _check_float(getattr(self, name), _FIELD_KEYS[name]))
        for name in ("dim", "replications", "base_seed"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name))
        if self.m0 is not None:
            object.__setattr__(self, "m0", _check_int(self.m0, "stopping.m0"))
        if self.dim < 1:
            raise ValueError(f"dim, the dimension, must be at least 1, got {self.dim}")
        _check_noise_level(self.delta, "noise.delta")
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        if (self.spectrum_p is None) == (self.spectrum_file is None):
            raise ValueError("specify exactly one of spectrum exponent or spectrum file")
        if (self.signal_name is None) == (self.signal_file is None):
            raise ValueError("specify exactly one of signal name or signal file")
        if self.signal_target is not None and self.signal_name in (None, "zero"):
            raise ValueError("signal.target is only read to calibrate a named signal, not with signal.file or 'zero'")
        if not isinstance(self.procedures, (list, tuple)):
            raise ValueError(f"procedures must be a list of procedure names, got {self.procedures!r}")
        object.__setattr__(self, "procedures", tuple(self.procedures))
        if not self.procedures:
            raise ValueError("at least one procedure is required")
        for proc in self.procedures:
            if proc not in PROCEDURES:
                raise ValueError(f"unknown procedure {proc!r}; expected a subset of {PROCEDURES}")
        if len(set(self.procedures)) < len(self.procedures):
            raise ValueError(f"procedures must not repeat, got {list(self.procedures)}")

    def to_mapping(self) -> dict:
        """Canonical nested mapping; inverse of :func:`config_from_mapping`.

        Every stopping key is echoed, an unset one as ``None``; the other
        sections echo the keys that are set. ``procedures`` stays a tuple,
        which JSON writes as an array.
        """
        mapping = {key: getattr(self, key) for key in _TOP_LEVEL}
        for name, keys in _SECTIONS.items():
            values = {key: getattr(self, field) for key, field in keys.items()}
            mapping[name] = {key: value for key, value in values.items() if value is not None or name == "stopping"}
        return mapping


def _check_keys(mapping: dict, allowed: set[str], where: str = "config") -> None:
    """Reject a config section that is not a mapping or holds keys outside ``allowed``."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be a mapping")
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Parse a nested mapping (typically loaded from JSON) into a config.

    Unknown keys, at the top level or inside a section, raise ``ValueError``.
    A key left out takes its field's default.
    """
    _check_keys(mapping, _EXPERIMENT_KEYS)
    fields = {key: mapping[key] for key in _TOP_LEVEL if key in mapping}
    if "spectrum" in mapping:
        fields["spectrum_p"] = None  # a given spectrum section replaces the default exponent
    for name, keys in _SECTIONS.items():
        section = mapping.get(name, {})
        _check_keys(section, set(keys), name)
        fields.update((keys[key], value) for key, value in section.items())
    for key, field in (("noise.delta", "delta"), ("dim", "dim")):
        if field not in fields:
            raise ValueError(f"config requires {key}")
    return ExperimentConfig(**fields)


def _keyed(exc: ValueError, section: str) -> ValueError:
    """``exc`` with the argument name its message opens with as a config key: a name of the ``section``
    being built takes the section in front (``stopping.m0``), another setting's its own (``noise.delta``)."""
    name = str(exc).split(" ", 1)[0].rstrip(",")
    key = f"{section}.{name}" if name in _SECTIONS[section] else _FIELD_KEYS.get(name)
    return exc if key is None else ValueError(key + str(exc)[len(name) :])


def _resolve_path(base: Path, name: str | None, where: str) -> Path:
    """File ``name`` from the config key ``where``, relative to ``base`` unless absolute.

    ``ValueError`` when the key is empty or the file does not exist.
    """
    if not name:
        raise ValueError(f"{where} is required")
    path = Path(name)
    path = path if path.is_absolute() else base / path
    if not path.exists():
        raise ValueError(f"{where}: referenced file not found: {path}")
    return path


@dataclass(frozen=True)
class ResolvedExperiment:
    """Model objects materialised from an :class:`ExperimentConfig`.

    ``image`` is the read-only noiseless observation ``lam * mu`` that every
    replication draws around.
    """

    config: ExperimentConfig
    signal: Signal
    spectrum: Spectrum
    noise: NoiseModel
    stopping: StoppingConfig
    image: np.ndarray


def resolve_experiment(config: ExperimentConfig, base_dir: str | Path | None = None) -> ResolvedExperiment:
    """Load referenced files and build the model objects for an experiment."""
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    if config.spectrum_file is not None:
        spectrum = Spectrum(load_vector(_resolve_path(base, config.spectrum_file, "spectrum.file")))
    else:
        spectrum = make_polynomial_spectrum(config.dim, config.spectrum_p, "spectrum.p")
    dim, lam_last = spectrum.dim, spectrum.values.item(-1)
    if not dim / lam_last / lam_last < math.inf:  # Python floats: inf past the largest float, and no warning
        source = "spectrum_p" if config.spectrum_file is None else "spectrum_file"
        raise ValueError(
            f"{_FIELD_KEYS[source]} = {getattr(config, source)!r} is too steep: lam_{dim} = {lam_last!r}, and the "
            f"strong variances sum lam_i**-2 up to {dim} * lam_{dim}**-2, which overflows"
        )
    noise = NoiseModel(delta=config.delta)
    settings = {key: getattr(config, field) for key, field in _SECTIONS["stopping"].items()}
    section = "signal"  # the config section being built
    try:  # delta**2 is finite, but its products with the calibration or the dimension may not be
        if config.signal_file is not None:
            signal = Signal(load_vector(_resolve_path(base, config.signal_file, "signal.file")))
        else:
            signal = calibrated_signal(
                config.signal_name, config.dim, config.delta, spectrum=spectrum, target=config.signal_target
            )
        section = "stopping"
        stopping = make_stopping_config(config.dim, config.delta, **settings)
    except OverflowError as exc:
        raise ValueError(f"noise.delta = {config.delta!r} is too large: {exc}") from None
    except ValueError as exc:
        raise _keyed(exc, section) from None
    if signal.dim != config.dim or spectrum.dim != config.dim:
        raise ValueError("signal or spectrum dimension disagrees with the configured dim")
    image = spectrum.values * signal.coefficients
    image.setflags(write=False)
    return ResolvedExperiment(
        config=config, signal=signal, spectrum=spectrum, noise=noise, stopping=stopping, image=image
    )


@dataclass(frozen=True)
class ReplicationRecord:
    """One procedure's outcome on one simulated observation."""

    rep: int
    procedure: str
    tau: int
    rho: int | None
    immediate: bool
    err_strong: float
    err_weak: float
    eff_strong: float
    eff_weak: float


@dataclass(frozen=True)
class ProcedureSummary:
    """Aggregates of one procedure across all replications."""

    procedure: str
    eff_strong_quartiles: tuple[float, float, float]
    eff_weak_quartiles: tuple[float, float, float]
    eff_strong_mean: float
    eff_weak_mean: float
    immediate_fraction: float
    tau_mean: float


@dataclass(frozen=True)
class EfficiencyReport:
    """Experiment outcome: echoed config, oracle indices, and aggregates."""

    config: dict
    oracle: dict
    summaries: tuple[ProcedureSummary, ...]
    records: tuple[ReplicationRecord, ...]
    failures: tuple[tuple[int, str], ...]

    def as_record(self) -> dict:
        return {
            "config": self.config,
            "oracle": self.oracle,
            "procedures": [asdict(s) for s in self.summaries],
            "replications": len({r.rep for r in self.records}),
            "failures": [list(f) for f in self.failures],
        }


def oracle_payload(exp: ResolvedExperiment) -> dict:
    """All oracle quantities for a resolved experiment, as a plain dict."""
    return asdict(oracle_set(exp.signal, exp.spectrum, exp.noise, exp.stopping))


def _errors(
    y: np.ndarray, k: int, mu: np.ndarray, lam: np.ndarray, gaps: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float]:
    """Strong and weak error norms of the estimate truncated at the integer index ``k``.

    ``gaps`` holds the zero estimate's errors ``-mu`` and ``lam * -mu``. The
    estimate is ``y / lam`` up to index ``k`` and zero beyond, so only the
    first ``k`` entries are overwritten for the two dot products, straight
    from ``y``; no estimate vector is built. They are restored afterwards,
    even when a numeric error is raised. The dot products see the same
    entries as those of ``estimate_at(obs, spectrum, k).values - mu``: the
    head is formed by the same operations, and past it ``0 - mu`` and
    ``-mu`` differ at most in the sign of a zero, which squares away.
    """
    gap, weighted_gap = gaps
    try:
        np.divide(y[:k], lam[:k], out=gap[:k])
        np.subtract(gap[:k], mu[:k], out=gap[:k])
        np.multiply(lam[:k], gap[:k], out=weighted_gap[:k])
        return math.sqrt(float(np.dot(gap, gap))), math.sqrt(float(np.dot(weighted_gap, weighted_gap)))
    finally:
        np.negative(mu[:k], out=gap[:k])
        np.multiply(lam[:k], gap[:k], out=weighted_gap[:k])


def _replicate(
    exp: ResolvedExperiment, rep: int, procedures: tuple[str, ...], fixed_index: int = 0
) -> tuple[Observation, list[StopOutcome]]:
    """Replication ``rep``: its observation and each procedure's stop.

    The residual rule runs once and every procedure reads its stop; the
    ``fixed_oracle`` procedure stops at ``fixed_index``, which is never an
    immediate stop.
    """
    cfg, lam = exp.stopping, exp.spectrum.values
    obs = simulate_observation(exp.image, exp.noise, replication_seed(exp.config.base_seed, rep))
    tau = stop_index(obs.y, obs.y_norm_sq, cfg)
    immediate = tau == cfg.m0
    outcomes = []
    for proc in procedures:
        if proc == "plain_stop":
            outcomes.append(StopOutcome(tau, None, immediate))
        elif proc in ("two_step_weak", "two_step_strong"):
            norm = "weak" if proc == "two_step_weak" else "strong"
            # stopping.two_step inlined: per-layer tracing wraps the names this module calls
            rho = tau if tau > cfg.m0 else aic_select(obs.y, lam, exp.noise.delta, cfg.m0, norm)
            outcomes.append(StopOutcome(tau, rho, immediate))
        else:  # fixed_oracle
            outcomes.append(StopOutcome(fixed_index, None, False))
    return obs, outcomes


def run_experiment(config: ExperimentConfig, base_dir: str | Path | None = None) -> EfficiencyReport:
    """Run all replications in index order and aggregate; :func:`write_records_csv` writes the records."""
    exp = resolve_experiment(config, base_dir)
    oracle_record = oracle_payload(exp)
    fixed_index = oracle_record["classical_index"]
    num_strong, num_weak = math.sqrt(oracle_record["classical_risk"]), math.sqrt(oracle_record["classical_weak_risk"])

    mu, lam = exp.signal.coefficients, exp.spectrum.values
    gaps = (-mu, lam * -mu)  # the zero estimate's errors, reused by every replication
    records: list[ReplicationRecord] = []
    failures: list[tuple[int, str]] = []
    for rep in range(config.replications):
        try:  # records are appended only after every step that can raise
            obs, outcomes = _replicate(exp, rep, config.procedures, fixed_index)
            scored = {}  # chosen index -> its errors: procedures that choose the same index share them
            for outcome in outcomes:
                if outcome.chosen not in scored:
                    scored[outcome.chosen] = _errors(obs.y, outcome.chosen, mu, lam, gaps)
            for proc, outcome in zip(config.procedures, outcomes):
                err_strong, err_weak = scored[outcome.chosen]
                records.append(
                    ReplicationRecord(
                        rep=rep,
                        procedure=proc,
                        tau=outcome.tau,
                        rho=outcome.rho,
                        immediate=outcome.immediate_stop,
                        err_strong=err_strong,
                        err_weak=err_weak,
                        eff_strong=num_strong / err_strong if err_strong > 0 else math.inf,
                        eff_weak=num_weak / err_weak if err_weak > 0 else math.inf,
                    )
                )
        except ArithmeticError as exc:  # a numeric failure is recorded; the other replications still run
            failures.append((rep, f"{type(exc).__name__}: {exc}"))

    summaries = tuple(
        _summarise(proc, [r for r in records if r.procedure == proc]) for proc in config.procedures
    )
    return EfficiencyReport(
        config=config.to_mapping(),
        oracle=oracle_record,
        summaries=summaries,
        records=tuple(records),
        failures=tuple(failures),
    )


def _summarise(procedure: str, records: list[ReplicationRecord]) -> ProcedureSummary:
    if not records:
        nan3 = (math.nan, math.nan, math.nan)
        return ProcedureSummary(procedure, nan3, nan3, math.nan, math.nan, math.nan, math.nan)
    eff_s = np.array([r.eff_strong for r in records])
    eff_w = np.array([r.eff_weak for r in records])
    return ProcedureSummary(
        procedure=procedure,
        eff_strong_quartiles=_quartiles(eff_s),
        eff_weak_quartiles=_quartiles(eff_w),
        eff_strong_mean=float(np.mean(eff_s)),
        eff_weak_mean=float(np.mean(eff_w)),
        immediate_fraction=float(np.mean([r.immediate for r in records])),
        tau_mean=float(np.mean([r.tau for r in records])),
    )


def _quartiles(values: np.ndarray) -> tuple[float, float, float]:
    """numpy's linearly interpolated quartiles of non-negative values, ``inf`` where one draws on an ``inf``.

    numpy interpolates towards an infinite value as ``inf - inf``, which is
    NaN. The infinities sort last, so they are clipped to the largest float
    for numpy, and a quartile whose position lies past the last finite
    value is ``inf``; every other quartile is numpy's own.
    """
    positions = (values.size - 1) * np.array([0.25, 0.5, 0.75])
    beyond = positions > np.count_nonzero(np.isfinite(values)) - 1
    quartiles = np.percentile(np.minimum(values, np.finfo(float).max), [25, 50, 75])
    return tuple(math.inf if past else float(q) for q, past in zip(quartiles, beyond))


def _format_float(value: float) -> str:
    return repr(float(value))


def write_records_csv(path: str | Path, records, config_mapping: dict) -> None:
    """Write replication records, with the effective config echoed on top, as a new file."""
    lines = ["# config=" + json.dumps(config_mapping, sort_keys=True, separators=(",", ":"))]
    lines.append(CSV_HEADER)
    for r in records:
        lines.append(
            ",".join(
                (
                    str(r.rep),
                    str(r.tau),
                    "" if r.rho is None else str(r.rho),
                    str(int(r.immediate)),
                    _format_float(r.err_strong),
                    _format_float(r.err_weak),
                    _format_float(r.eff_strong),
                    _format_float(r.eff_weak),
                    r.procedure,
                )
            )
        )
    write_new_file(path, "\n".join(lines) + "\n")


def read_records_csv(path: str | Path) -> tuple[list[ReplicationRecord], dict | None]:
    """Read a record CSV written by :func:`write_records_csv`."""
    text = Path(path).read_text().splitlines()
    config_mapping = None
    start = 0
    if text and text[0].startswith("# config="):
        config_mapping = json.loads(text[0][len("# config=") :])
        start = 1
    if start >= len(text) or text[start] != CSV_HEADER:
        raise ValueError(f"{path}: missing expected CSV header")
    records = []
    for line in text[start + 1 :]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 9:
            raise ValueError(f"{path}: malformed CSV row: {line!r}")
        records.append(
            ReplicationRecord(
                rep=int(parts[0]),
                procedure=parts[8],
                tau=int(parts[1]),
                rho=int(parts[2]) if parts[2] else None,
                immediate=bool(int(parts[3])),
                err_strong=float(parts[4]),
                err_weak=float(parts[5]),
                eff_strong=float(parts[6]),
                eff_weak=float(parts[7]),
            )
        )
    return records, config_mapping
