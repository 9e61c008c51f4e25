"""Experiment configuration: INI-style file, flag overrides, validation.

Every module-level knob lives here so a single file pins a whole run.
Parsing is strict (unknown sections or keys are errors) and validation
reports every bad field in one message.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .analog import TrainConfig
from .core import ProbabilityFn, SigmoidProb, SymmetricProb
from .data import LabelCodebook
from .errors import ConfigError, FFAError, require
from .spiking import EligibilityTrace, LIFConfig, SpikeEncoderConfig, SpikingConfig, TraceConfig

MODELS = ("analog", "hebbian", "hebbian_online")
PROBS = ("sigmoid", "symmetric")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [s for s in (part.strip() for part in text.split(",")) if s]
    if not items:
        raise ValueError("empty list")
    return tuple(_parse_float(s) for s in items)


# Parser by the type of a field's default; any other type parses itself.
_PARSERS = {float: _parse_float, tuple: _parse_float_list}


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _ini(key: str, default):
    """A config field stored under the INI ``section.key``."""
    return field(default=default, metadata={"ini": key})


@dataclass
class ExperimentConfig:
    # A value that a component uses takes its default from that component's class.
    model: str = _ini("experiment.model", "analog")
    prob: str = _ini("experiment.prob", "symmetric")
    trace: str = _ini("experiment.trace", TraceConfig.kind)
    eta: float = _ini("experiment.eta", TrainConfig.eta)
    tau_e: float = _ini("experiment.tau_e", SpikingConfig.tau_e)
    epochs: int = _ini("experiment.epochs", TrainConfig.epochs)
    batch_size: int = _ini("experiment.batch_size", TrainConfig.batch_size)
    seed: int = _ini("experiment.seed", TrainConfig.seed)
    n_hidden: int = _ini("experiment.n_hidden", SpikingConfig.n_out)
    alpha: float = _ini("probability.alpha", SigmoidProb.alpha)
    theta: float = _ini("probability.theta", SigmoidProb.theta)
    epsilon: float = _ini("probability.epsilon", SymmetricProb.epsilon)
    label_length: int = _ini("labels.length", 100)
    label_density: float = _ini("labels.density", 0.3)
    codebook_seed: int = _ini("labels.codebook_seed", 101)
    lif_decay: float = _ini("lif.decay", LIFConfig.decay)
    lif_threshold: float = _ini("lif.threshold", LIFConfig.threshold)
    lif_reset: str = _ini("lif.reset_mode", LIFConfig.reset_mode)
    lif_input_gain: float = _ini("lif.input_gain", LIFConfig.input_gain)
    trace_mu: float = _ini("trace.mu", TraceConfig.mu)
    trace_tau_o: float = _ini("trace.tau_o", TraceConfig.tau_o)
    encoder_scale: float = _ini("encoder.scale", SpikeEncoderConfig.scale)
    encoder_steps: int = _ini("encoder.steps", SpikeEncoderConfig.steps)
    active_window: int = _ini("encoder.active_window", SpikeEncoderConfig.active_window)
    grid_eta: tuple[float, ...] = _ini("grid.eta", (0.001, 0.01, 0.1, 1.0, 10.0))
    grid_tau_e: tuple[float, ...] = _ini("grid.tau_e", (0.999, 0.99, 0.9))
    data_dir: str = _ini("paths.data_dir", "data/mnist")
    out_dir: str = _ini("paths.out_dir", "runs/out")

    def normalized(self) -> "ExperimentConfig":
        """Apply structural rules (online training is single-sample)."""
        if self.model == "hebbian_online" and self.batch_size != 1:
            return replace(self, batch_size=1)
        return self

    def validate(self) -> None:
        """Raise one ConfigError naming every invalid field."""
        problems = self.problems()
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))

    def problems(self) -> list[str]:
        """Every rule the config breaks, each named once.

        The range and enum rules belong to the components that use the
        values; this builds each component and gathers their errors, plus
        the rules that no component owns.
        """
        problems: list[str] = []
        builders = (
            self._own_rules, self.train_config, self.codebook,
            self._lif, self._trace, self._encoder, lambda: EligibilityTrace(np.zeros(0), self.tau_e),
            # both probability forms, whichever one is selected
            *(replace(self, prob=prob).prob_fn for prob in PROBS),
        )
        for build in builders:
            try:
                build()
            except FFAError as exc:
                if str(exc) not in problems:
                    problems.append(str(exc))
        return problems

    def _own_rules(self) -> None:
        require({
            f"model must be one of {MODELS}, got {self.model!r}": self.model in MODELS,
            f"prob must be one of {PROBS}, got {self.prob!r}": self.prob in PROBS,
            "n_hidden must be >= 2": self.n_hidden >= 2,
            "grid eta values must be nonempty": len(self.grid_eta) > 0,
            "grid tau_e values must be nonempty": len(self.grid_tau_e) > 0,
        })

    # --- builders for the module-level configs -------------------------
    # TrainConfig checks its own fields before its prob_fn part is built, so
    # a bad part cannot hide them from validate().

    def prob_fn(self) -> ProbabilityFn:
        if self.prob == "sigmoid":
            return SigmoidProb(alpha=self.alpha, theta=self.theta)
        return SymmetricProb(epsilon=self.epsilon)

    def train_config(self) -> TrainConfig:
        config = TrainConfig(
            eta=self.eta, batch_size=self.batch_size, epochs=self.epochs, seed=self.seed
        )
        return replace(config, prob_fn=self.prob_fn())

    def _lif(self) -> LIFConfig:
        return LIFConfig(
            decay=self.lif_decay,
            threshold=self.lif_threshold,
            reset_mode=self.lif_reset,
            input_gain=self.lif_input_gain,
        )

    def _trace(self) -> TraceConfig:
        return TraceConfig(kind=self.trace, mu=self.trace_mu, tau_o=self.trace_tau_o)

    def _encoder(self) -> SpikeEncoderConfig:
        return SpikeEncoderConfig(
            scale=self.encoder_scale, steps=self.encoder_steps, active_window=self.active_window
        )

    def spiking_config(self) -> SpikingConfig:
        return SpikingConfig(
            lif=self._lif(), trace=self._trace(), encoder=self._encoder(),
            tau_e=self.tau_e, n_out=self.n_hidden,
        )

    def codebook(self) -> LabelCodebook:
        return LabelCodebook(self.label_length, self.label_density, self.codebook_seed)

    def mode(self) -> str:
        return "online" if self.model == "hebbian_online" else "batch"


# (section, key) -> (attribute, parser), in field order
_SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    tuple(f.metadata["ini"].split(".")): (f.name, _PARSERS.get(type(f.default), type(f.default)))
    for f in fields(ExperimentConfig)
}

_SECTION_ORDER = tuple(dict.fromkeys(section for section, _ in _SCHEMA))


def _assign(cfg: ExperimentConfig, section: str, key: str, raw: str, problems: list[str]) -> None:
    entry = _SCHEMA.get((section, key))
    if entry is None:
        problems.append(f"unknown key {section}.{key}")
        return
    attr, parse = entry
    try:
        setattr(cfg, attr, parse(raw))
    except ValueError as exc:
        problems.append(f"{section}.{key}: {exc}")


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    cfg = ExperimentConfig()
    problems: list[str] = []
    for section in parser.sections():
        if section not in _SECTION_ORDER:
            problems.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            _assign(cfg, section, key, raw, problems)
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def apply_overrides(cfg: ExperimentConfig, overrides: dict[str, str]) -> ExperimentConfig:
    """Apply ``section.key=value`` strings on top of a parsed config."""
    problems: list[str] = []
    for dotted, raw in overrides.items():
        if "." not in dotted:
            problems.append(f"override {dotted!r} is not of the form section.key")
            continue
        section, key = dotted.split(".", 1)
        _assign(cfg, section, key, raw, problems)
    if problems:
        raise ConfigError("invalid overrides: " + "; ".join(problems))
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical INI text; parse(serialize(cfg)) round-trips exactly."""
    out = io.StringIO()
    for section in _SECTION_ORDER:
        out.write(f"[{section}]\n")
        for (sec, key), (attr, _) in _SCHEMA.items():
            if sec == section:
                out.write(f"{key} = {_fmt(getattr(cfg, attr))}\n")
        out.write("\n")
    return out.getvalue()
