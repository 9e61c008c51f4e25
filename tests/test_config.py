import ast
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

from ffa import cli, config
from ffa.analog import TrainConfig
from ffa.config import (
    PROBS,
    ExperimentConfig,
    apply_overrides,
    parse_config_text,
    serialize_config,
)
from ffa.core import SigmoidProb, SymmetricProb
from ffa.data import LabelCodebook
from ffa.errors import ConfigError
from ffa.spiking import SpikingConfig

SAMPLE = """
[experiment]
model = hebbian
prob = sigmoid
trace = li
eta = 0.05
epochs = 3
seed = 9

[lif]
decay = 0.8

[grid]
eta = 0.1, 0.2
"""


# Canonical config.ini text; a renamed, moved or reordered key changes these.
GOLDEN_DEFAULT = """\
[experiment]
model = analog
prob = symmetric
trace = relu
eta = 0.01
tau_e = 0.999
epochs = 10
batch_size = 50
seed = 0
n_hidden = 200

[probability]
alpha = 1.0
theta = 2.0
epsilon = 0.5

[labels]
length = 100
density = 0.3
codebook_seed = 101

[lif]
decay = 0.85
threshold = 1.0
reset_mode = to_zero
input_gain = 4.0

[trace]
mu = 0.1
tau_o = 0.9

[encoder]
scale = 0.25
steps = 24
active_window = 9

[grid]
eta = 0.001, 0.01, 0.1, 1.0, 10.0
tau_e = 0.999, 0.99, 0.9

[paths]
data_dir = data/mnist
out_dir = runs/out

"""

GOLDEN_ONLINE = """\
[experiment]
model = hebbian_online
prob = symmetric
trace = relu
eta = 0.01
tau_e = 0.999
epochs = 10
batch_size = 1
seed = 0
n_hidden = 200

[probability]
alpha = 1.0
theta = 2.0
epsilon = 0.5

[labels]
length = 100
density = 0.3
codebook_seed = 101

[lif]
decay = 0.85
threshold = 1.0
reset_mode = to_zero
input_gain = 4.0

[trace]
mu = 0.1
tau_o = 0.9

[encoder]
scale = 0.25
steps = 24
active_window = 9

[grid]
eta = 0.001, 0.01, 0.1, 1.0, 10.0
tau_e = 0.999, 0.99, 0.9

[paths]
data_dir = data/mnist
out_dir = runs/out

"""


class TestParsing:
    def test_defaults_when_empty(self):
        cfg = parse_config_text("")
        assert cfg.model == "analog"
        assert cfg.epochs == 10
        assert cfg.grid_eta == (0.001, 0.01, 0.1, 1.0, 10.0)

    def test_values_applied(self):
        cfg = parse_config_text(SAMPLE)
        assert cfg.model == "hebbian"
        assert cfg.trace == "li"
        assert cfg.eta == 0.05
        assert cfg.lif_decay == 0.8
        assert cfg.grid_eta == (0.1, 0.2)
        # untouched fields keep defaults
        assert cfg.batch_size == 50

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key experiment.learning_rate"):
            parse_config_text("[experiment]\nlearning_rate = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[optimizer\]"):
            parse_config_text("[optimizer]\nbeta = 1\n")

    def test_bad_value_reported_with_location(self):
        with pytest.raises(ConfigError, match="experiment.epochs"):
            parse_config_text("[experiment]\nepochs = soon\n")

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config_text("not an ini file at all [")

    @pytest.mark.parametrize("section,key,value", [
        ("experiment", "eta", "nan"),
        ("probability", "theta", "inf"),
        ("lif", "threshold", "nan"),
        ("trace", "mu", "-inf"),
        ("grid", "eta", "0.1, nan"),
    ])
    def test_non_finite_float_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: not a finite number"):
            parse_config_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: not a finite number"):
            apply_overrides(ExperimentConfig(), {f"{section}.{key}": value})

    def test_every_field_has_its_own_ini_key(self):
        keys = [f.metadata["ini"] for f in fields(ExperimentConfig)]
        assert all(key.count(".") == 1 for key in keys)
        assert len(set(keys)) == len(keys)

    def test_every_field_is_read(self):
        # A knob read neither by a config method (as self.<field>) nor by the
        # driver (as any attribute) changes nothing a run computes.
        def attribute_reads(node, owner=None):
            return {
                sub.attr for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
                and (owner is None or isinstance(sub.value, ast.Name) and sub.value.id == owner)
            }

        source = ast.parse(Path(config.__file__).read_text())
        cls = next(node for node in source.body
                   if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
        read = set().union(*(attribute_reads(node, "self") for node in cls.body
                             if isinstance(node, ast.FunctionDef)))
        read |= attribute_reads(ast.parse(Path(cli.__file__).read_text()))
        assert [f.name for f in fields(ExperimentConfig) if f.name not in read] == []


class TestValidation:
    def test_all_problems_in_one_message(self):
        cfg = ExperimentConfig(model="quantum", prob="fuzzy", eta=-1.0, batch_size=0)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        text = str(err.value)
        for fragment in ("model", "prob", "eta", "batch_size"):
            assert fragment in text

    def test_valid_default_config(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize("bad,fragment", [
        ({"model": "quantum"}, "model"),
        ({"prob": "fuzzy"}, "prob"),
        ({"model": "hebbian", "trace": "square"}, "trace"),
        ({"eta": 0.0}, "eta"),
        ({"eta": math.nan}, "eta"),
        ({"tau_e": 1.0}, "tau_e"),
        ({"tau_e": math.nan}, "tau_e"),
        ({"epochs": -1}, "epochs"),
        ({"batch_size": 0}, "batch_size"),
        ({"n_hidden": 1}, "n_hidden"),
        ({"prob": "sigmoid", "alpha": -1.0}, "alpha"),
        ({"alpha": math.nan}, "alpha"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"epsilon": math.nan}, "epsilon"),
        ({"label_length": 3}, "length"),
        ({"label_density": 1.0}, "density"),
        ({"lif_decay": 1.5}, "decay"),
        ({"lif_reset": "clamp"}, "reset_mode"),
        ({"lif_threshold": 0.0}, "threshold"),
        ({"lif_threshold": -1.0}, "threshold"),
        ({"lif_input_gain": -1.0}, "input_gain"),
        ({"lif_input_gain": math.nan}, "input_gain"),
        ({"trace_mu": 0.0}, "trace mu"),
        ({"trace_mu": -0.1}, "trace mu"),
        ({"trace_tau_o": 1.0}, "tau_o"),
        ({"encoder_scale": 1.5}, "scale"),
        ({"encoder_steps": 0}, "steps"),
        ({"active_window": 30}, "active_window"),
        ({"grid_eta": ()}, "grid eta"),
        ({"grid_tau_e": ()}, "grid tau_e"),
    ], ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else v)
    def test_each_rule_names_its_field(self, bad, fragment):
        with pytest.raises(ConfigError, match="invalid config") as err:
            replace(ExperimentConfig(), **bad).validate()
        assert fragment in str(err.value)

    @pytest.mark.parametrize("gain", [0.0, 4.0])
    def test_silent_gain_is_legal(self, gain):
        # a zero gain leaves the layer silent, a state the trainers must survive
        replace(ExperimentConfig(), lif_input_gain=gain).validate()

    def test_bad_part_hides_no_other_field(self):
        cfg = ExperimentConfig(prob="sigmoid", alpha=-1.0, eta=-1.0, lif_decay=2.0,
                               trace="square", encoder_steps=0)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        text = str(err.value)
        for fragment in ("alpha", "eta", "decay", "trace kind", "steps"):
            assert fragment in text

    def test_each_problem_reported_once(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(epsilon=-1.0, lif_decay=2.0).validate()
        text = str(err.value)
        assert text.count("epsilon must be positive") == 1
        assert text.count("lif decay") == 1

    def test_online_model_normalizes_batch_size(self):
        cfg = ExperimentConfig(model="hebbian_online", batch_size=50)
        assert cfg.normalized().batch_size == 1
        # non-online models keep theirs
        assert ExperimentConfig(model="hebbian", batch_size=50).normalized().batch_size == 50


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = parse_config_text(SAMPLE)
        text = serialize_config(cfg)
        again = parse_config_text(text)
        assert again == cfg
        assert serialize_config(again) == text  # idempotent

    def test_default_config_round_trips(self):
        cfg = ExperimentConfig()
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_canonical_text_is_pinned(self):
        assert serialize_config(ExperimentConfig()) == GOLDEN_DEFAULT
        online = ExperimentConfig(model="hebbian_online", batch_size=50).normalized()
        assert serialize_config(online) == GOLDEN_ONLINE


class TestOverrides:
    def test_flags_win(self):
        cfg = parse_config_text(SAMPLE)
        cfg = apply_overrides(cfg, {"experiment.eta": "0.2", "paths.data_dir": "/tmp/x"})
        assert cfg.eta == 0.2
        assert cfg.data_dir == "/tmp/x"

    def test_bad_override_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(ExperimentConfig(), {"experiment.nope": "1"})

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="section.key"):
            apply_overrides(ExperimentConfig(), {"eta": "1"})


class TestBuilders:
    def test_prob_fn_sigmoid(self):
        cfg = ExperimentConfig(prob="sigmoid", alpha=2.0, theta=1.5)
        assert cfg.prob_fn() == SigmoidProb(alpha=2.0, theta=1.5)

    def test_prob_fn_symmetric(self):
        cfg = ExperimentConfig(prob="symmetric", epsilon=0.25)
        assert cfg.prob_fn() == SymmetricProb(epsilon=0.25)

    def test_train_config_carries_seed(self):
        cfg = ExperimentConfig(seed=77, eta=0.5, batch_size=3, epochs=2)
        tc = cfg.train_config()
        assert (tc.seed, tc.eta, tc.batch_size, tc.epochs) == (77, 0.5, 3, 2)

    def test_spiking_config_assembled(self):
        cfg = ExperimentConfig(trace="hard_li", tau_e=0.9, n_hidden=33,
                               lif_decay=0.7, encoder_steps=10, active_window=4)
        sp = cfg.spiking_config()
        assert sp.trace.kind == "hard_li"
        assert sp.tau_e == 0.9
        assert sp.n_out == 33
        assert sp.lif.decay == 0.7
        assert sp.encoder.steps == 10

    def test_mode(self):
        assert ExperimentConfig(model="analog").mode() == "batch"
        assert ExperimentConfig(model="hebbian_online").mode() == "online"

    def test_defaults_are_the_components_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.spiking_config() == SpikingConfig()
        assert cfg.codebook() == LabelCodebook()
        # the config's default prob is symmetric; TrainConfig's is sigmoid
        assert replace(cfg.train_config(), prob_fn=SigmoidProb()) == TrainConfig()
        defaults = {"sigmoid": SigmoidProb(), "symmetric": SymmetricProb()}
        for prob in PROBS:
            assert replace(cfg, prob=prob).prob_fn() == defaults[prob]
