"""The epoch protocol every trainer shares (:func:`ffa.analog.run_epochs`)."""

import numpy as np
import pytest

import ffa.analog as analog_mod
import ffa.spiking as spiking_mod
from ffa.analog import DenseLayer, TrainConfig, partition_for, train_analog
from ffa.core import SymmetricProb
from ffa.data import ExperimentData, LabelCodebook
from ffa.errors import DivergenceError
from ffa.spiking import SpikeEncoderConfig, SpikingConfig, train_hebbian
from tests.conftest import make_synthetic

TRAINERS = ["analog", "hebbian_batch", "hebbian_online"]
N_OUT = 12
SEED = 3
SPIKING = SpikingConfig(n_out=N_OUT, tau_e=0.99,
                        encoder=SpikeEncoderConfig(steps=8, active_window=3))
# The per-batch step each trainer hands the loop, where a test can reach the layer.
UPDATE_HOOK = {
    "analog": (analog_mod, "layer_gradient"),
    "hebbian_batch": (spiking_mod, "simulate"),
    "hebbian_online": (spiking_mod, "simulate"),
}


@pytest.fixture(scope="module")
def tiny_data():
    train, test = make_synthetic(40, 20, dim=30, seed=8)
    return ExperimentData(train, test, LabelCodebook(length=10, density=0.3, seed=2))


def train(trainer, data, epochs, eval_fn=None):
    cfg = TrainConfig(eta=0.05, batch_size=10, epochs=epochs, seed=SEED, prob_fn=SymmetricProb())
    if trainer == "analog":
        return train_analog(cfg, data, eval_fn, n_out=N_OUT)
    mode = trainer.split("_")[1]
    return train_hebbian(cfg, data, mode, SPIKING, eval_fn)


@pytest.mark.parametrize("trainer", TRAINERS)
class TestRunEpochs:
    def test_zero_epochs_return_the_seeded_init(self, tiny_data, trainer):
        layer, log = train(trainer, tiny_data, epochs=0)
        init = DenseLayer.initialize(
            tiny_data.input_dim, N_OUT, partition_for(SymmetricProb(), N_OUT), SEED
        )
        assert log == []
        assert np.array_equal(layer.weights, init.weights)
        assert layer.partition == init.partition

    def test_eval_once_per_epoch_after_its_updates(self, tiny_data, trainer):
        seen, epochs = [], []
        scores = [0.25, 0.75]

        def eval_fn(layer, epoch):
            seen.append(layer.weights.copy())
            epochs.append(epoch)
            return scores[len(seen) - 1]

        layer, log = train(trainer, tiny_data, epochs=2, eval_fn=eval_fn)
        one_epoch, _ = train(trainer, tiny_data, epochs=1)
        assert len(seen) == 2
        assert epochs == [0, 1]
        assert np.array_equal(seen[0], one_epoch.weights)
        assert np.array_equal(seen[1], layer.weights)
        assert [entry.test_accuracy for entry in log] == scores
        assert [entry.epoch for entry in log] == [0, 1]

    def test_nan_mid_epoch_diverges_before_eval(self, tiny_data, trainer, monkeypatch):
        module, name = UPDATE_HOOK[trainer]
        original = getattr(module, name)
        evaluated = []

        def poisoning(layer, *args, **kwargs):
            result = original(layer, *args, **kwargs)
            if evaluated:  # every update from epoch 1 on
                layer.weights[0, 0] = np.nan
            return result

        def eval_fn(layer, epoch):
            evaluated.append(True)
            return 0.5

        monkeypatch.setattr(module, name, poisoning)
        with pytest.raises(DivergenceError, match="epoch 1"), np.errstate(all="ignore"):
            train(trainer, tiny_data, epochs=3, eval_fn=eval_fn)
        assert len(evaluated) == 1
