"""The epoch protocol every trainer shares (:func:`ffa.analog.run_epochs`)."""

from dataclasses import replace

import numpy as np
import pytest

import ffa.analog as analog_mod
import ffa.spiking as spiking_mod
from ffa.analog import DenseLayer, TrainConfig, _RunningStats, partition_for, train_analog
from ffa.core import SymmetricProb, probability_batch
from ffa.data import ExperimentData, LabelCodebook, batches, embed_batch, pair_codes
from ffa.errors import DivergenceError, SilentLayerError
from ffa.spiking import (
    EligibilityTrace,
    LIFConfig,
    SpikeEncoderConfig,
    SpikingConfig,
    simulate,
    train_hebbian,
)
from tests.conftest import make_synthetic
from tests.reference import row_major_simulate

TRAINERS = ["analog", "hebbian_batch", "hebbian_online"]
N_OUT = 12
SEED = 3
SPIKING = SpikingConfig(n_out=N_OUT, tau_e=0.99,
                        encoder=SpikeEncoderConfig(steps=8, active_window=3))
# The per-batch step each trainer hands the loop, where a test can reach the layer.
UPDATE_HOOK = {
    "analog": (analog_mod, "layer_gradient"),
    "hebbian_batch": (spiking_mod, "simulate"),
    "hebbian_online": (spiking_mod, "simulate_online"),
}


@pytest.fixture(scope="module")
def tiny_data():
    train, test = make_synthetic(40, 20, dim=30, seed=8)
    return ExperimentData(train, test, LabelCodebook(length=10, density=0.3, seed=2))


def train(trainer, data, epochs, eval_fn=None, spiking=SPIKING):
    cfg = TrainConfig(eta=0.05, batch_size=10, epochs=epochs, seed=SEED, prob_fn=SymmetricProb())
    if trainer == "analog":
        return train_analog(cfg, data, eval_fn, n_out=N_OUT)
    mode = trainer.split("_")[1]
    return train_hebbian(cfg, data, mode, spiking, eval_fn)


def embedded_batches(dataset, codebook, k, seed, epoch):
    """The rows [2m, n_in] of each contrastive batch, drawn and embedded as
    ``data.batches`` did when it yielded them whole."""
    rng = np.random.default_rng([seed, epoch, 0xBA7C4])
    order = rng.permutation(len(dataset))
    for start in range(0, len(order), k):
        chunk = order[start : start + k]
        labels = dataset.labels[chunk]
        draw = rng.integers(9, size=chunk.size)
        wrong = draw + (draw >= labels)
        rows = np.stack([labels, wrong], axis=1).ravel()
        yield embed_batch(np.repeat(dataset.images_at(chunk), 2, axis=0), rows, codebook)


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

    def test_nan_stops_the_epoch_at_the_next_check(self, tiny_data, trainer, monkeypatch):
        # every trainer takes 10 images per update, so every epoch has 4 updates;
        # a NaN written in update 1 stops the epoch after update 2, the first
        # check at 20 images, not at the epoch's end
        module, name = UPDATE_HOOK[trainer]
        original = getattr(module, name)
        updates = []

        def counting_codes(n):
            updates.append(n)
            return pair_codes(n)

        def poisoning(layer, *args, **kwargs):
            result = original(layer, *args, **kwargs)
            if len(updates) == 1:
                layer.weights[0, 0] = np.nan
            return result

        monkeypatch.setattr(analog_mod, "FINITE_CHECK_EVERY", 20)
        monkeypatch.setattr(spiking_mod, "ONLINE_BLOCK", 10)
        monkeypatch.setattr(analog_mod, "pair_codes", counting_codes)
        monkeypatch.setattr(module, name, poisoning)
        with pytest.raises(DivergenceError, match="after epoch 0, update 2$"), \
                np.errstate(all="ignore"):
            train(trainer, tiny_data, epochs=2)
        assert len(updates) == 2

    def test_zero_weights_are_a_silent_layer(self, tiny_data, trainer, monkeypatch):
        # no latent ever leaves zero, so no update ever moves the weights
        original = DenseLayer.initialize

        def zero_init(*args, **kwargs):
            layer = original(*args, **kwargs)
            layer.weights[:] = 0.0
            return layer

        monkeypatch.setattr(analog_mod.DenseLayer, "initialize", zero_init)
        evaluated = []
        with pytest.raises(SilentLayerError, match="epoch 0"):
            train(trainer, tiny_data, epochs=2, eval_fn=lambda layer, epoch: evaluated.append(1))
        assert evaluated == []


@pytest.mark.parametrize("mode", ["batch", "online"])
def test_zero_input_gain_is_a_silent_layer(tiny_data, mode):
    silent = replace(SPIKING, lif=LIFConfig(input_gain=0.0))
    with pytest.raises(SilentLayerError, match="every training latent was zero in epoch 0"):
        train(f"hebbian_{mode}", tiny_data, epochs=1, spiking=silent)


@pytest.mark.parametrize("mode", ["batch", "online"])
def test_spiking_epoch_equals_a_loop_over_embedded_rows(tiny_data, mode):
    # the spiking trainers embed each pair batch themselves; the weights and the
    # epoch's statistics are those of the same plastic calls on rows embedded the
    # way batches used to, online one image and one row at a time
    trained, log = train(f"hebbian_{mode}", tiny_data, epochs=1)
    prob = SymmetricProb()
    layer = DenseLayer.initialize(tiny_data.input_dim, N_OUT, partition_for(prob, N_OUT), SEED)
    layer.weights = np.asfortranarray(layer.weights)
    eligibility = EligibilityTrace.zeros_like(layer.weights, SPIKING.tau_e)
    rng = np.random.default_rng([SEED, 0, 0x5E1])
    stats = _RunningStats()
    pairs = 1 if mode == "online" else 10
    for X in embedded_batches(tiny_data.train, tiny_data.codebook, pairs, SEED, epoch=0):
        codes = pair_codes(len(X))
        rows = 1 if mode == "online" else len(X)
        for i in range(0, len(X), rows):
            c = codes[i : i + rows]
            final = simulate(layer, X[i : i + rows], SPIKING, rng, c, prob, eligibility, 0.05)
            stats.update(final, c, probability_batch(final, prob, layer.partition))
    init = DenseLayer.initialize(tiny_data.input_dim, N_OUT, layer.partition, SEED)
    assert not np.array_equal(layer.weights, init.weights)
    assert np.array_equal(trained.weights, layer.weights)
    want = stats.finish(0, float("nan"))
    assert (log[0].mean_goodness_pos, log[0].mean_goodness_neg, log[0].train_loss) == (
        want.mean_goodness_pos, want.mean_goodness_neg, want.train_loss)


def test_rows_added_in_turn_equal_one_update_per_row():
    # online statistics add a block's rows one at a time, as one update per row
    # did; on these values a row sum (numpy's pairwise .sum()) gives other bits
    rng = np.random.default_rng(12)
    latents = rng.random((100, 7)) * 10.0 ** rng.integers(-8, 8, size=(100, 1))
    codes = pair_codes(100)
    p = rng.random(100)
    blocks, rows, summed = _RunningStats(), _RunningStats(), _RunningStats()
    for stats in (blocks, rows, summed):  # running totals that are not zero
        stats.update(latents[:3], codes[:3], p[:3])
    blocks.update_each_row(latents, codes, p)
    summed.update(latents, codes, p)
    for b in range(100):
        rows.update(latents[b : b + 1], codes[b : b + 1], p[b : b + 1])
    fields = ("g_pos", "g_neg", "loss", "n_pos", "n_neg", "n_loss")
    assert [getattr(blocks, f) for f in fields] == [getattr(rows, f) for f in fields]
    for f in ("g_pos", "g_neg", "loss"):
        assert getattr(summed, f) != getattr(rows, f), f


def test_batch_epoch_equals_the_row_major_reference_bitwise(tiny_data):
    # the presynaptic-major batch trainer computes what the row-major loop did, bit for bit
    trained, _ = train("hebbian_batch", tiny_data, epochs=1)
    prob = SymmetricProb()
    layer = DenseLayer.initialize(tiny_data.input_dim, N_OUT, partition_for(prob, N_OUT), SEED)
    eligibility = EligibilityTrace.zeros_like(layer.weights, SPIKING.tau_e)
    rng = np.random.default_rng([SEED, 0, 0x5E1])
    for batch in batches(tiny_data.train, 10, SEED, 0):
        row_major_simulate(layer, batch.rows(tiny_data.codebook), SPIKING, rng,
                           pair_codes(len(batch)), prob, eligibility, 0.05)
    assert trained.weights.T.flags.c_contiguous and layer.weights.flags.c_contiguous
    init = DenseLayer.initialize(tiny_data.input_dim, N_OUT, layer.partition, SEED)
    assert not np.array_equal(layer.weights, init.weights)
    assert np.array_equal(trained.weights, layer.weights)
