import time
from dataclasses import replace

import numpy as np
import pytest

from ffa import _kernels, cli, forks, metrics
from ffa.checkpoint import load_checkpoint, save_checkpoint
from ffa.config import apply_overrides, load_config
from ffa.data import Dataset, ExperimentData, load_mnist
from tests.conftest import write_idx_images, write_idx_labels
from tests.reference import read_latents


@pytest.fixture()
def base_config(tmp_path, idx_dataset_dir):
    out_dir = tmp_path / "run"
    text = f"""
[experiment]
model = analog
prob = symmetric
epochs = 2
batch_size = 20
seed = 1
n_hidden = 16

[labels]
length = 8
codebook_seed = 5

[encoder]
steps = 8
active_window = 3

[paths]
data_dir = {idx_dataset_dir}
out_dir = {out_dir}
"""
    path = tmp_path / "config.ini"
    path.write_text(text)
    return path, out_dir


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


class TestTrain:
    def test_writes_artifacts(self, base_config, capsys):
        config, out_dir = base_config
        assert run_cli("train", "--config", config) == 0
        assert (out_dir / "model.ffaw").is_file()
        assert (out_dir / "config.ini").is_file()
        log_lines = (out_dir / "log.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,mean_goodness_pos,mean_goodness_neg,train_loss,test_accuracy"
        assert len(log_lines) == 3  # header + 2 epochs
        assert "final test accuracy:" in capsys.readouterr().out

    @pytest.mark.parametrize("model,trace,prob,compiled", [
        ("analog", "relu", "symmetric", True), ("hebbian_online", "relu", "symmetric", True),
        ("hebbian", "relu", "symmetric", True), ("hebbian", "li", "symmetric", True),
        ("hebbian", "relu", "sigmoid", False), ("hebbian_online", "relu", "sigmoid", False),
    ], ids=["analog-True", "hebbian_online-True", "hebbian-True", "hebbian-li-True",
            "hebbian-sigmoid-False", "hebbian_online-sigmoid-False"])
    def test_logs_the_backend_once(self, base_config, caplog, model, trace, prob, compiled):
        # a sigmoid run trains on numpy, though its per-epoch spiking eval runs compiled
        from ffa import _kernels

        config, out_dir = base_config
        with caplog.at_level("INFO", logger="ffa.cli"):
            assert run_cli("train", "--config", config, "--set", f"experiment.model={model}",
                           "--set", f"experiment.trace={trace}",
                           "--set", f"experiment.prob={prob}",
                           "--set", "experiment.epochs=1") == 0
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("backend")]
        ran = compiled and _kernels.library() is not None
        assert lines == [f"backend: c ({_kernels.compiler()})" if ran else "backend: numpy"]
        for artifact in ("model.ffaw", "log.csv"):
            assert b"backend" not in (out_dir / artifact).read_bytes()

    def test_byte_identical_reruns(self, base_config, tmp_path):
        # the config snapshot records the differing out_dir, so the
        # determinism contract covers the checkpoint and the epoch log
        config, _ = base_config
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("train", "--config", config, "--out-dir", out) == 0
            outs.append(out)
        for artifact in ("model.ffaw", "log.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact

    @pytest.mark.parametrize("model", ["analog", "hebbian", "hebbian_online"])
    def test_idx_bytes_train_the_checkpoint_of_their_float_twin(self, base_config, tmp_path,
                                                                monkeypatch, model):
        # the files' bytes and the floats p / 255 they stand for give the same model.ffaw,
        # compiled and on numpy
        config, _ = base_config
        cfg = apply_overrides(load_config(config), {
            "experiment.model": model, "experiment.epochs": "1"}).normalized()
        train, test = load_mnist(cfg.data_dir)
        twin = ExperimentData(Dataset(train.images / 255.0, train.labels),
                              Dataset(test.images / 255.0, test.labels), cfg.codebook())
        checkpoints = []
        for backend in ("compiled", "numpy"):
            if backend == "numpy":
                monkeypatch.setattr(_kernels, "library", lambda: None)
            out = tmp_path / backend
            assert run_cli("train", "--config", config, "--out-dir", out,
                           "--set", f"experiment.model={model}",
                           "--set", "experiment.epochs=1") == 0
            layer, _ = cli.train_model(cfg, twin)
            save_checkpoint(out / "twin.ffaw", layer, twin.codebook)
            checkpoints += [(out / name).read_bytes() for name in ("model.ffaw", "twin.ffaw")]
        assert all(checkpoint == checkpoints[0] for checkpoint in checkpoints)

    @pytest.mark.parametrize("model", ["hebbian", "hebbian_online"])
    def test_silent_layer_fails_the_run(self, base_config, capsys, model):
        config, out_dir = base_config
        code = run_cli("train", "--config", config, "--set", f"experiment.model={model}",
                       "--set", "lif.input_gain=0")
        assert code == cli.EXIT_CODES["silent"] == 7
        assert "error:silent: silent layer: every training latent was zero in epoch 0" in (
            capsys.readouterr().err)
        assert not (out_dir / "model.ffaw").exists()

    def test_zero_epochs_checkpoint_of_init(self, base_config, tmp_path, capsys):
        config, _ = base_config
        out = tmp_path / "zero"
        assert run_cli("train", "--config", config, "--out-dir", out,
                       "--set", "experiment.epochs=0") == 0
        layer, _ = load_checkpoint(out / "model.ffaw")
        assert layer.n_out == 16
        accuracy = float(capsys.readouterr().out.split("final test accuracy:")[1])
        assert 0.0 <= accuracy <= 0.35  # untrained: chance-ish

    def test_codebook_too_sparse_to_draw_is_a_config_error(self, base_config, capsys):
        # an uncapped redraw loop never finished on this density
        config, out_dir = base_config
        start = time.monotonic()
        assert run_cli("train", "--config", config, "--set", "labels.density=0.001") == 2
        assert time.monotonic() - start < 10.0
        assert "no ten distinct codewords of length 8 at density 0.001" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_spiking_model_trains(self, base_config, tmp_path):
        config, _ = base_config
        out = tmp_path / "spk"
        assert run_cli("train", "--config", config, "--out-dir", out,
                       "--set", "experiment.model=hebbian",
                       "--set", "experiment.epochs=1") == 0
        layer, _ = load_checkpoint(out / "model.ffaw")
        assert np.all(np.isfinite(layer.weights))

    @pytest.mark.parametrize("model", ["hebbian", "hebbian_online"])
    def test_spiking_byte_identical_reruns(self, base_config, tmp_path, model):
        config, _ = base_config
        outs = [tmp_path / name for name in ("a", "b")]
        for out in outs:
            assert run_cli("train", "--config", config, "--out-dir", out,
                           "--set", f"experiment.model={model}") == 0
        for artifact in ("model.ffaw", "log.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact

    @pytest.mark.parametrize("model", ["hebbian", "hebbian_online"])
    def test_spiking_eval_keyed_per_epoch(self, base_config, model):
        # log[k].test_accuracy is a function of (seed, epoch k) and the epoch-k
        # weights alone: a freshly keyed runner on those weights scores the same
        config, _ = base_config
        cfg = apply_overrides(load_config(config), {
            "experiment.model": model, "experiment.epochs": "3", "experiment.seed": "4",
        }).normalized()
        data = cli.prepare_data(cfg)
        _, log = cli.train_model(cfg, data)
        for k in range(3):
            layer, _ = cli.train_model(replace(cfg, epochs=k + 1), data, eval_each_epoch=False)
            fresh = metrics.spiking_runner(cfg.spiking_config(), cfg.seed, k)
            acc = metrics.accuracy(layer, data.test, data.codebook, fresh, cfg.prob_fn())
            assert log[k].test_accuracy == acc, k
        # the key is the epoch: two epochs' streams draw different latents
        images = np.full((4, layer.n_in - data.codebook.length), 0.5)
        latents = [np.stack(list(metrics.spiking_runner(cfg.spiking_config(), cfg.seed, k)(
                       layer, images, data.codebook)))
                   for k in (0, 1)]
        assert not np.array_equal(*latents)


class TestEval:
    def test_report(self, base_config, capsys):
        config, out_dir = base_config
        run_cli("train", "--config", config)
        capsys.readouterr()
        assert run_cli("eval", "--config", config,
                       "--checkpoint", out_dir / "model.ffaw", "--split", "test") == 0
        out = capsys.readouterr().out
        for field in ("accuracy:", "hoyer_mean:", "hoyer_std:", "separability:"):
            assert field in out

    def test_mismatched_width_refused(self, base_config, capsys):
        config, out_dir = base_config
        run_cli("train", "--config", config)
        code = run_cli("eval", "--config", config,
                       "--checkpoint", out_dir / "model.ffaw",
                       "--set", "experiment.n_hidden=32")
        assert code == 4
        assert "error:checkpoint:" in capsys.readouterr().err

    def test_test_split_is_scored_without_the_train_files(self, base_config, idx_dataset_dir,
                                                          tmp_path, capsys):
        config, out_dir = base_config
        run_cli("train", "--config", config)
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
            (idx_dataset_dir / name).unlink()
        capsys.readouterr()
        assert run_cli("eval", "--config", config,
                       "--checkpoint", out_dir / "model.ffaw", "--split", "test") == 0
        assert "accuracy:" in capsys.readouterr().out
        assert run_cli("export", "--config", config, "--checkpoint", out_dir / "model.ffaw",
                       "--split", "test", "--output", tmp_path / "latents.csv") == 0
        assert "wrote 80 latents" in capsys.readouterr().out
        assert run_cli("eval", "--config", config,
                       "--checkpoint", out_dir / "model.ffaw", "--split", "train") == 3
        assert "train-images-idx3-ubyte" in capsys.readouterr().err

    def test_scored_split_must_fit_the_checkpoint(self, base_config, idx_dataset_dir, capsys):
        config, out_dir = base_config
        run_cli("train", "--config", config)
        write_idx_images(idx_dataset_dir / "t10k-images-idx3-ubyte",
                         np.zeros((80, 5, 5), dtype=np.uint8))
        capsys.readouterr()
        assert run_cli("eval", "--config", config,
                       "--checkpoint", out_dir / "model.ffaw", "--split", "test") == 4
        assert "expects 44 inputs, dataset+codebook give 33" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["analog", "hebbian"])
    def test_non_finite_checkpoint_refused(self, base_config, capsys, model):
        # a NaN weight is the checkpoint's fault: the analog scan would trip the
        # data checks, and the spiking runner would report a layer whose unit never fires
        config, out_dir = base_config
        run_cli("train", "--config", config, "--set", "experiment.epochs=1")
        path = out_dir / "model.ffaw"
        layer, book = load_checkpoint(path)
        layer.weights[0, 0] = np.nan
        save_checkpoint(path, layer, book)
        capsys.readouterr()
        code = run_cli("eval", "--config", config, "--checkpoint", path,
                       "--set", f"experiment.model={model}")
        assert code == 4
        captured = capsys.readouterr()
        assert f"error:checkpoint: {path}: non-finite weights" in captured.err
        assert "accuracy:" not in captured.out

    def test_repeated_codeword_checkpoint_refused(self, base_config, capsys):
        config, out_dir = base_config
        run_cli("train", "--config", config, "--set", "experiment.epochs=1")
        path = out_dir / "model.ffaw"
        layer, book = load_checkpoint(path)
        book.vectors[7] = book.vectors[3]
        save_checkpoint(path, layer, book)
        capsys.readouterr()
        assert run_cli("eval", "--config", config, "--checkpoint", path) == 4
        captured = capsys.readouterr()
        assert f"error:checkpoint: {path}: codeword 7 repeats codeword 3" in captured.err
        assert "accuracy:" not in captured.out

    def test_mismatched_codebook_refused(self, base_config, capsys):
        config, out_dir = base_config
        run_cli("train", "--config", config)
        code = run_cli("eval", "--config", config,
                       "--checkpoint", out_dir / "model.ffaw",
                       "--set", "labels.length=16")
        assert code == 4
        assert "error:checkpoint:" in capsys.readouterr().err

    def test_bias_flagged_checkpoint_refused(self, base_config, capsys):
        # a file written while layers could carry a bias: flag bit 0 and the vector after W
        config, out_dir = base_config
        run_cli("train", "--config", config, "--set", "experiment.epochs=1")
        path = out_dir / "model.ffaw"
        data = bytearray(path.read_bytes())
        data[8] = 1
        path.write_bytes(bytes(data) + bytes(8 * 16))
        capsys.readouterr()
        assert run_cli("eval", "--config", config, "--checkpoint", path) == 4
        captured = capsys.readouterr()
        assert (f"error:checkpoint: {path}: carries a bias vector; the layer bias was removed"
                in captured.err)
        assert "accuracy:" not in captured.out

    def test_analog_checkpoint_runs_on_the_spiking_runner(self, base_config, tmp_path, capsys):
        # the two substrates share one layer, so an analog checkpoint needs no conversion
        config, out_dir = base_config
        assert run_cli("train", "--config", config, "--set", "experiment.model=analog") == 0
        spiking = ["--config", config, "--checkpoint", out_dir / "model.ffaw",
                   "--set", "experiment.model=hebbian"]
        capsys.readouterr()
        assert run_cli("eval", *spiking) == 0
        out = capsys.readouterr().out
        assert "model: hebbian/symmetric" in out and "\naccuracy: " in out
        target = tmp_path / "latents.csv"
        assert run_cli("export", *spiking, "--output", target) == 0
        assert "wrote 80 latents" in capsys.readouterr().out
        assert read_latents(target).latents.shape == (80, 16)

    @pytest.mark.parametrize("after,line,key", [
        ("n_hidden = 16", "use_bias = false", "experiment.use_bias"),
        ("epsilon = 0.5", "symmetric_denominator = match", "probability.symmetric_denominator"),
        ("active_window = 3", "modulation_window = instantaneous", "encoder.modulation_window"),
    ], ids=["use_bias", "symmetric_denominator", "modulation_window"])
    def test_use_bias_in_an_old_snapshot_is_an_unknown_key(
        self, base_config, capsys, after, line, key
    ):
        # config.ini snapshots written while an option existed carry its default line
        config, out_dir = base_config
        run_cli("train", "--config", config, "--set", "experiment.epochs=1")
        snapshot = out_dir / "config.ini"
        text = snapshot.read_text()
        assert f"{after}\n" in text
        snapshot.write_text(text.replace(f"{after}\n", f"{after}\n{line}\n"))
        capsys.readouterr()
        assert run_cli("eval", "--config", snapshot,
                       "--checkpoint", out_dir / "model.ffaw") == 2
        assert f"error:config: invalid config: unknown key {key}" in capsys.readouterr().err


class TestExport:
    def test_latent_csv(self, base_config, tmp_path, capsys):
        config, out_dir = base_config
        run_cli("train", "--config", config)
        target = tmp_path / "latents.csv"
        assert run_cli("export", "--config", config,
                       "--checkpoint", out_dir / "model.ffaw",
                       "--split", "test", "--output", target) == 0
        dump = read_latents(target)
        assert dump.latents.shape == (80, 16)
        assert "wrote 80 latents" in capsys.readouterr().out

    @pytest.mark.parametrize("model", ["analog", "hebbian"])
    def test_csv_holds_the_latents_eval_scores(self, base_config, tmp_path, model):
        config, out_dir = base_config
        overrides = {"experiment.model": model, "experiment.epochs": "1"}
        flags = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]
        assert run_cli("train", "--config", config, *flags) == 0
        target = tmp_path / "latents.csv"
        assert run_cli("export", "--config", config, "--checkpoint", out_dir / "model.ffaw",
                       *flags, "--output", target) == 0
        cfg = apply_overrides(load_config(config), overrides)
        layer, codebook, dataset = cli._load_for_eval(cfg, out_dir / "model.ffaw", "test")
        _, dump = metrics.evaluate(layer, dataset, codebook, cli.build_runner(cfg), cfg.prob_fn())
        assert np.any(dump.latents > 0)
        assert target.read_text().splitlines()[1:] == [
            f"{label}," + ",".join(f"{v:.9g}" for v in row)
            for label, row in zip(dump.labels, dump.latents)
        ]


class TestGrid:
    def test_ranked_csv(self, base_config, capsys):
        config, out_dir = base_config
        assert run_cli("grid", "--config", config,
                       "--set", "experiment.epochs=1",
                       "--set", "grid.eta=0.005, 0.02",
                       "--set", "grid.tau_e=0.9, 0.99") == 0
        rows = (out_dir / "grid.csv").read_text().splitlines()
        assert rows[0] == "eta,tau_e,accuracy,status"
        assert len(rows) == 5  # header + 2x2 cells
        accs = [float(r.split(",")[2]) for r in rows[1:]]
        assert accs == sorted(accs, reverse=True)
        assert "best cell:" in capsys.readouterr().out

    def test_parallel_workers(self, base_config, tmp_path):
        config, _ = base_config
        grids = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            assert run_cli("grid", "--config", config, "--threads", threads, "--out-dir", out,
                           "--set", "grid.eta=0.005, 0.02",
                           "--set", "grid.tau_e=0.9") == 0
            grids.append((out / "grid.csv").read_bytes())
        assert len(grids[1].splitlines()) == 3
        assert grids[0] == grids[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_cells_flagged_but_command_succeeds(self, base_config, capsys):
        config, out_dir = base_config
        assert run_cli("grid", "--config", config,
                       "--set", "grid.eta=1e200, 0.02",
                       "--set", "grid.tau_e=0.9") == 0
        rows = (out_dir / "grid.csv").read_text().splitlines()[1:]
        by_status = {r.split(",")[3]: r for r in rows}
        assert "diverged" in by_status
        assert "ok" in by_status
        assert by_status["diverged"].split(",")[2] == "nan"
        # diverged rows sink below finished ones
        assert rows[0].endswith("ok")

    def test_silent_cells_flagged_apart_from_diverged(self, base_config, capsys):
        config, out_dir = base_config
        assert run_cli("grid", "--config", config, "--set", "experiment.model=hebbian",
                       "--set", "lif.input_gain=0",
                       "--set", "grid.eta=0.02", "--set", "grid.tau_e=0.9") == 0
        rows = (out_dir / "grid.csv").read_text().splitlines()[1:]
        assert rows == ["0.02,0.9,nan,silent"]
        assert "no grid cell finished successfully" in capsys.readouterr().out

    @pytest.mark.parametrize("etas,taus,bad_cells", [
        ("-0.1", "1.5", ["eta=-0.1 tau_e=1.5: eta must be positive; tau_e must be in [0, 1)"]),
        ("-0.1, 0.02", "0.9, 1.5", [
            "eta=-0.1 tau_e=0.9: eta must be positive",
            "eta=-0.1 tau_e=1.5: eta must be positive; tau_e must be in [0, 1)",
            "eta=0.02 tau_e=1.5: tau_e must be in [0, 1)",
        ]),
    ])
    def test_bad_cells_rejected_before_training(self, base_config, capsys, monkeypatch,
                                                etas, taus, bad_cells):
        config, out_dir = base_config
        trained = []
        monkeypatch.setattr(cli, "train_model", lambda *args, **kwargs: trained.append(args))
        code = run_cli("grid", "--config", config,
                       "--set", "experiment.model=hebbian",
                       "--set", f"grid.eta={etas}",
                       "--set", f"grid.tau_e={taus}")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:")
        for cell in bad_cells:
            assert cell in err
        assert "eta=0.02 tau_e=0.9" not in err
        assert trained == []
        assert not (out_dir / "grid.csv").exists()


class TestReproduce:
    def test_table1_runs_all_rows(self, base_config, capsys):
        config, _ = base_config
        assert run_cli("reproduce", "--table", "table1", "--config", config,
                       "--set", "experiment.epochs=1",
                       "--set", "experiment.n_hidden=12") == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith(("model", "failure"))]
        assert len(lines) == 6
        assert "delta" in out.splitlines()[0]

    def test_table2_runs_all_rows(self, base_config, capsys):
        config, _ = base_config
        assert run_cli("reproduce", "--table", "table2", "--config", config,
                       "--set", "experiment.epochs=1",
                       "--set", "experiment.n_hidden=10",
                       "--set", "encoder.steps=6",
                       "--set", "encoder.active_window=2") == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith(("model", "failure"))]
        assert len(lines) == 12

    def test_reference_tables_shapes(self):
        assert len(cli.load_reference_table("table1")) == 6
        assert len(cli.load_reference_table("table2")) == 12

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("reproduce", "--table", "table9")

    def test_zero_epochs_scores_initial_layer(self, base_config, capsys):
        config, _ = base_config
        assert run_cli("reproduce", "--table", "table1", "--config", config,
                       "--set", "experiment.epochs=0",
                       "--set", "experiment.n_hidden=12") == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("model")]
        assert len(lines) == 6
        assert not any("failed" in l for l in lines)

    def test_parallel_matches_serial(self, base_config, capsys):
        config, _ = base_config
        outs = []
        for threads in (1, 2):
            assert run_cli("reproduce", "--table", "table1", "--config", config,
                           "--threads", threads,
                           "--set", "experiment.epochs=1",
                           "--set", "experiment.n_hidden=12") == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_forks_no_more_workers_than_cells(self, base_config, capsys, monkeypatch):
        # Records the items of every child fork_map starts; the caller is worker 0.
        started, real = [], forks._start_worker

        def spy(ctx, fn, items):
            started.append(len(items))
            return real(ctx, fn, items)

        monkeypatch.setattr(forks, "_start_worker", spy)
        config, _ = base_config
        assert run_cli("reproduce", "--table", "table1", "--config", config,
                       "--threads", 64,
                       "--set", "experiment.epochs=1",
                       "--set", "experiment.n_hidden=12") == 0
        # six cells: five children of one cell each, and no scan inside a cell forked
        assert started == [1] * 5
        assert list(forks.fork_map(abs, [-3], 64)) == [3]
        assert started == [1] * 5

    def test_invalid_rows_rejected_before_training(self, base_config, capsys, monkeypatch):
        # no rule depends on a row's model or prob, so a base config that validates
        # is valid for every row; the spiking rows bring their own tau_e out of range
        config, _ = base_config
        trained = []
        monkeypatch.setattr(cli, "train_model", lambda *args, **kwargs: trained.append(args))
        rows = cli.load_reference_table("table1")
        for row in rows:
            if "experiment.tau_e" in row["hyper"]:
                row["hyper"]["experiment.tau_e"] = "1.5"
        monkeypatch.setattr(cli, "load_reference_table", lambda name: rows)
        code = run_cli("reproduce", "--table", "table1", "--config", config)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:config:")
        for row in ("hebbian/sigmoid", "hebbian/symmetric",
                    "hebbian_online/sigmoid", "hebbian_online/symmetric"):
            assert f"{row}: tau_e must be in [0, 1)" in captured.err
        assert "analog/" not in captured.err
        assert captured.out == ""
        assert trained == []

    def test_non_finite_row_hyper_rejected_before_training(self, base_config, capsys,
                                                           monkeypatch):
        config, _ = base_config
        trained = []
        monkeypatch.setattr(cli, "train_model", lambda *args, **kwargs: trained.append(args))
        rows = [
            {"model": "analog", "prob": "sigmoid", "accuracy": 0.0},
            {"model": "hebbian", "prob": "symmetric", "accuracy": 0.0,
             "hyper": {"experiment.eta": "nan"}},
        ]
        monkeypatch.setattr(cli, "load_reference_table", lambda name: rows)
        code = run_cli("reproduce", "--table", "table1", "--config", config)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and "experiment.eta" in err
        assert "invalid cells: hebbian/symmetric:" in err
        assert trained == []


class TestErrorPaths:
    def test_threads_only_on_parallel_commands(self, base_config, capsys):
        config, _ = base_config
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--config", config, "--threads", 2)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags,message", [
        ("train", ["--seed", -1], "seed must be >= 0"),
        ("grid", ["--set", "experiment.seed=-2"], "seed must be >= 0"),
        ("grid", ["--set", "labels.codebook_seed=-5"], "codebook seed must be >= 0"),
        ("train", ["--seed", -1, "--set", "labels.codebook_seed=-5"],
         "seed must be >= 0; codebook seed must be >= 0"),
    ], ids=["train-seed", "grid-seed", "grid-codebook_seed", "train-both"])
    def test_negative_seed_is_a_config_error(self, base_config, capsys, command, flags, message):
        config, out_dir = base_config
        assert run_cli(command, "--config", config, *flags) == 2
        assert f"error:config: invalid config: {message}\n" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("threads", [0, -4])
    @pytest.mark.parametrize("command", [["grid"], ["reproduce", "--table", "table1"]],
                             ids=["grid", "reproduce"])
    def test_threads_below_one_is_a_config_error(self, base_config, capsys, monkeypatch,
                                                 command, threads):
        config, out_dir = base_config
        monkeypatch.setattr(cli, "train_model", lambda *args, **kwargs: pytest.fail("trained"))
        assert run_cli(*command, "--config", config, "--threads", threads) == 2
        assert f"error:config: --threads must be >= 1, got {threads}\n" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_data_dir(self, base_config, tmp_path, capsys):
        config, _ = base_config
        code = run_cli("train", "--config", config, "--data-dir", tmp_path / "nowhere")
        assert code == 3
        assert "error:data:" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "t10k"])
    def test_empty_split_is_a_data_error(self, base_config, idx_dataset_dir, capsys, split):
        config, out_dir = base_config
        write_idx_images(idx_dataset_dir / f"{split}-images-idx3-ubyte",
                         np.zeros((0, 6, 6), dtype=np.uint8))
        write_idx_labels(idx_dataset_dir / f"{split}-labels-idx1-ubyte", np.zeros(0))
        assert run_cli("train", "--config", config) == 3
        err = capsys.readouterr().err
        assert "error:data:" in err and f"{split}-images-idx3-ubyte" in err
        assert not (out_dir / "model.ffaw").exists()

    def test_splits_of_different_widths_are_a_data_error_before_training(
            self, base_config, idx_dataset_dir, capsys, monkeypatch):
        config, out_dir = base_config
        write_idx_images(idx_dataset_dir / "t10k-images-idx3-ubyte",
                         np.zeros((80, 5, 5), dtype=np.uint8))
        monkeypatch.setattr(cli, "train_model", lambda *args, **kwargs: pytest.fail("trained"))
        assert run_cli("train", "--config", config) == 3
        err = capsys.readouterr().err
        assert "error:data:" in err
        for name in ("train-images-idx3-ubyte", "t10k-images-idx3-ubyte"):
            assert str(idx_dataset_dir / name) in err
        assert not out_dir.exists()

    def test_invalid_config_enumerates_fields(self, base_config, capsys):
        config, _ = base_config
        code = run_cli("train", "--config", config,
                       "--set", "experiment.model=quantum",
                       "--set", "experiment.eta=-2")
        assert code == 2
        err = capsys.readouterr().err
        assert "error:config:" in err
        assert "model" in err and "eta" in err

    @pytest.mark.parametrize("key", [
        "experiment.eta", "probability.alpha", "probability.epsilon", "lif.threshold",
    ])
    def test_non_finite_value_is_a_config_error(self, base_config, capsys, key):
        config, out_dir = base_config
        code = run_cli("train", "--config", config, "--set", "experiment.model=hebbian",
                       "--set", f"{key}=nan")
        assert code == 2
        err = capsys.readouterr().err
        assert "error:config:" in err and key in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_checkpoint_polarity_split_must_match_prob(self, base_config, tmp_path, capsys,
                                                       command):
        # trained symmetric (split halves); sigmoid reads every neuron as positive
        config, out_dir = base_config
        run_cli("train", "--config", config, "--set", "experiment.epochs=1")
        capsys.readouterr()
        extra = ["--output", tmp_path / "latents.csv"] if command == "export" else []
        code = run_cli(command, "--config", config, "--checkpoint", out_dir / "model.ffaw",
                       "--set", "experiment.prob=sigmoid", *extra)
        assert code == 4
        err = capsys.readouterr().err
        assert "error:checkpoint:" in err and "polarity" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli("train", "--config", tmp_path / "absent.ini")
        assert code == 2
        assert "error:config:" in capsys.readouterr().err

    def test_malformed_set_flag(self, base_config, capsys):
        config, _ = base_config
        code = run_cli("train", "--config", config, "--set", "nonsense")
        assert code == 2
        assert "error:config:" in capsys.readouterr().err

    def test_unwritable_export_target(self, base_config, capsys):
        config, out_dir = base_config
        run_cli("train", "--config", config)
        capsys.readouterr()
        code = run_cli("export", "--config", config,
                       "--checkpoint", out_dir / "model.ffaw",
                       "--output", "/nonexistent-dir/latents.csv")
        assert code == 6
        err = capsys.readouterr().err
        assert "error:io:" in err and "latents.csv" in err
