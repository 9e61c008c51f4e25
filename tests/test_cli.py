import numpy as np
import pytest

from ffa import cli
from ffa.checkpoint import load_checkpoint
from ffa.config import ExperimentConfig
from ffa.metrics import read_latents
from tests.conftest import write_idx_images, write_idx_labels


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

    def test_zero_epochs_checkpoint_of_init(self, base_config, tmp_path, capsys):
        config, _ = base_config
        out = tmp_path / "zero"
        assert run_cli("train", "--config", config, "--out-dir", out,
                       "--set", "experiment.epochs=0") == 0
        layer, _ = load_checkpoint(out / "model.ffaw")
        assert layer.n_out == 16
        accuracy = float(capsys.readouterr().out.split("final test accuracy:")[1])
        assert 0.0 <= accuracy <= 0.35  # untrained: chance-ish

    def test_spiking_model_trains(self, base_config, tmp_path):
        config, _ = base_config
        out = tmp_path / "spk"
        assert run_cli("train", "--config", config, "--out-dir", out,
                       "--set", "experiment.model=hebbian",
                       "--set", "experiment.epochs=1") == 0
        layer, _ = load_checkpoint(out / "model.ffaw")
        assert np.all(np.isfinite(layer.weights))


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

    def test_mismatched_codebook_refused(self, base_config, capsys):
        config, out_dir = base_config
        run_cli("train", "--config", config)
        code = run_cli("eval", "--config", config,
                       "--checkpoint", out_dir / "model.ffaw",
                       "--set", "labels.length=16")
        assert code == 4
        assert "error:checkpoint:" in capsys.readouterr().err


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

    def test_parallel_workers(self, base_config):
        config, out_dir = base_config
        assert run_cli("grid", "--config", config, "--threads", 2,
                       "--set", "grid.eta=0.005, 0.02",
                       "--set", "grid.tau_e=0.9") == 0
        rows = (out_dir / "grid.csv").read_text().splitlines()
        assert len(rows) == 3

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

    @pytest.mark.parametrize("hyper", [{"experiment.eta": "nan"}, {"experiment.use_bias": "true"}])
    def test_row_overrides_validated_before_training(self, synthetic_data, monkeypatch, hyper):
        monkeypatch.setattr(cli, "_WORKER_DATA", synthetic_data)
        monkeypatch.setattr(cli, "_WORKER_CFG", ExperimentConfig(epochs=1, n_hidden=16))
        row = {"model": "hebbian", "prob": "symmetric", "accuracy": 0.0, "hyper": hyper}
        _, measured, status = cli._reproduce_row(row)
        assert measured is None
        assert status.startswith("config")


class TestErrorPaths:
    def test_threads_only_on_parallel_commands(self, base_config, capsys):
        config, _ = base_config
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--config", config, "--threads", 2)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

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

    def test_bias_requires_analog(self, base_config, capsys):
        config, _ = base_config
        code = run_cli("train", "--config", config,
                       "--set", "experiment.model=hebbian",
                       "--set", "experiment.use_bias=true")
        assert code == 2
        assert "use_bias" in capsys.readouterr().err
