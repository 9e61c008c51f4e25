"""Experiment driver: train, eval, export, grid, reproduce.

Every command takes a config file plus ``--set section.key=value``
overrides (flags win over the file).  Artifacts land in ``--out-dir``:
checkpoint, config snapshot, per-epoch CSV log.  With a fixed config and
seed, repeated runs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import analog, metrics, spiking
from .atomic import atomic_write
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, apply_overrides, load_config, serialize_config
from .data import ExperimentData, load_mnist, load_split
from .errors import CheckpointError, ConfigError, DivergenceError, FFAError, SilentLayerError
from .forks import fork_map

logger = logging.getLogger(__name__)

EXIT_CODES = {
    "config": 2, "data": 3, "checkpoint": 4, "diverged": 5, "io": 6, "silent": 7, "internal": 1,
}


def prepare_data(cfg: ExperimentConfig) -> ExperimentData:
    train, test = load_mnist(cfg.data_dir)
    return ExperimentData(train, test, cfg.codebook())


def build_runner(cfg: ExperimentConfig, epoch: int = 0) -> metrics.LatentRunner:
    """The configured latent runner; a spiking one draws streams keyed by (seed, epoch)."""
    if cfg.model == "analog":
        return metrics.analog_runner()
    return metrics.spiking_runner(cfg.spiking_config(), cfg.seed, epoch)


def train_model(cfg: ExperimentConfig, data: ExperimentData, eval_each_epoch: bool = True,
                log_backend: bool = False):
    """Run the configured trainer; returns (layer, per-epoch stats).

    Each epoch's test accuracy depends only on the config and the epoch's weights.
    With ``log_backend``, logs whether the trainer's own loop made a compiled
    kernel call; the per-epoch evaluation's calls do not count.
    """
    from . import _kernels

    prob_fn = cfg.prob_fn()
    eval_runs = 0

    eval_fn = None
    if eval_each_epoch:
        def eval_fn(layer, epoch):
            nonlocal eval_runs
            runs = _kernels.runs
            runner = build_runner(cfg, epoch)
            acc = metrics.accuracy(layer, data.test, data.codebook, runner, prob_fn)
            eval_runs += _kernels.runs - runs
            return acc

    runs = _kernels.runs
    if cfg.model == "analog":
        trained = analog.train_analog(cfg.train_config(), data, eval_fn, n_out=cfg.n_hidden)
    else:
        trained = spiking.train_hebbian(
            cfg.train_config(), data, cfg.mode(), cfg.spiking_config(), eval_fn
        )
    if log_backend:
        compiled = _kernels.runs - runs > eval_runs
        logger.info("backend: %s", f"c ({_kernels.compiler()})" if compiled else "numpy")
    return trained


def write_epoch_log(path, log) -> None:
    with atomic_write(path) as f:
        f.write("epoch,mean_goodness_pos,mean_goodness_neg,train_loss,test_accuracy\n")
        for entry in log:
            f.write(
                f"{entry.epoch},{entry.mean_goodness_pos:.6f},{entry.mean_goodness_neg:.6f},"
                f"{entry.train_loss:.6f},{entry.test_accuracy:.6f}\n"
            )


def final_accuracy(cfg: ExperimentConfig, data: ExperimentData, layer, log) -> float:
    """The last epoch's test accuracy, or the layer's own score when no epoch logged one."""
    final = log[-1].test_accuracy if log else float("nan")
    if math.isnan(final):
        final = metrics.accuracy(layer, data.test, data.codebook, build_runner(cfg), cfg.prob_fn())
    return final


def cmd_train(cfg: ExperimentConfig) -> int:
    data = prepare_data(cfg)
    layer, log = train_model(cfg, data, log_backend=True)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "model.ffaw", layer, data.codebook)
    with atomic_write(out_dir / "config.ini") as f:
        f.write(serialize_config(cfg))
    write_epoch_log(out_dir / "log.csv", log)
    print(f"final test accuracy: {final_accuracy(cfg, data, layer, log):.4f}")
    return 0


def _load_for_eval(cfg: ExperimentConfig, checkpoint_path, split: str) -> tuple:
    """Checkpoint layer, its codebook and the one split scored, checked against each
    other and the config."""
    layer, codebook = load_checkpoint(checkpoint_path)
    if layer.n_out != cfg.n_hidden:
        raise CheckpointError(
            f"{checkpoint_path}: checkpoint has {layer.n_out} hidden units, "
            f"config says {cfg.n_hidden}"
        )
    if codebook.length != cfg.label_length:
        raise CheckpointError(
            f"{checkpoint_path}: checkpoint codebook length {codebook.length} != "
            f"config label length {cfg.label_length}"
        )
    if layer.partition != analog.partition_for(cfg.prob_fn(), cfg.n_hidden):
        raise CheckpointError(f"{checkpoint_path}: polarity split does not match prob {cfg.prob!r}")
    dataset = load_split(cfg.data_dir, split)
    input_dim = dataset.images.shape[1] + codebook.length
    if input_dim != layer.n_in:
        raise CheckpointError(
            f"{checkpoint_path}: expects {layer.n_in} inputs, dataset+codebook give {input_dim}"
        )
    return layer, codebook, dataset


def cmd_eval(cfg: ExperimentConfig, checkpoint_path, split: str) -> int:
    layer, codebook, dataset = _load_for_eval(cfg, checkpoint_path, split)
    report, _ = metrics.evaluate(
        layer, dataset, codebook, build_runner(cfg), cfg.prob_fn(),
        model_tag=f"{cfg.model}/{cfg.prob}",
    )
    print(report.format())
    return 0


def cmd_export(cfg: ExperimentConfig, checkpoint_path, split: str, output) -> int:
    layer, codebook, dataset = _load_for_eval(cfg, checkpoint_path, split)
    _, latents = metrics.scan(layer, dataset, codebook, build_runner(cfg), cfg.prob_fn())
    dump = metrics.LatentDump(latents, dataset.labels)
    metrics.export_latents(dump, output)
    print(f"wrote {dump.latents.shape[0]} latents to {output}")
    return 0


# --- sweeps: grid search and reference tables -----------------------------

def _sweep(cfg: ExperimentConfig, cells: dict[str, ExperimentConfig | ConfigError],
           threads: int) -> list[tuple[float, FFAError | None]]:
    """Final accuracy of every named cell, in cell order, on one load of ``cfg``'s data.

    The cells train in ``fork_map`` over ``threads`` workers; a failed cell
    comes back as its error.  Every cell passes the component rules before
    any cell trains; a ConfigError cell did not parse.
    """
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    problems = [
        f"{name}: " + "; ".join(broken)
        for name, cell in cells.items()
        if (broken := [str(cell)] if isinstance(cell, ConfigError) else cell.problems())
    ]
    if problems:
        raise ConfigError("invalid cells: " + " | ".join(problems))
    data = prepare_data(cfg)

    def train_cell(cell: ExperimentConfig) -> tuple[float, FFAError | None]:
        try:
            layer, log = train_model(cell, data)
            return final_accuracy(cell, data, layer, log), None
        except FFAError as exc:
            return float("nan"), exc

    return list(fork_map(train_cell, cells.values(), threads))


def cmd_grid(cfg: ExperimentConfig, threads: int) -> int:
    cells = {
        f"eta={eta!r} tau_e={tau_e!r}": replace(cfg, eta=eta, tau_e=tau_e, epochs=1)
        for eta in cfg.grid_eta
        for tau_e in cfg.grid_tau_e
    }
    rows = []
    for cell, (acc, exc) in zip(cells.values(), _sweep(cfg, cells, threads)):
        if exc is None:
            status = "ok"
        elif isinstance(exc, DivergenceError):
            status = "diverged"
        elif isinstance(exc, SilentLayerError):
            status = "silent"
        else:
            logger.warning("grid cell eta=%g tau_e=%g failed: %s", cell.eta, cell.tau_e, exc)
            status = "error"
        rows.append((cell.eta, cell.tau_e, acc, status))
    # Descending accuracy; NaN rows sink to the bottom.
    rows.sort(key=lambda r: (math.isnan(r[2]), -(r[2] if not math.isnan(r[2]) else 0.0)))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid_path = out_dir / "grid.csv"
    with atomic_write(grid_path) as f:
        f.write("eta,tau_e,accuracy,status\n")
        for eta, tau_e, acc, status in rows:
            f.write(f"{eta!r},{tau_e!r},{acc:.6f},{status}\n")
    print(f"wrote {len(rows)} grid rows to {grid_path}")
    best = rows[0]
    if best[3] == "ok":
        print(f"best cell: eta={best[0]!r} tau_e={best[1]!r} accuracy={best[2]:.4f}")
    else:
        print("no grid cell finished successfully")
    return 0


def load_reference_table(name: str) -> list[dict]:
    text = resources.files("ffa").joinpath("reference_results.json").read_text()
    tables = json.loads(text)
    if name not in tables or name == "source":
        raise ConfigError(f"unknown reference table {name!r}")
    return tables[name]


def cmd_reproduce(cfg: ExperimentConfig, table: str, threads: int) -> int:
    rows = load_reference_table(table)
    cells = {}
    for row in rows:
        name = "/".join(row[key] for key in ("model", "prob", "trace") if key in row)
        cell = replace(cfg, model=row["model"], prob=row["prob"], trace=row.get("trace", cfg.trace))
        try:
            cells[name] = apply_overrides(cell, row.get("hyper", {})).normalized()
        except ConfigError as exc:
            cells[name] = exc
    results = _sweep(cfg, cells, threads)
    print(f"{'model':<16}{'prob':<11}{'trace':<9}{'measured':>9}{'reference':>10}{'delta':>8}")
    failures = []
    for row, (acc, exc) in zip(rows, results, strict=True):
        trace = row.get("trace", "-")
        ref = row["accuracy"]
        if exc is None:
            measured = acc * 100.0
            print(
                f"{row['model']:<16}{row['prob']:<11}{trace:<9}"
                f"{measured:>9.2f}{ref:>10.2f}{measured - ref:>8.2f}"
            )
        else:
            failures.append((row, exc))
            print(f"{row['model']:<16}{row['prob']:<11}{trace:<9}{'failed':>9}{ref:>10.2f}{'-':>8}")
    for row, exc in failures:
        print(f"failure: {row['model']}/{row['prob']}: {exc.category}: {exc}", file=sys.stderr)
    return 0 if not failures else 1


# --- argument parsing -------------------------------------------------------


def _parse_set(values: list[str]) -> dict[str, str]:
    overrides = {}
    for item in values:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = _parse_set(args.set or [])
    if args.seed is not None:
        overrides["experiment.seed"] = str(args.seed)
    if args.data_dir is not None:
        overrides["paths.data_dir"] = args.data_dir
    if args.out_dir is not None:
        overrides["paths.out_dir"] = args.out_dir
    return apply_overrides(cfg, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffa",
        description="Forward-Forward training, analog and spiking-Hebbian.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, help="override experiment seed")
        p.add_argument("--data-dir", help="directory with the IDX dataset files")
        p.add_argument("--out-dir", help="directory for artifacts")
        p.add_argument(
            "--set", action="append", metavar="SECTION.KEY=VALUE",
            help="override any config field (repeatable)",
        )

    p = sub.add_parser("train", help="train a model and write its artifacts")
    common(p)

    p = sub.add_parser("eval", help="metric report for a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("export", help="dump latent vectors to CSV")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--output", required=True)

    p = sub.add_parser("grid", help="1-epoch (eta, tau_e) grid search")
    common(p)
    p.add_argument("--threads", type=int, default=1, help="parallel worker budget")

    p = sub.add_parser("reproduce", help="rerun a reference table end to end")
    common(p)
    p.add_argument("--threads", type=int, default=1, help="parallel worker budget")
    p.add_argument("--table", choices=("table1", "table2"), required=True)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args).normalized()
        cfg.validate()
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.split)
        if args.command == "export":
            return cmd_export(cfg, args.checkpoint, args.split, args.output)
        if args.command == "grid":
            return cmd_grid(cfg, args.threads)
        if args.command == "reproduce":
            return cmd_reproduce(cfg, args.table, args.threads)
        raise ConfigError(f"unknown command {args.command!r}")
    except FFAError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return EXIT_CODES["io"]


if __name__ == "__main__":
    sys.exit(main())
