"""Command-line surface and experiment orchestration.

Subcommands:

    synth       generate a labeled moving-bar event corpus (EVS1 files)
    train       run one training config, writing a run directory
    ablate      train a (variant x seed) grid and aggregate a report table
    sweep-kappa train a (kappa x seed) grid for one variant
    robustness  evaluate a checkpoint under corruption sweeps
    complexity  parameter / mult-add counts and timed inference for an arch
    eval        evaluate a checkpoint on a corpus

Run directories are seed-keyed (never timestamped) and refuse to overwrite
an existing run unless --force is given. Tables are pure aggregations of
the per-run records, so they can be regenerated bitwise from disk.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .atomic import atomic_open
from .attention import VARIANTS
from .errors import ConfigError, DivergenceError, EventFormatError, ParameterError, SpikefuseError, typed
from .events import (
    _LINE_END,
    BAR_DIRECTIONS,
    CorruptionSpec,
    EventStream,
    _check_bar,
    _is_index,
    read_events,
    synth_moving_bar,
    write_events,
)
from .network import (
    PRECISIONS,
    SpikingNetwork,
    count_mult_adds,
    count_parameters,
    load_checkpoint,
    parse_architecture,
    precision_dtype,
    save_checkpoint,
)
from .rng import Rng
from .tensor import no_grad, settings
from .training import (
    LabeledFrames,
    TrainConfig,
    _reject_unknown,
    config_from_dict,
    evaluate,
    evaluate_sweep,
    frames_from_streams,
    train,
)

ARCH_PRESETS = {
    "dvs_gesture": (
        "Input-128C5S2-BN-AP2-128C3-BN-AP2-128C3-BN-AP2-128C3-BN-AP2-128C3-BN-AP2"
        "-512FC-VotingC11P5-AP"
    ),
    "sl_animals": (
        "Input-128C5S2-BN-AP2-128C3-BN-AP2-128C3-BN-AP2-128C3-BN-AP2-128C3-BN-AP2"
        "-DP-512FC-DP-VotingC19P5-AP"
    ),
    "mnist_dvs": "Input-32C7S2-BN-AP2-64C3-BN-AP2-128C3-BN-AP2-512FC-VotingC10P5-AP",
    "synth_bar": "Input-8C3-BN-AP2-16C3-BN-AP2-64FC-VotingC4P5-AP",
}

# Default per-dataset hyperparameters (epochs, batch, lr, decay, v_th,
# kappa, reduction, T, delta_t in ms).
HYPER_PRESETS = {
    "dvs_gesture": dict(epochs=200, batch_size=16, lr=0.002, lr_decay=0.98,
                        v_th=1.15, kappa=0.7, reduction=4, timesteps=10, delta_t_ms=125.0),
    "sl_animals": dict(epochs=200, batch_size=25, lr=0.0002, lr_decay=0.97,
                       v_th=1.5, kappa=0.4, reduction=4, timesteps=30, delta_t_ms=50.0),
    "mnist_dvs": dict(epochs=100, batch_size=100, lr=0.001, lr_decay=0.95,
                      v_th=0.8, kappa=0.5, reduction=4, timesteps=20, delta_t_ms=25.0),
    "synth_bar": dict(epochs=25, batch_size=16, lr=0.004, lr_decay=0.97,
                      v_th=1.15, kappa=0.7, reduction=4, timesteps=10, delta_t_ms=100.0),
}


# ---------------------------------------------------------------------------
# corpus IO


def synth_corpus(
    out_dir: Path,
    classes: int,
    n_per_class: int,
    height: int,
    width: int,
    duration_ms: float,
    rate: float,
    seed: int,
) -> List[dict]:
    """Write a deterministic labeled corpus plus manifest; returns rows."""
    for name, value in (("classes", classes), ("n_per_class", n_per_class)):
        if not _is_index(value) or value < 1:
            raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")
    if classes > len(BAR_DIRECTIONS):
        raise ParameterError(f"at most {len(BAR_DIRECTIONS)} motion classes available")
    _check_bar(height, width, duration_ms, rate)  # before any file is made
    out_dir.mkdir(parents=True, exist_ok=True)
    master = Rng(seed)
    rows = []
    for label in range(classes):
        for i in range(n_per_class):
            stream = synth_moving_bar(
                label, height, width, duration_ms, rate, master.split("sample", label, i)
            )
            name = f"stream_c{label}_{i:04d}.evs"
            write_events(out_dir / name, stream)
            rows.append({"filename": name, "label": label, "n_events": len(stream), "seed": seed})
    with atomic_open(out_dir / "manifest.tsv", "w") as fh:
        fh.write("filename\tlabel\tn_events\tseed\n")
        for row in rows:
            fh.write(f"{row['filename']}\t{row['label']}\t{row['n_events']}\t{row['seed']}\n")
    return rows


def load_corpus(corpus_dir, geometry: Optional[Tuple[int, int]] = None) -> List[EventStream]:
    """The labeled streams of a corpus directory: ``manifest.tsv`` and the
    event files it names, which must all share one geometry.

    ``geometry`` (width, height) is the one the caller's network takes: CSV
    files, which carry none, are read at it, and an EVS1 file whose header
    disagrees is rejected. Without it, CSV geometry is inferred per file.
    """
    corpus_dir = Path(corpus_dir)
    manifest = corpus_dir / "manifest.tsv"
    if not manifest.exists():
        raise ConfigError(f"no manifest.tsv under {corpus_dir}")
    lines = []
    for lineno, line in enumerate(_LINE_END.split(manifest.read_bytes()), start=1):
        try:
            lines.append(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{manifest}: line {lineno}: byte {line[exc.start]:#04x} is not UTF-8")
    header = lines[0].split("\t")
    for column in ("filename", "label"):
        if column not in header:
            raise ConfigError(f"{manifest}: line 1: header has no {column!r} column")
    name_col, label_col = header.index("filename"), header.index("label")
    streams = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) <= max(name_col, label_col):
            raise ConfigError(f"{manifest}: line {lineno}: {len(parts)} fields, header has {len(header)}")
        try:
            label = int(parts[label_col])
        except ValueError:
            raise ConfigError(f"{manifest}: line {lineno}: label {parts[label_col]!r} is not an integer")
        if label < 0:
            raise ConfigError(f"{manifest}: line {lineno}: label {label} is negative")
        event_file = corpus_dir / parts[name_col]
        if not event_file.is_file():
            raise ConfigError(f"{manifest}: line {lineno}: no event file {parts[name_col]!r}")
        stream = read_events(event_file, *(geometry or (None, None)))
        if stream.label is None:
            stream.label = label
        elif stream.label != label:
            raise ConfigError(f"{manifest}: line {lineno}: {parts[name_col]!r} holds "
                              f"label {stream.label}, the manifest says {label}")
        found = f"{stream.width}x{stream.height}"
        if geometry is not None and (stream.width, stream.height) != tuple(geometry):
            raise EventFormatError(
                f"{manifest}: line {lineno}: {parts[name_col]!r} is {found} (width x "
                f"height), but the network takes {geometry[0]}x{geometry[1]}"
            )
        if not streams:
            first = (parts[name_col], lineno, found)
        elif found != first[2]:
            raise EventFormatError(
                f"{manifest}: line {lineno}: {parts[name_col]!r} is {found} (width x "
                f"height), but {first[0]!r} on line {first[1]} is {first[2]}"
            )
        streams.append(stream)
    if not streams:
        raise ConfigError(f"{manifest}: lists no event file")
    return streams


def _load_dataset(cfg: TrainConfig, which: str) -> LabeledFrames:
    directory = getattr(cfg.data, which)
    if not directory:
        raise ConfigError("missing corpus directory", field=f"data.{which}")
    streams = load_corpus(directory, (cfg.input_width, cfg.input_height))
    return frames_from_streams(
        streams, cfg.data.delta_t_ms, cfg.data.timesteps, binarize=cfg.data.binarize,
        dtype=precision_dtype(cfg.precision),
    )


# ---------------------------------------------------------------------------
# experiment plans


def _require(mapping: dict, key: str, kind, path: str, default=None):
    """``mapping[key]`` checked by ``typed``, else ``default``; a key
    without a default is required."""
    if key in mapping:
        return typed(mapping[key], kind, f"{path}{key}")
    if default is None:
        raise ConfigError("missing required field", field=f"{path}{key}")
    return default


def _list_of(doc: dict, key: str, kind, default=None) -> list:
    """``doc[key]``, a list whose every item ``typed`` passes as a ``kind``."""
    return [typed(item, kind, f"{key}[{i}]") for i, item in enumerate(_require(doc, key, list, "", default))]


def run_name(cfg: TrainConfig) -> str:
    """The run directory a grid writes ``cfg`` to."""
    return f"run_{cfg.variant}_k{cfg.lif.kappa:g}_s{cfg.seed}"


def grid_configs(base: dict, cells, prefix: str = "", precision: Optional[str] = None
                 ) -> List[TrainConfig]:
    """The validated config of each grid cell, a (values, names) pair: the
    variant, kappa and seed the cell sets in the config document ``base``,
    and the names an error in each of them is reported under. An error in
    a base field is named with ``prefix`` in front. ``precision`` replaces
    the base's. Two cells that would share a run directory fail."""
    lif = _require(base, "lif", dict, prefix, {})
    if precision is not None:
        base = {**base, "precision": precision}
    configs, owners = [], {}
    for values, names in cells:
        variant, kappa, seed = values
        try:
            cfg = config_from_dict({**base, "variant": variant, "seed": seed,
                                    "lif": {**lif, "kappa": kappa}})
        except ConfigError as exc:  # every error of config_from_dict on a dict names a field
            own = dict(zip(("variant", "lif.kappa", "seed"), names))
            raise ConfigError(exc.reason, field=own.get(exc.field, prefix + exc.field)) from None
        name = run_name(cfg)
        if name in owners:
            raise ConfigError(f"cells {owners[name]} and {values} would both write {name}")
        owners[name] = values
        configs.append(cfg)
    return configs


def plan_from_dict(doc: dict, precision: Optional[str] = None) -> List[TrainConfig]:
    """The run configs of a JSON plan document, with ``precision`` in place
    of the base config's when given; errors name the field."""
    _reject_unknown(doc, ("base_config", "cells", "variants", "seeds"), "")
    base = _require(doc, "base_config", dict, "")
    if "cells" in doc:
        if given := [key for key in ("variants", "seeds") if key in doc]:
            raise ConfigError("cannot be given with cells", field=given[0])
        cells = []
        for i, cell in enumerate(_list_of(doc, "cells", list)):
            if len(cell) != 3:
                raise ConfigError("expected [variant, kappa, seed]", field=f"cells[{i}]")
            names = tuple(f"cells[{i}][{j}]" for j in range(3))
            cells.append((tuple(map(typed, cell, (str, float, int), names)), names))
    else:
        lif = _require(base, "lif", dict, "base_config.", {})  # each cell sets its kappa there
        kappa = _require(lif, "kappa", float, "base_config.lif.")
        variants = _list_of(doc, "variants", str, list(VARIANTS))
        seeds = _list_of(doc, "seeds", int, [1, 2, 3])
        cells = [((variant, kappa, seed), (f"variants[{i}]", "base_config.lif.kappa", f"seeds[{j}]"))
                 for i, variant in enumerate(variants) for j, seed in enumerate(seeds)]
    return grid_configs(base, cells, "base_config.", precision)


@dataclass
class ReportRow:
    group: dict
    trials: int
    mean_acc: float
    std_acc: Optional[float]
    best_acc: float
    status: str


def _run_summary(record_path: Path) -> dict:
    """The summary dict of a persisted run_record.json. A run that stopped
    short of its configured epochs counts as diverged."""
    doc = json.loads(record_path.read_text())
    cfg = doc["config"]
    complete = len(doc["per_epoch"]) == cfg["epochs"]
    return {
        "variant": cfg["variant"],
        "kappa": cfg["lif"]["kappa"],
        "seed": cfg["seed"],
        "best_acc": doc["best_acc"],
        "status": "complete" if complete else "diverged",
        "run_dir": str(record_path.parent),
    }


def summaries_from_run_dirs(out_dir) -> List[dict]:
    """Rebuild per-run summary dicts from persisted run_record.json files,
    so any table can be regenerated from disk alone."""
    return [_run_summary(path) for path in sorted(Path(out_dir).glob("run_*/run_record.json"))]


def aggregate_records(records: Sequence[dict], group_key) -> List[ReportRow]:
    """Group run records and reduce to mean/std/best top-1 accuracy.

    Pure function of the records, so a table can always be regenerated
    bitwise from the persisted per-run files.
    """
    groups: dict = {}
    for rec in records:
        key = tuple(sorted(group_key(rec).items()))
        groups.setdefault(key, []).append(rec)
    rows = []
    for key, recs in sorted(groups.items()):
        accs = [r["best_acc"] for r in recs if r.get("status", "complete") == "complete"]
        incomplete = len(accs) != len(recs)
        rows.append(
            ReportRow(
                group=dict(key),
                trials=len(accs),
                mean_acc=float(statistics.fmean(accs)) if accs else float("nan"),
                std_acc=float(statistics.stdev(accs)) if len(accs) >= 2 else None,
                best_acc=max(accs) if accs else float("nan"),
                status="incomplete" if incomplete or not accs else "complete",
            )
        )
    return rows


def _write_table(path: Path, rows: List[ReportRow], group_cols: List[str], extra: dict):
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(group_cols + ["trials", "mean_acc", "std_acc", "best_acc", "status"]
                        + list(extra))
        for row in rows:
            writer.writerow(
                [row.group[c] for c in group_cols]
                + [row.trials, repr(row.mean_acc),
                   "" if row.std_acc is None else repr(row.std_acc),
                   repr(row.best_acc), row.status]
                + [extra[k] for k in extra]
            )


# ---------------------------------------------------------------------------
# single run


def run_training(cfg: TrainConfig, run_dir: Path, force: bool = False) -> dict:
    """Train one config into ``run_dir``; returns the summary dict of the
    record it wrote, as ``summaries_from_run_dirs`` reads it."""
    record_path = run_dir / "run_record.json"
    if record_path.exists() and not force:
        raise ConfigError(f"{run_dir} already contains a run; pass --force to overwrite")
    run_dir.mkdir(parents=True, exist_ok=True)
    train_set = _load_dataset(cfg, "train_dir")
    test_set = _load_dataset(cfg, "test_dir")
    # a forced rerun counts only once its own record is written
    record_path.unlink(missing_ok=True)
    try:
        record, net = train(cfg, train_set, test_set)
    except DivergenceError as exc:
        record, net = exc.record, None
    # every file is renamed into place whole, and the record goes last: a
    # run killed before it is never counted by summaries_from_run_dirs
    with atomic_open(run_dir / "timing.json", "w") as fh:
        fh.write(record.timing_json() + "\n")
    checkpoint = run_dir / "checkpoint.bin"
    if net is None:  # a diverged run has no checkpoint, and keeps no earlier one
        checkpoint.unlink(missing_ok=True)
        checkpoint.with_suffix(".manifest.tsv").unlink(missing_ok=True)
    else:
        save_checkpoint(
            checkpoint,
            net,
            extra_config={
                "delta_t_ms": cfg.data.delta_t_ms,
                "binarize": cfg.data.binarize,
                "seed": cfg.seed,
            },
        )
    with atomic_open(record_path, "w") as fh:
        fh.write(record.to_json() + "\n")
    return _run_summary(record_path)


def run_plan(configs: Sequence[TrainConfig], out_dir: Path, threads: int = 1,
             force: bool = False) -> List[dict]:
    """Train every config into its run directory (bounded worker pool) and
    return their summary dicts."""
    out_dir.mkdir(parents=True, exist_ok=True)

    def one(cfg: TrainConfig) -> dict:
        return run_training(cfg, out_dir / run_name(cfg), force=force)

    if threads <= 1:
        return [one(cfg) for cfg in configs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, configs))


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    for flag, value in (("--classes", args.classes), ("--n-per-class", args.n_per_class)):
        if value < 1:
            raise ConfigError(f"must be at least 1, got {value}", field=flag)
    rows = synth_corpus(
        Path(args.out), args.classes, args.n_per_class, args.height, args.width,
        args.duration_ms, args.rate, args.seed,
    )
    print(f"wrote {len(rows)} streams to {args.out}")
    return 0


def _read_json_object(path: str, flag: str) -> dict:
    """The JSON object in file ``path``; a missing, unreadable or malformed
    file raises ConfigError naming the flag and the path."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}", field=flag)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}", field=flag)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} holds a JSON {type(doc).__name__}, not an object", field=flag)
    return doc


def _parse_list(text: str, convert, flag: str) -> list:
    """The comma-separated values of a flag; a token ``convert`` rejects
    raises ConfigError naming the flag and the token."""
    values = []
    for token in text.split(","):
        try:
            values.append(convert(token))
        except ValueError as exc:
            raise ConfigError(f"bad value {token!r}: {exc}", field=flag)
    return values


def cmd_train(args) -> int:
    doc = _read_json_object(args.config, "--config")
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.precision is not None:
        doc["precision"] = args.precision
    cfg = config_from_dict(doc)
    run_dir = Path(args.out) / f"run_seed{cfg.seed}_{cfg.variant}"
    summary = run_training(cfg, run_dir, force=args.force)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["status"] == "complete" else 1


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError(f"must be at least 1, got {threads}", field="--threads")


def _run_grid(configs: List[TrainConfig], args, column: str, extra: dict) -> int:
    """Train a grid's configs under ``--out``, write its ``table.csv`` grouped by
    ``column`` with the ``extra`` columns, print each row; 1 if any run diverged."""
    out_dir = Path(args.out)
    summaries = run_plan(configs, out_dir, threads=args.threads, force=args.force)
    rows = aggregate_records(summaries, lambda r: {column: r[column]})
    _write_table(out_dir / "table.csv", rows, [column], extra)
    for row in rows:
        std = "" if row.std_acc is None else f" +/- {row.std_acc:.4f}"
        print(f"{column} {row.group[column]}: mean {row.mean_acc:.4f}{std}, "
              f"best {row.best_acc:.4f} ({row.trials} trials, {row.status})")
    return 0 if all(row.status == "complete" for row in rows) else 1


def cmd_ablate(args) -> int:
    _check_threads(args.threads)
    configs = plan_from_dict(_read_json_object(args.plan, "--plan"), args.precision)
    return _run_grid(configs, args, "variant", {})


def cmd_sweep_kappa(args) -> int:
    _check_threads(args.threads)
    doc = _read_json_object(args.config, "--config")
    kappas = _parse_list(args.kappas, float, "--kappas")
    seeds = _parse_list(args.seeds, int, "--seeds")
    variant = doc.get("variant", "sctfa")
    cells = [((variant, k, s), ("variant", "--kappas", "--seeds")) for k in kappas for s in seeds]
    configs = grid_configs(doc, cells, precision=args.precision)
    return _run_grid(configs, args, "kappa", {"variant": variant})


_CORRUPTION_FLAGS = (
    ("noise", "poisson_noise"),
    ("event_loss", "event_loss"),
    ("frame_loss", "frame_loss"),
)


def _corruption_specs(args) -> List[CorruptionSpec]:
    """Every level of the corruption flags as a validated spec; a bad token
    raises ConfigError naming its flag."""
    master = Rng(args.seed)
    specs = []
    for flag, kind in _CORRUPTION_FLAGS:
        levels = getattr(args, flag)
        if not levels:
            continue
        for i, token in enumerate(levels.split(",")):
            try:
                specs.append(CorruptionSpec(
                    kind, float(token), master.derive_seed("robustness", kind, i)
                ))
            except (ValueError, ParameterError) as exc:
                raise ConfigError(f"bad level {token!r}: {exc}",
                                  field="--" + flag.replace("_", "-"))
    return specs


def _load_run(args):
    """The checkpoint's network, its corpus streams, and the slicing the
    run trained with: (net, streams, delta_t_ms, timesteps, binarize). A
    corpus label the network has no class for fails before any forward."""
    net, config = load_checkpoint(args.checkpoint)
    streams = load_corpus(args.data, (int(config["input_width"]), int(config["input_height"])))
    top = max(stream.label for stream in streams)
    if top >= net.spec.classes:
        raise ConfigError(f"{Path(args.data) / 'manifest.tsv'}: label {top} is past the "
                          f"{net.spec.classes} classes of {args.checkpoint}")
    return (net, streams, float(config.get("delta_t_ms", 100.0)), int(config["timesteps"]),
            bool(config.get("binarize", False)))


def cmd_robustness(args) -> int:
    specs = _corruption_specs(args)
    net, streams, delta_t_ms, timesteps, binarize = _load_run(args)
    results = evaluate_sweep(net, streams, delta_t_ms, timesteps, specs, binarize=binarize)
    out_rows = [("clean", 0.0, "accuracy", next(results).accuracy)]
    for spec, result in zip(specs, results):
        out_rows.append((spec.kind, spec.parameter, "accuracy", result.accuracy))
        if spec.kind == "poisson_noise":
            out_rows.append((spec.kind, spec.parameter, "activation_distance",
                             result.activation_distance))
        print(f"{spec.kind} level={spec.parameter:g}: acc {result.accuracy:.4f}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_open(out_dir / "robustness.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "level", "metric", "value", "master_seed"])
        for kind, level, metric, value in out_rows:
            writer.writerow([kind, level, metric, repr(float(value)), args.seed])
    return 0


def cmd_complexity(args) -> int:
    if args.batch < 1:
        raise ConfigError(f"must be at least 1, got {args.batch}", field="--batch")
    arch = ARCH_PRESETS.get(args.arch, args.arch)
    spec = parse_architecture(
        arch,
        input_shape=(2, args.height, args.width),
        variant=args.variant,
        reduction=args.reduction,
        timesteps=args.timesteps,
    )
    params = count_parameters(spec)
    mult_adds = count_mult_adds(spec)
    print(f"parameters: {params}")
    print(f"mult_adds(T={spec.timesteps}): {mult_adds}")
    if spec.classes is not None and not args.no_timing:
        net = SpikingNetwork(spec, seed=args.seed)
        rng = Rng(args.seed).split("timing")
        frames = rng.poisson(
            0.5, size=(args.batch, spec.timesteps, *spec.input_shape)
        ).astype(np.float32)
        with no_grad():
            # warmup also initializes batch-norm statistics for eval mode
            net.forward(frames, training=True)
            laps = []
            for _ in range(10):
                t0 = time.perf_counter()
                net.forward(frames)
                laps.append((time.perf_counter() - t0) * 1e3)
        print(f"inference_ms_per_batch(batch={args.batch}): {statistics.median(laps):.3f}")
    return 0


def cmd_eval(args) -> int:
    net, streams, delta_t_ms, timesteps, binarize = _load_run(args)
    result = evaluate(net, streams, delta_t_ms, timesteps, binarize=binarize)
    print(f"accuracy: {result.accuracy:.4f}")
    print("confusion:")
    for row in result.confusion.tolist():
        print("  " + " ".join(f"{v:4d}" for v in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spikefuse")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--force", action="store_true", help="overwrite existing run dirs")
    common.add_argument("--precision", choices=list(PRECISIONS), default=None,
                        help="override the config precision")

    p = sub.add_parser("synth", help="generate a moving-bar event corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--n-per-class", type=int, default=50)
    p.add_argument("--height", type=int, default=16)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--duration-ms", type=float, default=1000.0)
    p.add_argument("--rate", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="train one config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--threads", type=int, default=1, help="worker pool size")

    # no abbreviated flags on the grids, where --seed would read as --seeds
    p = sub.add_parser("ablate", parents=[common, grid], help="variant x seed grid",
                       allow_abbrev=False)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep-kappa", parents=[common, grid], help="kappa x seed grid",
                       allow_abbrev=False)
    p.add_argument("--config", required=True)
    p.add_argument("--kappas", default="0.3,0.4,0.5,0.6,0.7,0.8")
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_kappa)

    p = sub.add_parser("robustness", help="corruption sweeps on a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--noise", default="", help="comma list of poisson rates")
    p.add_argument("--event-loss", dest="event_loss", default="", help="comma list of rates")
    p.add_argument("--frame-loss", dest="frame_loss", default="", help="comma list of rates")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("complexity", help="count parameters and mult-adds")
    p.add_argument("--arch", required=True, help="architecture string or preset name")
    p.add_argument("--variant", default="bl", choices=VARIANTS)
    p.add_argument("--timesteps", type=int, default=10)
    p.add_argument("--height", type=int, default=128)
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--reduction", type=int, default=4)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings()  # a bad SPIKEFUSE_DEBUG_NAN fails here, before the command
        return args.func(args)
    except SpikefuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
