"""CLI surface: corpus synthesis, run directories, sweeps, reports."""

import csv
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from spikefuse import harness, training
from spikefuse.atomic import atomic_open
from spikefuse.errors import ConfigError, EventFormatError, ParameterError
from spikefuse.events import read_events, synth_moving_bar, write_events
from spikefuse.harness import (
    aggregate_records,
    build_parser,
    load_corpus,
    main,
    plan_from_dict,
    run_training,
    summaries_from_run_dirs,
    synth_corpus,
)
from spikefuse.network import SpikingNetwork, build_network, save_checkpoint
from spikefuse.rng import Rng
from spikefuse.tensor import Tensor
from spikefuse.training import config_from_dict

from seams import runtime

TINY_ARCH = "Input-4C3-BN-AP2-4C3-BN-VotingC4P2-AP"
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    train_dir = root / "train"
    test_dir = root / "test"
    synth_corpus(train_dir, classes=4, n_per_class=6, height=16, width=16,
                 duration_ms=500.0, rate=2.0, seed=101)
    synth_corpus(test_dir, classes=4, n_per_class=3, height=16, width=16,
                 duration_ms=500.0, rate=2.0, seed=202)
    return train_dir, test_dir


def config_doc(train_dir, test_dir, **overrides):
    doc = {
        "arch": TINY_ARCH,
        "variant": "bl",
        "epochs": 1,
        "batch_size": 8,
        "lr": 0.004,
        "lr_decay": 0.97,
        "seed": 5,
        "input_height": 16,
        "input_width": 16,
        "lif": {"v_th": 1.0, "kappa": 0.7},
        "data": {
            "delta_t_ms": 50.0,
            "timesteps": 5,
            "train_dir": str(train_dir),
            "test_dir": str(test_dir),
        },
    }
    doc.update(overrides)
    return doc


class TestSynth:
    def test_file_count_and_manifest(self, tmp_path):
        rows = synth_corpus(tmp_path / "c", 4, 5, 16, 16, 500.0, 2.0, seed=9)
        assert len(rows) == 20
        files = sorted((tmp_path / "c").glob("*.evs"))
        assert len(files) == 20
        manifest = (tmp_path / "c" / "manifest.tsv").read_text().splitlines()
        assert len(manifest) == 21  # header + rows

    def test_histogram_uniform(self, tmp_path):
        rows = synth_corpus(tmp_path / "c", 4, 5, 16, 16, 500.0, 2.0, seed=9)
        labels = [r["label"] for r in rows]
        assert all(labels.count(c) == 5 for c in range(4))

    def test_same_seed_byte_identical(self, tmp_path):
        synth_corpus(tmp_path / "a", 2, 3, 16, 16, 500.0, 2.0, seed=4)
        synth_corpus(tmp_path / "b", 2, 3, 16, 16, 500.0, 2.0, seed=4)
        for fa in sorted((tmp_path / "a").iterdir()):
            fb = tmp_path / "b" / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize("height,width", [(16.5, 16), (16, 16.0)])
    def test_non_integer_field_rejected_before_any_file(self, tmp_path, height, width):
        with pytest.raises(ParameterError, match="height and width must be integers"):
            synth_corpus(tmp_path / "c", 2, 1, height, width, 500.0, 2.0, seed=4)
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("classes, n_per_class", [(2.5, 1), (2, 1.0), (True, 1), (0, 1), (2, 0)])
    def test_bad_count_rejected_before_any_file(self, tmp_path, classes, n_per_class):
        with pytest.raises(ParameterError, match="must be an integer >= 1"):
            synth_corpus(tmp_path / "c", classes, n_per_class, 16, 16, 500.0, 2.0, seed=4)
        assert not (tmp_path / "c").exists()

    def test_load_round_trip(self, tmp_path):
        synth_corpus(tmp_path / "c", 3, 2, 16, 16, 500.0, 2.0, seed=4)
        streams = load_corpus(tmp_path / "c")
        assert len(streams) == 6
        assert sorted({s.label for s in streams}) == [0, 1, 2]

    @pytest.mark.parametrize("header,row,message", [
        ("name\tlabel", "a.evs\t0", "line 1: header has no 'filename' column"),
        ("filename\tclass", "a.evs\t0", "line 1: header has no 'label' column"),
        ("filename\tlabel", "a.evs\tcat", "line 4: label 'cat' is not an integer"),
        ("filename\tlabel", "a.evs\t-1", "line 4: label -1 is negative"),
        ("filename\tlabel", "shortline", "line 4: 1 fields, header has 2"),
        ("filename\tlabel", "missing.evs\t1", "line 4: no event file 'missing.evs'"),
    ])
    def test_malformed_manifest_raises_config_error(self, tmp_path, header, row, message):
        synth_corpus(tmp_path / "c", 1, 1, 16, 16, 500.0, 2.0, seed=4)
        manifest = tmp_path / "c" / "manifest.tsv"
        first = manifest.read_text().splitlines()[1].split("\t")
        # a good row, a blank line (skipped), then the bad row
        manifest.write_text(f"{header}\n{first[0]}\t{first[1]}\n\n{row}\n")
        with pytest.raises(ConfigError) as info:
            load_corpus(tmp_path / "c")
        assert str(info.value) == f"{manifest}: {message}"

    def test_manifest_without_rows_raises_config_error(self, tmp_path):
        synth_corpus(tmp_path / "c", 1, 1, 16, 16, 500.0, 2.0, seed=4)
        manifest = tmp_path / "c" / "manifest.tsv"
        manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
        with pytest.raises(ConfigError) as info:
            load_corpus(tmp_path / "c")
        assert str(info.value) == f"{manifest}: lists no event file"

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_manifest_byte_that_is_not_utf8_names_the_line(self, tmp_path, end):
        synth_corpus(tmp_path / "c", 1, 1, 16, 16, 500.0, 2.0, seed=4)
        manifest = tmp_path / "c" / "manifest.tsv"
        header, row = manifest.read_bytes().splitlines()
        manifest.write_bytes(header + end + row + end + b"caf\xe9.evs\t0" + end)
        with pytest.raises(ConfigError) as info:
            load_corpus(tmp_path / "c")
        assert str(info.value) == f"{manifest}: line 3: byte 0xe9 is not UTF-8"

    def test_mixed_geometry_raises_event_format_error(self, tmp_path):
        synth_corpus(tmp_path / "c", 2, 1, 16, 16, 500.0, 2.0, seed=4)
        write_events(tmp_path / "c" / "small.evs",
                     synth_moving_bar(1, 8, 12, 500.0, 2.0, Rng(5)))
        manifest = tmp_path / "c" / "manifest.tsv"
        first = manifest.read_text().splitlines()[1].split("\t")[0]
        with open(manifest, "a") as fh:
            fh.write("small.evs\t1\t0\t4\n")
        with pytest.raises(EventFormatError) as info:
            load_corpus(tmp_path / "c")
        assert str(info.value) == (
            f"{manifest}: line 4: 'small.evs' is 12x8 (width x height), "
            f"but {first!r} on line 2 is 16x16"
        )

    def test_csv_corpus_reads_at_the_given_geometry(self, tmp_path):
        # two recordings of one 16x16 sensor whose largest coordinates differ
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "a.csv").write_text("t_us,x,y,polarity\n0,15,3,1\n10,2,15,0\n")
        (corpus / "b.csv").write_text("t_us,x,y,polarity\n0,1,1,1\n")
        (corpus / "manifest.tsv").write_text("filename\tlabel\na.csv\t0\nb.csv\t1\n")
        streams = load_corpus(corpus, (16, 16))
        assert [(s.width, s.height, s.label) for s in streams] == [(16, 16, 0), (16, 16, 1)]
        with pytest.raises(EventFormatError, match="'b.csv' is 2x2"):
            load_corpus(corpus)

    def test_evs1_geometry_other_than_the_given_raises(self, tmp_path):
        synth_corpus(tmp_path / "c", 2, 1, 16, 16, 500.0, 2.0, seed=4)
        manifest = tmp_path / "c" / "manifest.tsv"
        first = manifest.read_text().splitlines()[1].split("\t")[0]
        with pytest.raises(EventFormatError) as info:
            load_corpus(tmp_path / "c", (32, 24))
        assert str(info.value) == (
            f"{manifest}: line 2: {first!r} is 16x16 (width x height), "
            f"but the network takes 32x24"
        )

    def test_file_label_contradicting_manifest_raises(self, tmp_path):
        synth_corpus(tmp_path / "c", 2, 1, 16, 16, 500.0, 2.0, seed=4)
        manifest = tmp_path / "c" / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        name = lines[2].split("\t")[0]
        assert read_events(tmp_path / "c" / name).label == 1
        lines[2] = lines[2].replace(f"{name}\t1", f"{name}\t0")
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as info:
            load_corpus(tmp_path / "c")
        assert str(info.value) == (
            f"{manifest}: line 3: {name!r} holds label 1, the manifest says 0"
        )

    def test_blank_lines_skipped(self, tmp_path):
        synth_corpus(tmp_path / "c", 2, 1, 16, 16, 500.0, 2.0, seed=4)
        manifest = tmp_path / "c" / "manifest.tsv"
        manifest.write_text(manifest.read_text().replace("\n", "\n\n"))
        assert len(load_corpus(tmp_path / "c")) == 2

    def test_cli_entry(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "c"), "--classes", "2",
                   "--n-per-class", "2", "--seed", "3"])
        assert rc == 0
        assert "4 streams" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--classes", "--n-per-class"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_empty_corpus_rejected(self, tmp_path, capsys, flag, value):
        argv = ["synth", "--out", str(tmp_path / "c"), "--classes", "2", "--n-per-class", "2"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        assert f"error: {flag}: must be at least 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()
        with pytest.raises(ConfigError) as info:
            harness.cmd_synth(harness.build_parser().parse_args(argv))
        assert info.value.field == flag


    @pytest.mark.parametrize("flag, value", [
        ("--rate", "nan"), ("--rate", "inf"), ("--rate", "-1"),
        ("--duration-ms", "0"), ("--duration-ms", "-5"), ("--duration-ms", "nan"), ("--duration-ms", "inf"),
    ])
    def test_bad_rate_or_duration_fails_closed(self, tmp_path, capsys, flag, value):
        out = tmp_path / "c"
        argv = ["synth", "--out", str(out), "--classes", "2", "--n-per-class", "2", flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
        assert not out.exists()  # the parameters are checked before the directory is made

    def test_failed_manifest_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        real_open = harness.atomic_open

        class FailingFile:
            def __init__(self, fh):
                self.fh, self.lines = fh, 0

            def write(self, text):
                self.lines += 1
                if self.lines == 3:
                    raise OSError("disk full")
                return self.fh.write(text)

        @contextmanager
        def failing_open(path, *args, **kwargs):
            with real_open(path, *args, **kwargs) as fh:
                yield FailingFile(fh)

        monkeypatch.setattr(harness, "atomic_open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            synth_corpus(tmp_path / "c", 2, 2, 16, 16, 500.0, 2.0, seed=4)
        names = sorted(p.name for p in (tmp_path / "c").iterdir())
        assert len(names) == 4 and all(name.endswith(".evs") for name in names)
        with pytest.raises(ConfigError, match="no manifest.tsv"):
            load_corpus(tmp_path / "c")


def python(*args, **environ):
    """``python *args`` from a checkout without an install (the package's
    parent on the path), with ``environ`` added to the environment."""
    paths = [str(Path(harness.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


class TestModuleEntry:
    BAD = {"SPIKEFUSE_DEBUG_NAN": "true"}  # reaches neither --help nor an import

    def test_python_m_runs_the_cli(self):
        done = python("-m", "spikefuse", "--help", **self.BAD)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: spikefuse")

    def test_bad_nan_switch_is_one_error_line(self, tmp_path):
        done = python("-m", "spikefuse", "synth", "--out", str(tmp_path / "d"), **self.BAD)
        assert done.returncode == 2 and not (tmp_path / "d").exists()
        assert done.stderr == "error: SPIKEFUSE_DEBUG_NAN must be unset, empty, 0 or 1, got 'true'\n"
        code = "import spikefuse.harness, spikefuse.tensor as t; assert t._settings == [] and t._pools == {}"
        assert python("-c", code, **self.BAD).returncode == 0


class TestTrainCommand:
    def test_run_directory_contents(self, corpus, tmp_path):
        train_dir, test_dir = corpus
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir)))
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
        assert rc == 0
        run_dir = tmp_path / "runs" / "run_seed5_bl"
        assert (run_dir / "run_record.json").exists()
        assert (run_dir / "timing.json").exists()
        assert (run_dir / "checkpoint.bin").exists()
        assert (run_dir / "checkpoint.manifest.tsv").exists()

    def test_rerun_requires_force_and_is_bitwise(self, corpus, tmp_path):
        train_dir, test_dir = corpus
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir)))
        out = str(tmp_path / "runs")
        assert main(["train", "--config", str(cfg_path), "--out", out]) == 0
        record = (Path(out) / "run_seed5_bl" / "run_record.json").read_bytes()
        checkpoint = (Path(out) / "run_seed5_bl" / "checkpoint.bin").read_bytes()
        # rerun without --force refuses
        assert main(["train", "--config", str(cfg_path), "--out", out]) == 2
        # rerun with --force reproduces the record bitwise
        assert main(["train", "--config", str(cfg_path), "--out", out, "--force"]) == 0
        assert (Path(out) / "run_seed5_bl" / "run_record.json").read_bytes() == record
        assert (Path(out) / "run_seed5_bl" / "checkpoint.bin").read_bytes() == checkpoint

    def test_invalid_config_names_field(self, corpus, tmp_path, capsys):
        train_dir, test_dir = corpus
        doc = config_doc(train_dir, test_dir)
        del doc["lif"]["v_th"]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "lif.v_th" in capsys.readouterr().err

    def test_non_finite_slice_length_names_field(self, corpus, tmp_path, capsys):
        train_dir, test_dir = corpus
        doc = config_doc(train_dir, test_dir)
        doc["data"]["delta_t_ms"] = float("nan")
        cfg_path = tmp_path / "nan.json"
        cfg_path.write_text(json.dumps(doc))
        assert "NaN" in cfg_path.read_text()
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "error: data.delta_t_ms: expected a finite number, got nan" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_threads_flag_is_rejected(self, tmp_path, capsys):
        # train runs one config; the worker pool belongs to the grid commands
        with pytest.raises(SystemExit) as info:
            main(["train", "--threads", "2", "--config", str(tmp_path / "cfg.json"),
                  "--out", str(tmp_path / "runs")])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err
        for command in (["ablate", "--plan", "p.json"], ["sweep-kappa", "--config", "c.json"]):
            args = build_parser().parse_args(command + ["--out", "o", "--threads", "2"])
            assert args.threads == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("command", [["ablate", "--plan"], ["sweep-kappa", "--config"]])
    def test_threads_below_one_rejected(self, tmp_path, capsys, command, threads):
        argv = command + [str(tmp_path / "missing.json"), "--out", str(tmp_path / "o"),
                          "--threads", threads]
        assert main(argv) == 2
        assert f"error: --threads: must be at least 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        args = harness.build_parser().parse_args(argv)
        with pytest.raises(ConfigError) as info:
            args.func(args)
        assert info.value.field == "--threads"

    def test_timing_records_conv_workers_and_not_the_record(self, corpus, tmp_path, monkeypatch,
                                                          conv_workers):
        import spikefuse.tensor as tensor_module

        train_dir, test_dir = corpus
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir, variant="sctfa")))
        # one sample per conv block, so every conv2d call splits over the
        # workers; the fixture splits every layer-node call
        monkeypatch.setattr(tensor_module, "_CONV_BLOCK_BYTES", 1)
        records = []
        for workers, debug_nan in [(1, False), (2, True), (3, False)]:
            conv_workers(workers)
            out = tmp_path / f"w{workers}"
            with runtime(debug_nan=debug_nan):
                assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
            run_dir = out / "run_seed5_sctfa"
            timing = json.loads((run_dir / "timing.json").read_text())
            assert timing["conv_workers"] == workers
            assert timing["debug_nan"] is debug_nan
            assert timing["cpu_count"] >= 1
            records.append((run_dir / "run_record.json").read_bytes())
        assert records[0] == records[1] == records[2]

    def test_failed_write_leaves_no_counted_run(self, corpus, tmp_path, monkeypatch):
        train_dir, test_dir = corpus
        cfg = config_from_dict(config_doc(train_dir, test_dir))

        def failing_save(path, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(harness, "save_checkpoint", failing_save)
        with pytest.raises(OSError, match="disk full"):
            run_training(cfg, tmp_path / "runs" / "run_a")
        assert summaries_from_run_dirs(tmp_path / "runs") == []
        assert sorted(p.name for p in (tmp_path / "runs" / "run_a").iterdir()) == ["timing.json"]

    def test_diverged_run_summary_equals_the_one_from_disk(self, corpus, tmp_path, monkeypatch):
        train_dir, test_dir = corpus
        cfg = config_from_dict(config_doc(train_dir, test_dir))
        # binary spikes keep the loss finite, so stub it to go non-finite
        monkeypatch.setattr("spikefuse.training.mse_vote_loss", lambda o, y: Tensor(np.array(np.nan)))
        summary = run_training(cfg, tmp_path / "runs" / "run_a")
        assert summary["status"] == "diverged"
        assert summaries_from_run_dirs(tmp_path / "runs") == [summary]

    def test_forced_rerun_that_diverges_keeps_no_checkpoint(self, corpus, tmp_path, monkeypatch, capsys):
        train_dir, test_dir = corpus
        cfg = config_from_dict(config_doc(train_dir, test_dir))
        run_dir = tmp_path / "runs" / "run_a"
        assert run_training(cfg, run_dir)["status"] == "complete"
        monkeypatch.setattr("spikefuse.training.mse_vote_loss", lambda o, y: Tensor(np.array(np.nan)))
        assert run_training(cfg, run_dir, force=True)["status"] == "diverged"
        assert sorted(p.name for p in run_dir.iterdir()) == ["run_record.json", "timing.json"]
        checkpoint = run_dir / "checkpoint.bin"
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(test_dir)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {checkpoint}: cannot read")

    def test_forced_rerun_counts_no_run_until_its_record(self, corpus, tmp_path, monkeypatch):
        train_dir, test_dir = corpus
        cfg = config_from_dict(config_doc(train_dir, test_dir))
        run_training(cfg, tmp_path / "runs" / "run_a")

        def failing_save(path, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(harness, "save_checkpoint", failing_save)
        with pytest.raises(OSError, match="disk full"):
            run_training(cfg, tmp_path / "runs" / "run_a", force=True)
        assert summaries_from_run_dirs(tmp_path / "runs") == []

    def test_atomic_open_leaves_target_whole(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        with pytest.raises(OSError, match="killed"):
            with atomic_open(path, "w") as fh:
                fh.write("partial")
                raise OSError("killed")
        assert path.read_text() == "old"
        with atomic_open(path, "w") as fh:
            fh.write("new")
        assert path.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_seed_override_flag(self, corpus, tmp_path):
        train_dir, test_dir = corpus
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir)))
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "runs"),
                   "--seed", "77"])
        assert rc == 0
        assert (tmp_path / "runs" / "run_seed77_bl" / "run_record.json").exists()


class TestPlans:
    def test_grid_expansion(self):
        configs = plan_from_dict(
            {"base_config": config_doc("x", "y"), "variants": ["bl", "sctfa"], "seeds": [1, 2]}
        )
        assert [(c.variant, c.seed) for c in configs] == [("bl", 1), ("bl", 2), ("sctfa", 1),
                                                          ("sctfa", 2)]

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ConfigError, match="would both write run_bl_k0.7_s1"):
            plan_from_dict({"base_config": config_doc("x", "y"),
                            "cells": [["bl", 0.7, 1], ["bl", 0.7, 1]]})

    def test_cell_config_overrides(self):
        (cfg,) = plan_from_dict(
            {"base_config": config_doc("x", "y"), "variants": ["sctfa"], "seeds": [9]}
        )
        assert cfg.variant == "sctfa" and cfg.seed == 9

    @pytest.mark.parametrize("change, field", [
        ({"cells": [["sctfa", "k", 1]]}, "cells[0][1]"),
        ({"cells": [["sctfa", 0.7, 1.5]]}, "cells[0][2]"),
        ({"cells": [[1, 0.7, 1]]}, "cells[0][0]"),
        ({"cells": [["sctfa", 0.7]]}, "cells[0]"),
        ({"cells": [5]}, "cells[0]"),
        ({"cells": 5}, "cells"),
        ({"base_config": [1]}, "base_config"),
        ({"base_config": {"lif": 5}}, "base_config.lif"),
        ({"base_config": {"lif": {}}}, "base_config.lif.kappa"),
        ({"seeds": "12"}, "seeds"),
        ({"seeds": [1, True]}, "seeds[1]"),
        ({"variants": "bl"}, "variants"),
        ({"cells": [["sctfa", float("nan"), 1]]}, "cells[0][1]"),
        ({"cells": [["sctfa", float("inf"), 1]]}, "cells[0][1]"),
        ({"base_config": {"lif": {"kappa": float("nan")}}}, "base_config.lif.kappa"),
        # misspelled keys that would otherwise run the default grid
        ({"variant": ["bl"]}, "variant"),
        ({"seed": [1]}, "seed"),
        # an error in a base config field is named under base_config, one
        # in a cell's own value by where the value came from
        ({"base_config": config_doc("x", "y", reducton=2)}, "base_config.reducton"),
        ({"base_config": config_doc("x", "y", reducton=2), "cells": [["bl", 0.7, 1]]},
         "base_config.reducton"),
        ({"base_config": config_doc("x", "y", epochs=0)}, "base_config.epochs"),
        ({"base_config": config_doc("x", "y", arch="Input-4X3")}, "base_config.arch"),
        ({"base_config": config_doc("x", "y", lif={"v_th": 0.0, "kappa": 0.7})},
         "base_config.lif.v_th"),
        ({"base_config": config_doc("x", "y", lif={"v_th": 1.0, "kappa": 0.7, "tau": 2.0})},
         "base_config.lif.tau"),
        ({"base_config": config_doc("x", "y", lif={"v_th": 1.0, "kappa": 1.5})},
         "base_config.lif.kappa"),
        ({"cells": [["bl", 0.7, 1], ["bogus", 0.7, 1]]}, "cells[1][0]"),
        ({"cells": [["bl", 1.5, 1]]}, "cells[0][1]"),
        ({"variants": ["bl", "bogus"]}, "variants[1]"),
        # a plan that lists cells may not give variants or seeds too
        ({"cells": [["bl", 0.7, 1]], "variants": ["bl", "sctfa"]}, "variants"),
        ({"cells": [["bl", 0.7, 1]], "seeds": [7]}, "seeds"),
    ])
    def test_malformed_field_names_it(self, change, field):
        with pytest.raises(ConfigError) as info:
            plan_from_dict({"base_config": config_doc("x", "y"), **change})
        assert info.value.field == field
        assert str(info.value).startswith(field + ": ")

    def test_readme_samples_load(self):
        config_text, plan_text, cells_text = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        config = json.loads(config_text)
        assert config_from_dict(config).variant == config["variant"]
        base = {k: v for k, v in config.items() if k not in ("variant", "seed")}

        def load(text):
            return plan_from_dict(json.loads(text.replace("{ ... config without variant/seed ... }",
                                                          json.dumps(base))))

        assert len(load(plan_text)) == 12  # 4 variants x 3 seeds
        cells = json.loads(cells_text.replace("{ ... config without variant/seed ... }", "{}"))["cells"]
        assert [(c.variant, c.lif.kappa, c.seed) for c in load(cells_text)] == [tuple(c) for c in cells]


class TestAblate:
    def test_two_by_one_grid(self, corpus, tmp_path):
        train_dir, test_dir = corpus
        plan = {
            "base_config": config_doc(train_dir, test_dir),
            "variants": ["bl", "sctfa"],
            "seeds": [1],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out = tmp_path / "ablate"
        rc = main(["ablate", "--plan", str(plan_path), "--out", str(out)])
        assert rc == 0
        with open(out / "table.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == ["bl", "sctfa"]
        assert all(r["trials"] == "1" for r in rows)
        assert all(r["std_acc"] == "" for r in rows)  # std needs >= 2 trials
        assert list(rows[0]) == ["variant", "trials", "mean_acc", "std_acc", "best_acc", "status"]
        assert (out / "run_bl_k0.7_s1" / "run_record.json").exists()

    # master_seed changes no run, so neither a plan nor its base config
    # takes one: any value fails as an unknown field
    @pytest.mark.parametrize("master_seed", ["42", 4.2, True, {"x": 1}])
    def test_malformed_master_seed_fails_before_any_run(self, tmp_path, capsys, master_seed):
        out = tmp_path / "ablate"
        for plan, field in (
            ({"base_config": config_doc("x", "y"), "master_seed": master_seed}, "master_seed"),
            ({"base_config": config_doc("x", "y", master_seed=master_seed)}, "base_config.master_seed"),
        ):
            plan_path = tmp_path / "plan.json"
            plan_path.write_text(json.dumps({**plan, "variants": ["bl"], "seeds": [1]}))
            assert main(["ablate", "--plan", str(plan_path), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {field}: unknown field")
            assert not out.exists()

    def test_diverged_run_exits_1(self, tmp_path, monkeypatch):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"base_config": config_doc("x", "y"), "variants": ["bl", "sctfa"],
                                         "seeds": [1]}))

        def run_plan(configs, out_dir, **kwargs):
            out_dir.mkdir()
            return [{"variant": c.variant, "best_acc": 0.5, "status": status}
                    for c, status in zip(configs, ["complete", "diverged"])]

        monkeypatch.setattr(harness, "run_plan", run_plan)
        assert main(["ablate", "--plan", str(plan_path), "--out", str(tmp_path / "ablate")]) == 1
        with open(tmp_path / "ablate" / "table.csv") as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == ["complete", "incomplete"]

    def test_table_regenerated_from_disk_bitwise(self, corpus, tmp_path):
        from spikefuse.harness import _write_table, summaries_from_run_dirs

        train_dir, test_dir = corpus
        plan = {
            "base_config": config_doc(train_dir, test_dir),
            "variants": ["bl", "stfa"],
            "seeds": [3],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out = tmp_path / "ablate"
        assert main(["ablate", "--plan", str(plan_path), "--out", str(out)]) == 0
        rebuilt = aggregate_records(
            summaries_from_run_dirs(out), lambda r: {"variant": r["variant"]}
        )
        _write_table(tmp_path / "again.csv", rebuilt, ["variant"], {})
        assert (tmp_path / "again.csv").read_bytes() == (out / "table.csv").read_bytes()

    def test_aggregation_pure(self, corpus, tmp_path):
        train_dir, test_dir = corpus
        summaries = [
            {"variant": "bl", "kappa": 0.7, "seed": 1, "best_acc": 0.5, "status": "complete"},
            {"variant": "bl", "kappa": 0.7, "seed": 2, "best_acc": 0.7, "status": "complete"},
            {"variant": "sctfa", "kappa": 0.7, "seed": 1, "best_acc": 0.9, "status": "complete"},
        ]
        rows1 = aggregate_records(summaries, lambda r: {"variant": r["variant"]})
        rows2 = aggregate_records(list(reversed(summaries)), lambda r: {"variant": r["variant"]})
        assert rows1 == rows2
        bl = rows1[0]
        assert bl.mean_acc == pytest.approx(0.6)
        assert bl.best_acc == 0.7
        assert bl.std_acc == pytest.approx(np.std([0.5, 0.7], ddof=1))

    def test_incomplete_cell_marks_row(self):
        rows = aggregate_records(
            [
                {"variant": "bl", "best_acc": 0.5, "status": "complete"},
                {"variant": "bl", "best_acc": float("nan"), "status": "diverged"},
            ],
            lambda r: {"variant": r["variant"]},
        )
        assert rows[0].status == "incomplete"
        assert rows[0].trials == 1


class TestGridFlags:
    def test_ablate_precision_reaches_every_run(self, corpus, tmp_path):
        train_dir, test_dir = corpus
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "base_config": config_doc(train_dir, test_dir, precision="f32"),
            "cells": [["bl", 0.7, 1], ["stfa", 0.5, 2]]}))
        out = tmp_path / "ablate"
        assert main(["ablate", "--plan", str(plan_path), "--out", str(out),
                     "--precision", "f64"]) == 0
        for name in ("run_bl_k0.7_s1", "run_stfa_k0.5_s2"):
            record = json.loads((out / name / "run_record.json").read_text())
            assert record["config"]["precision"] == "f64"
            net, _ = harness.load_checkpoint(out / name / "checkpoint.bin")
            assert net.precision == "f64"

    def test_sweep_kappa_precision_reaches_every_run(self, corpus, tmp_path):
        train_dir, test_dir = corpus
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir)))
        out = tmp_path / "sweep"
        assert main(["sweep-kappa", "--config", str(cfg_path), "--kappas", "0.4", "--seeds", "1,2",
                     "--precision", "f64", "--out", str(out)]) == 0
        for name in ("run_bl_k0.4_s1", "run_bl_k0.4_s2"):
            record = json.loads((out / name / "run_record.json").read_text())
            assert record["config"]["precision"] == "f64"

    @pytest.mark.parametrize("command", [["ablate", "--plan"], ["sweep-kappa", "--config"]])
    def test_seed_flag_rejected_on_grids(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as info:
            main(command + [str(tmp_path / "doc.json"), "--out", str(tmp_path / "o"),
                            "--seed", "99"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_built_once_per_cell(self, corpus, tmp_path, monkeypatch):
        train_dir, test_dir = corpus
        calls = []
        monkeypatch.setattr(harness, "config_from_dict",
                            lambda doc: calls.append(doc) or config_from_dict(doc))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"base_config": config_doc(train_dir, test_dir),
                                         "variants": ["bl", "ctfa"], "seeds": [1]}))
        assert main(["ablate", "--plan", str(plan_path), "--out", str(tmp_path / "a")]) == 0
        assert [(doc["variant"], doc["seed"]) for doc in calls] == [("bl", 1), ("ctfa", 1)]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir)))
        calls.clear()
        assert main(["sweep-kappa", "--config", str(cfg_path), "--kappas", "0.4,0.6",
                     "--seeds", "1", "--out", str(tmp_path / "s")]) == 0
        assert [doc["lif"]["kappa"] for doc in calls] == [0.4, 0.6]

    @pytest.mark.parametrize("kappas, seeds, name", [
        ("0.3,0.3000001", "1", "run_sctfa_k0.3_s1"),
        ("0.3", "1,1", "run_sctfa_k0.3_s1"),
    ])
    @pytest.mark.parametrize("extra", [[], ["--force"], ["--threads", "2"]])
    def test_shared_run_directory_fails_before_any_run(self, corpus, tmp_path, capsys, kappas,
                                                        seeds, name, extra):
        train_dir, test_dir = corpus
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir, variant="sctfa")))
        out = tmp_path / "sweep"
        assert main(["sweep-kappa", "--config", str(cfg_path), "--kappas", kappas,
                     "--seeds", seeds, "--out", str(out)] + extra) == 2
        assert f"would both write {name}" in capsys.readouterr().err
        assert not out.exists()

    def test_shared_run_directory_in_a_plan_fails_before_any_run(self, corpus, tmp_path, capsys):
        train_dir, test_dir = corpus
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"base_config": config_doc(train_dir, test_dir),
                                         "cells": [["bl", 0.5, 1], ["bl", 0.50000001, 1]]}))
        out = tmp_path / "ablate"
        assert main(["ablate", "--plan", str(plan_path), "--out", str(out)]) == 2
        assert "would both write run_bl_k0.5_s1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"reducton": 2}, "error: reducton: unknown field"),
        ({"lif": 5}, "error: lif: expected dict, got int"),
        ({"variant": "bogus"}, "error: variant: unknown variant 'bogus'"),
    ])
    def test_sweep_kappa_config_error_names_its_field(self, tmp_path, capsys, change, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc("x", "y", **change)))
        assert main(["sweep-kappa", "--config", str(cfg_path), "--kappas", "0.4",
                     "--seeds", "1", "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "s").exists()


class TestReductionRatio:
    """A reduction ratio that does not divide a channel-gated layer's
    channels fails when the config is built, so before any run."""

    BAD = dict(arch=harness.ARCH_PRESETS["synth_bar"], reduction=3)

    def test_ablate_fails_before_any_run_directory(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"base_config": config_doc("x", "y", **self.BAD),
                                         "variants": ["bl", "sctfa"], "seeds": [1]}))
        out = tmp_path / "ablate"
        assert main(["ablate", "--plan", str(plan_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: base_config.reduction: token 1: ")
        assert not out.exists()

    def test_sweep_kappa_fails_before_any_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc("x", "y", variant="sctfa", **self.BAD)))
        out = tmp_path / "sweep"
        assert main(["sweep-kappa", "--config", str(cfg_path), "--kappas", "0.4", "--seeds", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: reduction: ")
        assert not out.exists()

    def test_complexity_fails_before_printing_counts(self, capsys):
        argv = ["complexity", "--arch", "synth_bar", "--variant", "sctfa", "--reduction", "3",
                "--no-timing"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "reduction ratio 3 must divide the 8 channels of '8C3'" in captured.err
        assert captured.out == ""
        argv[argv.index("sctfa")] = "stfa"  # no channel branch, so no ratio to divide
        assert main(argv) == 0


class TestWorkerPool:
    def test_threaded_plan_matches_sequential(self, corpus, tmp_path):
        train_dir, test_dir = corpus
        from spikefuse.harness import run_plan

        configs = plan_from_dict(
            {"base_config": config_doc(train_dir, test_dir), "variants": ["bl", "stfa"],
             "seeds": [1]}
        )
        seq = run_plan(configs, tmp_path / "seq", threads=1)
        par = run_plan(configs, tmp_path / "par", threads=2)
        for a, b in zip(seq, par):
            assert a["best_acc"] == b["best_acc"]
        rec_a = (tmp_path / "seq" / "run_bl_k0.7_s1" / "run_record.json").read_bytes()
        rec_b = (tmp_path / "par" / "run_bl_k0.7_s1" / "run_record.json").read_bytes()
        assert rec_a == rec_b


class TestSweepKappa:
    def test_csv_columns_and_rows(self, corpus, tmp_path):
        train_dir, test_dir = corpus
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir, variant="sctfa")))
        out = tmp_path / "sweep"
        rc = main([
            "sweep-kappa", "--config", str(cfg_path), "--kappas", "0.4,0.7",
            "--seeds", "1", "--out", str(out),
        ])
        assert rc == 0
        with open(out / "table.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["kappa", "trials", "mean_acc", "std_acc", "best_acc", "status", "variant"]
        assert [r[0] for r in rows] == ["0.4", "0.7"]
        assert all(r[5:] == ["complete", "sctfa"] for r in rows)
        assert sorted(p.name for p in out.iterdir() if p.is_file()) == ["table.csv"]

    def test_diverged_run_marks_its_kappa_incomplete(self, corpus, tmp_path, monkeypatch):
        # binary spikes keep the loss finite, so stub it to go non-finite in one run
        train_dir, test_dir = corpus
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir)))
        real_train, real_loss, diverging = harness.train, training.mse_vote_loss, [False]

        def train(cfg, *args):
            diverging[0] = (cfg.lif.kappa, cfg.seed) == (0.4, 1)
            return real_train(cfg, *args)

        monkeypatch.setattr(harness, "train", train)
        monkeypatch.setattr("spikefuse.training.mse_vote_loss",
                            lambda o, y: Tensor(np.array(np.nan)) if diverging[0] else real_loss(o, y))
        out = tmp_path / "sweep"
        assert main(["sweep-kappa", "--config", str(cfg_path), "--kappas", "0.4,0.7",
                     "--seeds", "1,2", "--out", str(out)]) == 1
        with open(out / "table.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["kappa"], r["trials"], r["status"]) for r in rows] == [
            ("0.4", "1", "incomplete"), ("0.7", "2", "complete")]

    def test_kappa_outside_range_rejected(self, corpus, tmp_path, capsys):
        train_dir, test_dir = corpus
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir)))
        rc = main([
            "sweep-kappa", "--config", str(cfg_path), "--kappas", "0.5,1.4",
            "--seeds", "1", "--out", str(tmp_path / "s"),
        ])
        assert rc == 2
        assert "error: --kappas: kappa must be in [0, 1], got 1.4" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestCliFailsClosed:
    @pytest.mark.parametrize("flag, value, token", [
        ("--kappas", "0.3,abc", "'abc'"),
        ("--seeds", "1,x", "'x'"),
    ])
    def test_sweep_kappa_bad_token_names_flag(self, corpus, tmp_path, capsys, flag, value, token):
        train_dir, test_dir = corpus
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir)))
        argv = ["sweep-kappa", "--config", str(cfg_path), "--kappas", "0.5",
                "--seeds", "1", "--out", str(tmp_path / "s")]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and token in err
        assert not (tmp_path / "s").exists()  # rejected before any run

    @pytest.mark.parametrize("command, flag", [
        ("train", "--config"), ("ablate", "--plan"), ("sweep-kappa", "--config"),
    ])
    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                             ids=["missing", "malformed", "not-an-object"])
    def test_unreadable_config_names_path(self, tmp_path, capsys, command, flag, content):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_text(content)
        assert main([command, flag, str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert flag in err and str(path) in err

    def test_failing_table_writer_leaves_no_partial_table(self, tmp_path):
        from spikefuse.harness import ReportRow, _write_table

        table = tmp_path / "table.csv"
        table.write_text("old\n")
        rows = [
            ReportRow({"variant": "bl"}, 1, 0.5, None, 0.5, "complete"),
            ReportRow({}, 1, 0.5, None, 0.5, "complete"),  # fails after a row is written
        ]
        with pytest.raises(KeyError):
            _write_table(table, rows, ["variant"], {"master_seed": 1})
        assert table.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


@pytest.fixture(scope="module")
def run_dir(corpus, tmp_path_factory):
    train_dir, test_dir = corpus
    tmp = tmp_path_factory.mktemp("rb")
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc(train_dir, test_dir, epochs=2)))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "runs")]) == 0
    return tmp / "runs" / "run_seed5_bl"


class TestRobustnessCommand:

    def test_zero_levels_match_clean(self, corpus, run_dir, tmp_path):
        _, test_dir = corpus
        out = tmp_path / "rb"
        rc = main([
            "robustness", "--checkpoint", str(run_dir / "checkpoint.bin"),
            "--data", str(test_dir), "--noise", "0,1.0",
            "--event-loss", "0", "--frame-loss", "0",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        with open(out / "robustness.csv") as fh:
            rows = list(csv.DictReader(fh))
        clean = [r for r in rows if r["kind"] == "clean"][0]
        for kind in ("poisson_noise", "event_loss", "frame_loss"):
            level0 = [r for r in rows if r["kind"] == kind and float(r["level"]) == 0.0
                      and r["metric"] == "accuracy"][0]
            assert level0["value"] == clean["value"]
        dist0 = [r for r in rows if r["kind"] == "poisson_noise" and float(r["level"]) == 0.0
                 and r["metric"] == "activation_distance"][0]
        assert float(dist0["value"]) == 0.0

    @pytest.mark.parametrize("flag,value,token", [
        ("--noise", "0.1,abc", "'abc'"),
        ("--frame-loss", ",", "''"),
        ("--noise", "nan", "'nan'"),
        ("--noise", "inf", "'inf'"),
        ("--event-loss", "0.2,1.5", "'1.5'"),
        ("--noise", "1e20", "'1e20'"),  # numpy cannot draw Poisson counts at this rate
        ("--noise", "0.5,1e300", "'1e300'"),
    ])
    def test_bad_level_fails_before_loading(self, tmp_path, capsys, flag, value, token):
        # neither the checkpoint nor the corpus exists: levels are checked first
        rc = main(["robustness", "--checkpoint", str(tmp_path / "none.bin"),
                   "--data", str(tmp_path / "none"), flag, value,
                   "--out", str(tmp_path / "rb")])
        assert rc == 2
        assert f"error: {flag}: bad level {token}" in capsys.readouterr().err
        assert not (tmp_path / "rb").exists()

    def test_failed_csv_write_keeps_previous_file(self, corpus, run_dir, tmp_path,
                                                  monkeypatch):
        _, test_dir = corpus
        argv = ["robustness", "--checkpoint", str(run_dir / "checkpoint.bin"),
                "--data", str(test_dir), "--seed", "3", "--out", str(tmp_path / "rb")]
        assert main(argv + ["--noise", "0.5"]) == 0
        before = (tmp_path / "rb" / "robustness.csv").read_bytes()

        real_writer = csv.writer

        class FailingWriter:
            def __init__(self, fh):
                self.writer = real_writer(fh)
                self.rows = 0

            def writerow(self, row):
                self.rows += 1
                if self.rows == 3:
                    raise OSError("disk full")
                self.writer.writerow(row)

        monkeypatch.setattr(harness.csv, "writer", FailingWriter)
        with pytest.raises(OSError, match="disk full"):
            main(argv + ["--noise", "0.5,1.0"])
        assert sorted(p.name for p in (tmp_path / "rb").iterdir()) == ["robustness.csv"]
        assert (tmp_path / "rb" / "robustness.csv").read_bytes() == before

    @pytest.mark.parametrize("binarize", [False, True])
    def test_csv_bytes_equal_for_any_worker_count(self, corpus, run_dir, tmp_path, conv_workers,
                                                  monkeypatch, binarize):
        _, test_dir = corpus
        real_load = harness.load_checkpoint

        def load(path):
            net, config = real_load(path)
            return net, {**config, "binarize": binarize}

        monkeypatch.setattr(harness, "load_checkpoint", load)
        outputs = []
        for workers in (1, 2, 3):
            conv_workers(workers)
            out = tmp_path / f"rb{workers}"
            assert main(["robustness", "--checkpoint", str(run_dir / "checkpoint.bin"),
                         "--data", str(test_dir), "--noise", "0.5,2", "--event-loss", "0.3",
                         "--frame-loss", "0.4", "--seed", "3", "--out", str(out)]) == 0
            outputs.append((out / "robustness.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_csv_bytes_equal_with_numpy_norm_distances(self, corpus, run_dir, tmp_path, monkeypatch):
        # the activation distances as np.linalg.norm of the whole set's
        # traces give the same file, byte for byte
        _, test_dir = corpus
        real_evaluate = training.evaluate_frames

        def norm_oracle(net, dataset, batch_size=32, record_hidden=False, hidden_reference=None):
            if hidden_reference is None:
                return real_evaluate(net, dataset, batch_size, record_hidden)
            acc, conf, hidden = real_evaluate(net, dataset, batch_size, record_hidden=True)
            diff = (hidden_reference - hidden).reshape(hidden.shape[0], hidden.shape[1], -1)
            return acc, conf, np.linalg.norm(diff, axis=2)

        outputs = []
        for evaluate in (real_evaluate, norm_oracle):
            monkeypatch.setattr(training, "evaluate_frames", evaluate)
            out = tmp_path / f"rb{len(outputs)}"
            assert main(["robustness", "--checkpoint", str(run_dir / "checkpoint.bin"),
                         "--data", str(test_dir), "--noise", "0.5,2", "--event-loss", "0.3",
                         "--frame-loss", "0.4", "--seed", "3", "--out", str(out)]) == 0
            outputs.append((out / "robustness.csv").read_bytes())
        assert outputs[0] == outputs[1]
        distances = [row for row in csv.DictReader(outputs[0].decode().splitlines())
                     if row["metric"] == "activation_distance"]
        assert len(distances) == 2 and all(float(row["value"]) > 0 for row in distances)

    @pytest.mark.parametrize("command", [["eval"], ["robustness", "--noise", "0.5"]])
    def test_corpus_of_another_geometry_fails_before_any_forward(self, corpus, tmp_path, capsys,
                                                                command):
        _, test_dir = corpus
        net = build_network({"arch": TINY_ARCH, "variant": "bl", "v_th": 1.0, "kappa": 0.7,
                             "reduction": 4, "timesteps": 5, "input_height": 32, "input_width": 32})
        save_checkpoint(tmp_path / "ck.bin", net)
        rc = main(command + ["--checkpoint", str(tmp_path / "ck.bin"), "--data", str(test_dir)]
                  + (["--out", str(tmp_path / "rb")] if command[0] == "robustness" else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert str(test_dir / "manifest.tsv") in err
        assert "is 16x16 (width x height), but the network takes 32x32" in err
        assert not (tmp_path / "rb").exists()

    @pytest.mark.parametrize("command", [["eval"], ["robustness", "--noise", "0.5"]])
    def test_corpus_label_past_the_classes_fails_before_any_forward(self, corpus, tmp_path, capsys,
                                                                   monkeypatch, command):
        _, test_dir = corpus  # labels 0-3
        net = build_network({"arch": TINY_ARCH.replace("C4P2", "C2P2"), "variant": "bl", "v_th": 1.0,
                             "kappa": 0.7, "reduction": 4, "timesteps": 5, "input_height": 16,
                             "input_width": 16})
        save_checkpoint(tmp_path / "ck.bin", net)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(SpikingNetwork, "forward", no_forward)
        rc = main(command + ["--checkpoint", str(tmp_path / "ck.bin"), "--data", str(test_dir)]
                  + (["--out", str(tmp_path / "rb")] if command[0] == "robustness" else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{test_dir / 'manifest.tsv'}: label 3 is past the 2 classes of {tmp_path / 'ck.bin'}" in err
        assert not (tmp_path / "rb").exists()

    @pytest.mark.parametrize("command", [["eval"], ["robustness", "--noise", "0.5"]])
    @pytest.mark.parametrize("key, value", [
        ("delta_t_ms", "abc"), ("delta_t_ms", None), ("delta_t_ms", True),
        ("delta_t_ms", 0.0), ("delta_t_ms", -5.0), ("delta_t_ms", float("nan")),
        ("delta_t_ms", float("inf")), ("binarize", "no"), ("binarize", 1), ("binarize", None),
    ])
    def test_bad_slicing_key_names_path_and_key(self, corpus, tmp_path, capsys, command, key,
                                                 value):
        _, test_dir = corpus
        net = build_network({"arch": TINY_ARCH, "variant": "bl", "v_th": 1.0, "kappa": 0.7,
                             "reduction": 4, "timesteps": 5, "input_height": 16, "input_width": 16})
        save_checkpoint(tmp_path / "ck.bin", net, extra_config={key: value})
        rc = main(command + ["--checkpoint", str(tmp_path / "ck.bin"), "--data", str(test_dir)]
                  + (["--out", str(tmp_path / "rb")] if command[0] == "robustness" else []))
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'ck.bin'}: config key {key!r} is ")
        assert not (tmp_path / "rb").exists()

    def test_absent_slicing_keys_keep_their_defaults(self, corpus, tmp_path):
        _, test_dir = corpus
        net = build_network({"arch": TINY_ARCH, "variant": "bl", "v_th": 1.0, "kappa": 0.7,
                             "reduction": 4, "timesteps": 5, "input_height": 16, "input_width": 16})
        save_checkpoint(tmp_path / "ck.bin", net, extra_config={"delta_t_ms": 40})
        args = build_parser().parse_args(["eval", "--checkpoint", str(tmp_path / "ck.bin"),
                                          "--data", str(test_dir)])
        assert harness._load_run(args)[2:] == (40.0, 5, False)
        save_checkpoint(tmp_path / "ck.bin", net)
        assert harness._load_run(args)[2:] == (100.0, 5, False)

    def test_eval_command(self, corpus, run_dir, capsys):
        _, test_dir = corpus
        rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                   "--data", str(test_dir)])
        assert rc == 0
        assert "accuracy:" in capsys.readouterr().out


class TestComplexity:
    def test_preset_counts(self, capsys):
        rc = main(["complexity", "--arch", "mnist_dvs", "--variant", "bl",
                   "--timesteps", "20", "--no-timing"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parameters: 4316434" in out
        assert "mult_adds(T=20): 1096273920" in out

    def test_counting_only_arch_without_voting(self, capsys):
        rc = main(["complexity", "--arch", "Input-1C1", "--height", "8", "--width", "8",
                   "--no-timing"])
        assert rc == 0
        assert "parameters: 3" in capsys.readouterr().out

    def test_timing_runs_on_tiny_net(self, capsys):
        rc = main(["complexity", "--arch", TINY_ARCH, "--variant", "sctfa",
                   "--height", "16", "--width", "16", "--timesteps", "5",
                   "--batch", "2"])
        assert rc == 0
        assert "inference_ms_per_batch" in capsys.readouterr().out

    @pytest.mark.parametrize("batch", ["0", "-2"])
    def test_batch_below_one_rejected(self, capsys, batch):
        argv = ["complexity", "--arch", TINY_ARCH, "--height", "16", "--width", "16",
                "--timesteps", "5", "--batch", batch]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: --batch: must be at least 1, got {batch}" in captured.err
        assert "inference_ms_per_batch" not in captured.out
        with pytest.raises(ConfigError) as info:
            harness.cmd_complexity(harness.build_parser().parse_args(argv))
        assert info.value.field == "--batch"

    def test_zero_input_extent_rejected(self, capsys):
        argv = ["complexity", "--arch", "Input-AP2-VotingC2P2-AP", "--height", "0", "--width", "4"]
        assert main(argv) == 2
        assert "H, W >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("arch", ["Input-4C3-AP0-VotingC2P2-AP", "Input-4C3-0FC-VotingC2P2-AP"])
    def test_zero_size_token_rejected(self, capsys, arch):
        assert main(["complexity", "--arch", arch, "--height", "8", "--width", "8"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "token 2" in captured.err
        assert "parameters:" not in captured.out

    def test_attention_delta_closed_form(self, capsys):
        main(["complexity", "--arch", "dvs_gesture", "--variant", "bl", "--no-timing"])
        bl = int(capsys.readouterr().out.splitlines()[0].split(": ")[1])
        main(["complexity", "--arch", "dvs_gesture", "--variant", "sctfa", "--no-timing"])
        sc = int(capsys.readouterr().out.splitlines()[0].split(": ")[1])
        # five conv layers of 128 channels, r=4
        assert sc - bl == 5 * (128 + 1 + 2 * 128 * 128 // 4)
