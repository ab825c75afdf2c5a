"""End-to-end command behavior: config precedence, commands, exit codes."""

import csv
import gzip
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from shiftbnn import cli, data
from shiftbnn.grng import read_epsilon_log
from shiftbnn.train import build_bmlp, build_toyconv, load_checkpoint

SYNTH = "synthetic:count=64,classes=4"


def run(argv):
    return cli.main(argv)


def cli_process(*argv, **env):
    """Runs ``python -m shiftbnn.cli argv`` on this package with ``env`` added."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH":
           os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "shiftbnn.cli", *argv], env=env,
                          capture_output=True, text=True)


def idx_dir(root, train_count, test_count):
    """An IDX directory of 28x28 images with the given split sizes."""
    rng = np.random.default_rng(0)
    for split, count in (("train", train_count), ("test", test_count)):
        images, labels = cli._IDX_NAMES[split]
        data.write_idx_images(root / images, rng.random((count, 28, 28)))
        data.write_idx_labels(root / labels, rng.integers(0, 10, count))
    return root


def bad_label(root, split):
    """Give one example of ``split`` label 255, the largest IDX label."""
    labels = np.arange(8) % 10
    labels[3] = 255
    data.write_idx_labels(root / cli._IDX_NAMES[split][1], labels)


class TestConfigResolution:
    def test_defaults_apply(self):
        args = cli.build_parser().parse_args(["train"])
        settings = cli.resolve(args)
        assert settings["strategy"] == "shift"
        assert settings["samples"] == 8

    def test_flags_override_config_override_defaults(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("samples = 4\nlr = 0.5\nstrategy = store\n")
        args = cli.build_parser().parse_args(
            ["train", "--config", str(conf), "--samples", "2"])
        settings = cli.resolve(args)
        assert settings["samples"] == 2        # flag wins
        assert settings["lr"] == 0.5           # config wins over default
        assert settings["strategy"] == "store"

    def test_config_comments_and_blank_lines(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("# a comment\n\nseed = 9  # trailing\n")
        args = cli.build_parser().parse_args(["train", "--config", str(conf)])
        assert cli.resolve(args)["seed"] == 9

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "c.conf"
        for text in ("turbo = on\n", "threads = 2\n"):
            conf.write_text(text)
            args = cli.build_parser().parse_args(["train", "--config", str(conf)])
            with pytest.raises(cli.ConfigError):
                cli.resolve(args)

    def test_zero_samples_is_config_error(self):
        assert run(["train", "--samples", "0"]) == 2


class _Recording(dict):
    """Settings mapping that notes every key a command reads."""

    def __init__(self, settings):
        super().__init__(settings)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestSettingsTable:
    @pytest.mark.parametrize("command,key,value", [
        ("train", "batch", "-1"),
        ("train", "batch", "0"),
        ("train", "limit", "0"),
        ("train", "limit", "-3"),
        ("train", "lr", "-1"),
        ("train", "lr", "inf"),
        ("train", "kl_scale", "inf"),
        ("train", "epochs", "0"),
        ("train", "strategy", "log"),
        ("verify-equivalence", "steps", "-2"),
        ("verify-equivalence", "batch", "-4"),
        ("rng-selftest", "seed", "-1"),
        ("train", "dataset", "synthetic:count=0"),
        ("train", "dataset", "synthetic:count=-4"),
        ("train", "dataset", "synthetic:count=x"),
        ("train", "dataset", "synthetic:classes=0"),
    ])
    def test_out_of_range_exits_2(self, tmp_path, monkeypatch, capsys,
                                  command, key, value):
        monkeypatch.chdir(tmp_path)
        conf = tmp_path / "c.conf"
        conf.write_text(f"{key} = {value}\n")
        flag = key.replace("_", "-")
        for argv in ([command, "--" + flag, value], [command, "--config", str(conf)]):
            assert run(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {flag} must be ")
        assert os.listdir(tmp_path) == ["c.conf"]

    @pytest.mark.parametrize("command,key", [
        ("train", "out"),
        ("train", "report"),
        ("cost-report", "report"),
        ("verify-equivalence", "out"),
    ])
    def test_empty_path_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                command, key):
        # an empty path was skipped by the directory check: train ran every
        # epoch before failing to open it, --report wrote nothing and
        # verify-equivalence wrote the hidden files .store and .shift
        monkeypatch.chdir(tmp_path)
        conf = tmp_path / "c.conf"
        conf.write_text(f"{key} =\n")
        small = {"train": ["--model", "toy-conv", "--dataset", SYNTH, "--samples", "1",
                           "--epochs", "2"],
                 "verify-equivalence": ["--model", "toy-conv", "--dataset", SYNTH,
                                        "--samples", "1", "--steps", "1"],
                 "cost-report": ["--models", "b-mlp", "--samples-list", "8"]}[command]
        for argv in ([command, *small, "--" + key, ""],
                     [command, *small, "--config", str(conf)]):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {key} must be a non-empty path, got ''\n"
        assert os.listdir(tmp_path) == ["c.conf"]

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "toy-conv", "--dataset", SYNTH, "--samples", "1"],
        ["verify-equivalence", "--model", "toy-conv", "--dataset", SYNTH,
         "--samples", "1", "--steps", "1"],
        ["cost-report", "--models", "b-mlp", "--samples-list", "8"],
        ["rng-selftest"],
    ])
    def test_every_accepted_setting_is_read(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        runner = cli.RUNNERS[argv[0]]
        settings = _Recording(cli.resolve(cli.build_parser().parse_args(argv)))
        assert set(settings) == set(cli.COMMANDS[argv[0]])
        assert runner(settings) == 0
        assert settings.read == set(cli.COMMANDS[argv[0]])

    def test_settings_of_other_commands_rejected(self, tmp_path, capsys):
        conf = tmp_path / "c.conf"
        for key in cli.SETTINGS:
            conf.write_text(f"{key} = 1\n")
            for command in [c for c, names in cli.COMMANDS.items() if key not in names]:
                with pytest.raises(SystemExit) as exc:
                    run([command, "--" + key.replace("_", "-"), "1"])
                assert exc.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err
                args = cli.build_parser().parse_args([command, "--config", str(conf)])
                with pytest.raises(cli.ConfigError):
                    cli.resolve(args)


class TestTrain:
    def test_writes_checkpoint_and_log(self, tmp_path):
        out = tmp_path / "m.sbnn"
        log = tmp_path / "train.log"
        code = run(["train", "--model", "b-mlp", "--dataset",
                    "synthetic:count=64,classes=10",
                    "--samples", "2", "--epochs", "2",
                    "--out", str(out), "--report", str(log)])
        assert code == 0
        entries = load_checkpoint(out)
        assert len(entries) == 3
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 2
        epoch, step, loss, acc = lines[0].split(",")
        assert int(epoch) == 1
        assert float(loss) > 0

    def test_epoch_lines_go_to_current_stdout(self, tmp_path, capsys):
        # sys.stdout is looked up when the line is printed, so capsys (or any
        # redirection made after import) sees it
        assert run(["train", "--model", "toy-conv", "--dataset", "synthetic:count=8",
                    "--samples", "1", "--out", str(tmp_path / "m.sbnn")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("1,1,")

    def test_nonfinite_loss_exits_3_and_writes_no_checkpoint(self, tmp_path):
        # a subprocess, so numpy's overflow warnings stay warnings; no epoch
        # ends, so an existing report keeps its bytes
        report, out = tmp_path / "R", tmp_path / "C"
        report.write_bytes(b"1,8,1.000000,0.5000\n")
        proc = cli_process("train", "--model", "toy-conv", "--dataset", "synthetic:count=32",
                           "--samples", "1", "--lr", "1e30", "--report", str(report),
                           "--out", str(out))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1].startswith(
            "error: non-finite loss nan at epoch 1 step 2 (")
        assert report.read_bytes() == b"1,8,1.000000,0.5000\n"
        assert not out.exists()

    def test_deterministic_given_flags(self, tmp_path):
        outs = []
        for name in ("a.sbnn", "b.sbnn"):
            out = tmp_path / name
            assert run(["train", "--model", "toy-conv", "--dataset", SYNTH,
                        "--samples", "2", "--epochs", "1", "--seed", "3",
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_model(self, tmp_path):
        assert run(["train", "--model", "b-transformer",
                    "--out", str(tmp_path / "x.sbnn")]) == 2

    def test_strategy_flag_does_not_change_checkpoint(self, tmp_path):
        outs = {}
        for strategy in ("store", "shift"):
            out = tmp_path / f"{strategy}.sbnn"
            assert run(["train", "--model", "toy-conv", "--dataset", SYNTH,
                        "--samples", "2", "--epochs", "1", "--seed", "3",
                        "--strategy", strategy, "--out", str(out)]) == 0
            outs[strategy] = out.read_bytes()
        assert outs["store"] == outs["shift"]

    @pytest.mark.parametrize("model", ["b-mlp", "toy-conv", "b-lenet"])
    def test_default_synthetic_takes_model_input_shape(self, tmp_path, model):
        assert run(["train", "--model", model, "--dataset", "synthetic:count=16",
                    "--samples", "2", "--out", str(tmp_path / "m.sbnn")]) == 0

    def test_mismatched_idx_shape_is_named_error(self, tmp_path, capsys):
        root = idx_dir(tmp_path, 8, 8)
        out = tmp_path / "m.sbnn"
        code = run(["train", "--model", "b-lenet", "--dataset", str(root),
                    "--samples", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: b-lenet takes 3x32x32 inputs, got 28x28\n"
        assert not out.exists()

    @pytest.mark.parametrize("option", ["seed=0", "dims=1x10x10"])
    def test_synthetic_takes_only_count_and_classes(self, tmp_path, capsys, option):
        # synthetic examples come from --seed and have the network's input shape
        out = tmp_path / "m.sbnn"
        code = run(["train", "--model", "toy-conv", "--dataset", f"synthetic:{option}",
                    "--samples", "1", "--out", str(out)])
        assert code == 2
        key = option.partition("=")[0]
        assert capsys.readouterr().err == f"error: unknown synthetic option {key!r}\n"
        assert not out.exists()

    def test_directory_named_like_synthetic_is_idx(self, tmp_path, monkeypatch, capsys):
        # only 'synthetic' and 'synthetic:...' name the synthetic set
        monkeypatch.chdir(tmp_path)
        (tmp_path / "synthetic-mnist").mkdir()
        code = run(["train", "--model", "b-mlp", "--dataset", "synthetic-mnist",
                    "--samples", "1", "--out", str(tmp_path / "m.sbnn")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no train-images-idx3-ubyte[.gz] under synthetic-mnist")
        assert not (tmp_path / "m.sbnn").exists()

    def test_synthetic_ignores_a_directory_named_synthetic(self, tmp_path, monkeypatch,
                                                           capsys):
        monkeypatch.chdir(tmp_path)

        def outputs():
            assert run(["train", "--model", "toy-conv", "--dataset", "synthetic",
                        "--samples", "1", "--out", "m.sbnn", "--report", "m.log"]) == 0
            return (capsys.readouterr().out, Path("m.log").read_bytes(),
                    Path("m.sbnn").read_bytes())

        alone = outputs()
        (tmp_path / "synthetic").mkdir()
        assert outputs() == alone
        # the batch default follows the name too: 8, so 64 steps of 512 examples
        assert alone[0].startswith("1,64,")

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_idx_split_is_named_error(self, tmp_path, capsys, empty):
        root = idx_dir(tmp_path, 0 if empty == "train" else 8, 0 if empty == "test" else 8)
        out = tmp_path / "m.sbnn"
        code = run(["train", "--model", "b-mlp", "--dataset", str(root),
                    "--samples", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: dataset {root} has no {empty} examples\n")
        assert not out.exists()

    def test_oversized_idx_claim_exits_2(self, tmp_path, capsys):
        root = idx_dir(tmp_path, 8, 8)
        big = 2 ** 32 - 1
        (root / cli._IDX_NAMES["train"][0]).write_bytes(
            struct.pack(">IIII", data.IDX_IMAGES_MAGIC, big, big, big) + bytes(16))
        out = tmp_path / "m.sbnn"
        code = run(["train", "--model", "b-mlp", "--dataset", str(root),
                    "--samples", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: image data: wanted {big ** 3} bytes, got 16\n")
        assert not out.exists()

    @pytest.mark.parametrize("damage,message", [
        pytest.param("cut", "image data: Compressed file ended before the end-of-stream "
                     "marker was reached", id="cut"),
        pytest.param("deflate", "image header: Error -3 while decompressing data: "
                     "invalid block type", id="deflate"),
        pytest.param("crc", "image file: CRC check failed 0x0 != {crc}", id="crc"),
        pytest.param("magic", "image header: Not a gzipped file (b'\\x00\\x00')",
                     id="magic")])
    def test_damaged_gzip_idx_exits_2(self, tmp_path, capsys, damage, message):
        root = idx_dir(tmp_path, 8, 8)
        plain = root / cli._IDX_NAMES["train"][0]
        crc = hex(zlib.crc32(plain.read_bytes()))
        raw = bytearray(gzip.compress(plain.read_bytes()))
        if damage == "cut":
            raw = raw[:len(raw) // 2]
        elif damage == "deflate":
            raw[10] = 0xFF  # the first deflate byte: an invalid block type
        elif damage == "crc":
            raw[-8:-4] = bytes(4)  # the CRC-32 of the trailer
        else:
            raw[:2] = bytes(2)  # the magic bytes
        plain.unlink()
        plain.with_name(plain.name + ".gz").write_bytes(raw)
        out = tmp_path / "m.sbnn"
        code = run(["train", "--model", "b-mlp", "--dataset", str(root),
                    "--samples", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message.format(crc=crc)}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_label_outside_outputs_is_named_error(self, tmp_path, capsys, split):
        root = idx_dir(tmp_path, 8, 8)
        bad_label(root, split)
        out = tmp_path / "m.sbnn"
        code = run(["train", "--model", "b-mlp", "--dataset", str(root),
                    "--samples", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: dataset {root} has {split} label 255, but b-mlp has 10 outputs\n")
        assert not out.exists()

    def test_synthetic_classes_beyond_outputs_is_named_error(self, tmp_path, capsys):
        out = tmp_path / "m.sbnn"
        code = run(["train", "--model", "toy-conv", "--samples", "1", "--dataset",
                    "synthetic:classes=1000,count=64", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset synthetic:classes=1000,count=64 has train label ")
        assert err.endswith(", but toy-conv has 10 outputs\n")
        assert not out.exists()

    def test_missing_out_directory_exits_2_before_training(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.sbnn"
        code = run(["train", "--model", "toy-conv", "--dataset", SYNTH, "--samples", "1",
                    "--epochs", "2", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: no directory {out.parent}\n"

    def test_out_directory_itself_exits_2_before_training(self, tmp_path, capsys):
        code = run(["train", "--model", "toy-conv", "--dataset", SYNTH, "--samples", "1",
                    "--epochs", "2", "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {tmp_path}: it is a directory\n"

    def test_report_that_is_the_out_file_exits_2_before_training(self, tmp_path, capsys,
                                                                   monkeypatch):
        # "./m.sbnn" and "m.sbnn" name one file; the checkpoint would replace the log
        monkeypatch.chdir(tmp_path)
        code = run(["train", "--model", "toy-conv", "--dataset", SYNTH, "--samples", "1",
                    "--epochs", "2", "--out", "m.sbnn", "--report", "./m.sbnn"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write ./m.sbnn: it is the same file as m.sbnn\n"
        assert list(tmp_path.iterdir()) == []


class TestVerifyEquivalence:
    def test_toy_net_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run(["verify-equivalence", "--model", "toy-conv",
                    "--dataset", SYNTH, "--samples", "2", "--steps", "10",
                    "--out", str(out)])
        assert code == 0
        # only what the flags determine: no time or other measurement
        assert capsys.readouterr().out == (
            "equivalent: 10 steps, 12880 draws, 5215 checkpoint bytes\n")
        n, a = read_epsilon_log(str(out) + ".store.epsl")
        _, b = read_epsilon_log(str(out) + ".shift.epsl")
        assert n == 256
        weights = sum(l.weight_count for _, l in build_toyconv().bayes_layers())
        assert a.size == 10 * 2 * weights
        assert np.array_equal(a, b)

    def test_peak_memory_does_not_grow_with_steps(self, tmp_path, capsys):
        # each step's counts go to the logs before the next step runs, so
        # 8 steps may not peak higher than 2 by one step's counts of one side
        one_step = 2 * sum(l.weight_count for _, l in build_bmlp().bayes_layers()) * 2
        peaks = {}
        tracemalloc.start()
        try:
            for steps in (2, 8):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert run(["verify-equivalence", "--model", "b-mlp", "--samples", "2",
                            "--dataset", "synthetic:count=64", "--steps", str(steps),
                            "--out", str(tmp_path / f"v{steps}")]) == 0
                peaks[steps] = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peaks[8] - peaks[2] < one_step, peaks

    def test_unknown_model(self, tmp_path, capsys):
        assert run(["verify-equivalence", "--model", "b-foo",
                    "--out", str(tmp_path / "v")]) == 2
        assert capsys.readouterr().err.startswith("error: unknown model 'b-foo'")

    def test_empty_idx_train_split_is_named_error(self, tmp_path, capsys):
        root = idx_dir(tmp_path, 0, 8)
        out = tmp_path / "v"
        code = run(["verify-equivalence", "--model", "b-mlp", "--dataset", str(root),
                    "--samples", "1", "--steps", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: dataset {root} has no train examples\n"
        assert not (tmp_path / "v.store").exists()

    def test_label_outside_outputs_is_named_error(self, tmp_path, capsys):
        root = idx_dir(tmp_path, 8, 8)
        bad_label(root, "train")
        out = tmp_path / "v"
        code = run(["verify-equivalence", "--model", "b-mlp", "--dataset", str(root),
                    "--samples", "1", "--steps", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: dataset {root} has train label 255, but b-mlp has 10 outputs\n")
        assert not (tmp_path / "v.store").exists()

    def test_checkpoint_path_that_is_a_directory_exits_2_before_any_step(self, tmp_path,
                                                                          capsys):
        out = tmp_path / "v"
        (tmp_path / "v.store").mkdir()
        code = run(["verify-equivalence", "--model", "toy-conv", "--dataset", SYNTH,
                    "--samples", "2", "--steps", "2", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}.store: it is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.store"]

    CORRUPT_DIVERGENCE = ("epsilon divergence at step 0, sample 0, layer 3, draw 20: "
                          "generated count 92 vs retrieved 91\n")

    def test_corrupted_taps_detected(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run(["verify-equivalence", "--model", "toy-conv",
                    "--dataset", SYNTH, "--samples", "2", "--steps", "3",
                    "--out", str(out), "--corrupt-second-pass"])
        assert code == 1
        assert self.CORRUPT_DIVERGENCE in capsys.readouterr().out

    def test_corrupted_taps_from_config_detected(self, tmp_path, capsys):
        conf = tmp_path / "v.conf"
        conf.write_text("corrupt_second_pass = true\n")
        code = run(["verify-equivalence", "--config", str(conf), "--model", "toy-conv",
                    "--dataset", SYNTH, "--samples", "2", "--steps", "3",
                    "--out", str(tmp_path / "v")])
        assert code == 1
        assert self.CORRUPT_DIVERGENCE in capsys.readouterr().out

    def test_switch_flag_false_overrides_config(self, tmp_path, capsys):
        conf = tmp_path / "v.conf"
        conf.write_text("corrupt_second_pass = true\n")
        code = run(["verify-equivalence", "--model", "toy-conv", "--dataset", SYNTH,
                    "--samples", "1", "--steps", "1", "--config", str(conf),
                    "--corrupt-second-pass", "false", "--out", str(tmp_path / "v")])
        assert code == 0
        assert capsys.readouterr().out.startswith("equivalent: ")


class TestCostReport:
    def test_csv_written_and_parses(self, tmp_path, capsys):
        report = tmp_path / "r.csv"
        code = run(["cost-report", "--models", "b-mlp,b-lenet",
                    "--samples-list", "8,16", "--report", str(report)])
        assert code == 0
        with open(report, newline="") as f:
            rows = list(csv.DictReader(f))
        shift_rows = [r for r in rows if r["strategy"] == "shift"]
        assert shift_rows and all(r["eps_bytes"] == "0" for r in shift_rows)
        summary = capsys.readouterr().out
        assert "eps_share" in summary

    def test_unknown_model(self, tmp_path, capsys):
        report = tmp_path / "r.csv"
        assert run(["cost-report", "--models", "b-mlp,b-foo",
                    "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown model 'b-foo'")
        assert captured.out == "" and not report.exists()

    def test_missing_report_directory_exits_2_before_any_summary(self, tmp_path, capsys):
        report = tmp_path / "missing" / "r.csv"
        assert run(["cost-report", "--models", "b-mlp", "--samples-list", "8",
                    "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {report}: no directory {report.parent}\n"

    def test_report_directory_itself_exits_2_before_any_summary(self, tmp_path, capsys):
        assert run(["cost-report", "--models", "b-mlp", "--samples-list", "8",
                    "--report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {tmp_path}: it is a directory\n"

    @pytest.mark.parametrize("samples", ["8,x", "0"])
    def test_bad_samples_list(self, capsys, samples):
        assert run(["cost-report", "--models", "b-mlp",
                    "--samples-list", samples]) == 2
        assert capsys.readouterr().err.startswith("error: samples-list")

    def test_eps_share_monotone_per_model(self, capsys):
        code = run(["cost-report", "--models", "b-alexnet",
                    "--samples-list", "8,16,32,64,128"])
        assert code == 0
        shares = [float(line.split("eps_share=")[1].split()[0])
                  for line in capsys.readouterr().out.splitlines()
                  if "eps_share=" in line]
        assert shares == sorted(shares)

    def test_lenet_ratio_with_double_read(self, capsys):
        # the fused-read default yields ~3.5x for this model; counting the
        # noise read in both consuming stages clears the published bound
        code = run(["cost-report", "--models", "b-lenet",
                    "--samples-list", "16", "--eps-double-read"])
        assert code == 0
        out = capsys.readouterr().out
        ratio = float(out.split("traffic_ratio=")[1].split()[0])
        assert ratio >= 4.0

    def test_switch_flag_false_is_the_default(self, tmp_path, capsys):
        outputs = []
        for name, extra in (("a.csv", []), ("b.csv", ["--eps-double-read", "false"])):
            report = tmp_path / name
            assert run(["cost-report", "--models", "b-mlp", "--samples-list", "8",
                        "--report", str(report), *extra]) == 0
            outputs.append((capsys.readouterr().out, report.read_bytes()))
        assert outputs[0] == outputs[1]


class TestRngSelftest:
    def test_passes(self, capsys):
        assert run(["rng-selftest"]) == 0
        round_trip, moments = capsys.readouterr().out.splitlines()
        assert round_trip == "reverse round trip: ok"
        assert moments.startswith("moments: ") and moments.endswith(" ok")

    @pytest.mark.xfail(strict=True, reason=(
        "seeds 12, 16, 22, 25, 26, 27, 36 and 39 fail: neighbouring draws share "
        "255 of 256 bits; ROADMAP item 2b's stride d decorrelates them"))
    def test_moments_hold_for_seeds_0_to_39(self):
        assert [seed for seed in range(40) if not cli.selftest_moments(seed)[2]] == []


class TestBlasThreads:
    def test_checkpoint_does_not_depend_on_openblas_threads(self, tmp_path):
        """``main`` runs OpenBLAS on one thread, so b-mlp's fc1 matmul sums
        in one order whatever ``OPENBLAS_NUM_THREADS`` asks for; unpinned,
        one step already writes other bytes with 2 threads.  On a 1-core
        host both runs use one thread, and the test cannot tell them apart."""
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"{threads}.sbnn"
            cli_process("train", "--model", "b-mlp", "--dataset", "synthetic", "--seed", "3",
                        "--limit", "8", "--out", str(out),
                        OPENBLAS_NUM_THREADS=threads).check_returncode()
            written.append(out.read_bytes())
        assert written[0] == written[1]
