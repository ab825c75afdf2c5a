"""End-to-end command behavior: config precedence, commands, exit codes."""

import os
import struct

import numpy as np
import pytest

from shiftbnn import cli, data
from shiftbnn.costmodel import read_csv
from shiftbnn.grng import read_epsilon_log
from shiftbnn.train import load_checkpoint

SYNTH = "synthetic:count=64,dims=10x10,classes=4"


def run(argv):
    return cli.main(argv)


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
        ("train", "epochs", "0"),
        ("train", "strategy", "log"),
        ("verify-equivalence", "steps", "-2"),
        ("verify-equivalence", "batch", "-4"),
        ("rng-selftest", "seed", "-1"),
        ("train", "dataset", "synthetic:count=0"),
        ("train", "dataset", "synthetic:count=-4"),
        ("train", "dataset", "synthetic:count=x"),
        ("train", "dataset", "synthetic:classes=0"),
        ("train", "dataset", "synthetic:seed=-1"),
        ("train", "dataset", "synthetic:dims=1x10x"),
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

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "toy-conv", "--dataset", SYNTH, "--samples", "1"],
        ["verify-equivalence", "--model", "toy-conv", "--dataset", SYNTH,
         "--samples", "1", "--steps", "1"],
        ["cost-report", "--models", "b-mlp", "--samples-list", "8"],
        ["rng-selftest"],
    ])
    def test_every_accepted_setting_is_read(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        runner = {"train": cli.run_train,
                  "verify-equivalence": cli.run_verify_equivalence,
                  "cost-report": cli.run_cost_report,
                  "rng-selftest": cli.run_rng_selftest}[argv[0]]
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
                    "synthetic:count=64,dims=28x28,classes=10",
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

    def test_mismatched_synthetic_dims_is_named_error(self, tmp_path, capsys):
        code = run(["train", "--model", "b-lenet", "--dataset",
                    "synthetic:count=16,dims=8x8", "--samples", "2",
                    "--out", str(tmp_path / "m.sbnn")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "3x32x32" in err and "8x8" in err

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


class TestVerifyEquivalence:
    def test_toy_net_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run(["verify-equivalence", "--model", "toy-conv",
                    "--dataset", SYNTH, "--samples", "2", "--steps", "10",
                    "--out", str(out)])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out
        n, a = read_epsilon_log(str(out) + ".store.epsl")
        _, b = read_epsilon_log(str(out) + ".shift.epsl")
        assert n == 256
        assert np.array_equal(a, b)

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

    def test_corrupted_taps_detected(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run(["verify-equivalence", "--model", "toy-conv",
                    "--dataset", SYNTH, "--samples", "2", "--steps", "3",
                    "--out", str(out), "--corrupt-second-pass"])
        assert code == 1
        assert "divergence" in capsys.readouterr().out


class TestCostReport:
    def test_csv_written_and_parses(self, tmp_path, capsys):
        report = tmp_path / "r.csv"
        code = run(["cost-report", "--models", "b-mlp,b-lenet",
                    "--samples-list", "8,16", "--report", str(report)])
        assert code == 0
        rows = read_csv(report)
        shift_rows = [r for r in rows if r["strategy"] == "shift"]
        assert shift_rows and all(r["eps_bytes"] == 0 for r in shift_rows)
        summary = capsys.readouterr().out
        assert "eps_share" in summary

    def test_unknown_model(self, tmp_path, capsys):
        report = tmp_path / "r.csv"
        assert run(["cost-report", "--models", "b-mlp,b-foo",
                    "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown model 'b-foo'")
        assert captured.out == "" and not report.exists()

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


class TestRngSelftest:
    def test_passes(self, capsys):
        assert run(["rng-selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 3
        assert "reverse round trip: ok" in out
