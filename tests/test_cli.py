"""Subcommand behavior, exit codes, and the config guard rails."""

import csv
import json
import os

import numpy as np
import pytest

from tecnet.attention import ACAM, WindowAttention, count_actual_macs
from tecnet.cli import main
from tecnet.model import N_STAGES, TecNet, count_flops, count_params, nano_config
from tecnet.synth import read_pgm, write_pgm
from tecnet.tensorio import load_checkpoint


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One shared dataset + one-step training run for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "nano.json"
    blob = {
        "model": nano_config().to_dict(),
        "train": {"total_epochs": 1, "batch_size": 2, "lr": 1e-3, "delta": 1.0,
                  "plateau_patience": 10, "plateau_factor": 0.5, "seed": 0},
    }
    cfg_path.write_text(json.dumps(blob))
    data = root / "data"
    assert main(["gen", "--out", str(data), "--count", "4", "--seed", "1"]) == 0
    run = root / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data),
                 "--out", str(run), "--steps", "1"]) == 0
    return {"root": root, "config": cfg_path, "data": data, "run": run}


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["gen", "--out", "/tmp/x", "--frogs", "3"])
    assert e.value.code != 0


def test_gen_writes_dataset(workdir):
    names = sorted(os.listdir(workdir["data"]))
    assert names[0] == "img_0000.pgm"
    assert len(names) == 8


def test_train_writes_loadable_checkpoint(workdir):
    ckpt = workdir["run"] / "checkpoint.tect"
    assert ckpt.exists()
    arrays, manifest = load_checkpoint(str(ckpt))
    assert manifest["config"]["name"] == "nano"
    assert len(arrays) > 100
    # every tensor in the manifest is readable and shaped as recorded
    for entry in manifest["tensors"]:
        assert list(arrays[entry["name"]].shape) == entry["shape"]
    with open(workdir["run"] / "loss_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1


def test_eval_writes_masks_and_metrics(workdir):
    out = workdir["root"] / "eval"
    rc = main(["eval", "--checkpoint", str(workdir["run"] / "checkpoint.tect"),
               "--config", str(workdir["config"]),
               "--data", str(workdir["data"]), "--out", str(out)])
    assert rc == 0
    masks = sorted(p for p in os.listdir(out) if p.startswith("pred_"))
    assert masks == [f"pred_{i:04d}.pgm" for i in range(4)]
    m = read_pgm(out / masks[0])
    assert set(np.unique(m)) <= {0, 255}
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert list(rows[0].keys())[:4] == ["sample_id", "DI", "JA", "SE"]


def test_eval_rejects_mismatched_config(workdir, capsys, tmp_path):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"model": nano_config(base_width=32).to_dict()}))
    rc = main(["eval", "--checkpoint", str(workdir["run"] / "checkpoint.tect"),
               "--config", str(other),
               "--data", str(workdir["data"]), "--out", str(tmp_path / "o")])
    assert rc != 0
    assert "hash" in capsys.readouterr().err


def _damage_manifest(kind: str, manifest: dict):
    """A structurally broken variant of a saved checkpoint's manifest."""
    entry = manifest["tensors"][0]
    if kind == "not_object":
        return []
    if kind == "empty_object":
        return {}
    if kind == "no_config":
        manifest.pop("config")
    elif kind == "config_not_object":
        manifest["config"] = "nano"
    elif kind == "tensors_not_list":
        manifest["tensors"] = {}
    elif kind == "entry_without_shape":
        entry.pop("shape")
    elif kind == "shape_not_ints":
        entry["shape"] = [str(d) for d in entry["shape"]]
    elif kind == "negative_offset":
        entry["offset"] = -4
    return manifest


@pytest.mark.parametrize("damage", [
    "record_header", "manifest", "not_object", "empty_object", "no_config",
    "config_not_object", "tensors_not_list", "entry_without_shape", "shape_not_ints",
    "negative_offset"])
def test_eval_rejects_corrupt_checkpoint(workdir, capsys, tmp_path, damage):
    ckpt = tmp_path / "checkpoint.tect"
    manifest = tmp_path / "checkpoint.tect.json"
    blob = (workdir["run"] / "checkpoint.tect").read_bytes()
    text = (workdir["run"] / "checkpoint.tect.json").read_text()
    if damage == "record_header":   # cut after the last record's magic and 2 bytes of ndim
        blob = blob[:json.loads(text)["tensors"][-1]["offset"] + 6]
    elif damage == "manifest":
        text = text[: len(text) // 2]
    else:
        text = json.dumps(_damage_manifest(damage, json.loads(text)))
    ckpt.write_bytes(blob)
    manifest.write_text(text)
    rc = main(["eval", "--checkpoint", str(ckpt), "--config", str(workdir["config"]),
               "--data", str(workdir["data"]), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(ckpt) in err
    # dump-features reads the checkpoint without a config to check it against
    rc = main(["dump-features", "--checkpoint", str(ckpt), "--data", str(workdir["data"]),
               "--out", str(tmp_path / "f")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(ckpt) in err


@pytest.mark.parametrize("mismatch", ["mask", "image"])
def test_train_rejects_mixed_size_dataset(workdir, capsys, tmp_path, mismatch):
    data = tmp_path / "data"
    data.mkdir()
    for i, (img, msk) in enumerate([(64, 64), (64, 32) if mismatch == "mask" else (32, 32)]):
        write_pgm(data / f"img_{i:04d}.pgm", np.zeros((img, img), np.uint8))
        write_pgm(data / f"msk_{i:04d}.pgm", np.zeros((msk, msk), np.uint8))
    rc = main(["train", "--config", str(workdir["config"]), "--data", str(data),
               "--out", str(tmp_path / "r"), "--steps", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "_0001.pgm" in err


def test_accounting_builds_no_attention_layers(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("accounting built an attention layer")

    monkeypatch.setattr(ACAM, "__init__", refuse)
    monkeypatch.setattr(WindowAttention, "__init__", refuse)
    for cfg in (nano_config(), nano_config(shared_kv=True), nano_config(use_acam=False)):
        assert count_params(cfg)["total"] > 0
        assert count_flops(cfg, 2 * cfg.input_size)["total"] > 0
    assert main(["analyze", "--preset", "nano", "--mac-report", str(tmp_path / "m.csv")]) == 0
    with open(tmp_path / "m.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 7 * N_STAGES


def test_malformed_config_reports_position(tmp_path, capsys, workdir):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "model": {broken\n}')
    rc = main(["train", "--config", str(bad), "--data", str(workdir["data"]),
               "--out", str(tmp_path / "r")])
    assert rc != 0
    err = capsys.readouterr().err
    assert f"{bad}:2:" in err  # file:line anchored


def test_config_missing_train_keys_rejected(tmp_path, capsys, workdir):
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({
        "model": nano_config().to_dict(),
        "train": {"total_epochs": 1, "lr": 1e-3},
    }))
    rc = main(["train", "--config", str(partial), "--data", str(workdir["data"]),
               "--out", str(tmp_path / "r")])
    assert rc != 0
    assert "missing" in capsys.readouterr().err


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
    main(["gen", "--out", str(d1), "--count", "1", "--seed", "1"])
    monkeypatch.setenv("TECNET_SEED", "2")
    main(["gen", "--out", str(d2), "--count", "1", "--seed", "1"])
    monkeypatch.delenv("TECNET_SEED")
    main(["gen", "--out", str(d3), "--count", "1", "--seed", "2"])
    img = lambda d: (d / "img_0000.pgm").read_bytes()
    assert img(d1) != img(d2)  # env var won over the flag
    assert img(d2) == img(d3)  # and meant seed 2


def test_analyze_preset_deterministic(capsys):
    assert main(["analyze", "--preset", "nano"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--preset", "nano"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "total" in first
    assert "2,989,491" in first


@pytest.mark.parametrize("size", [None, 128], ids=["native", "128"])
def test_analyze_mac_report(tmp_path, capsys, size):
    report = tmp_path / "macs.csv"
    argv = ["analyze", "--preset", "nano", "--mac-report", str(report)]
    if size is not None:
        argv += ["--input-size", str(size)]
    assert main(argv) == 0
    cfg = nano_config() if size is None else nano_config(input_size=size)
    # every table reads the sized config: the attention table's grid column too
    out = capsys.readouterr().out
    assert f"(input {cfg.input_size}x{cfg.input_size})" in out
    table = out.split("attention cost per stage")[1].splitlines()[2:2 + N_STAGES]
    assert [int(line.split()[1]) for line in table] == [cfg.stage_grid(i) for i in range(N_STAGES)]
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["module"].startswith("acam")
    assert {"module", "branch", "formula_macs", "actual_macs"} == set(rows[0])
    # the report describes the attention layers nano holds: 4x4 windows at
    # every stage, the 2x2 bottleneck grid included (it is padded, not shrunk)
    assert all("M=4" in r["module"] for r in rows)
    totals = [int(r["actual_macs"]) for r in rows if r["branch"] == "total"]
    model = TecNet(cfg)
    want = []
    for i in range(N_STAGES):
        g = cfg.stage_grid(i)
        layer_rows = count_actual_macs(model.trans_stages[i].blocks[0].attn, g, g)
        want.append(next(r["actual_macs"] for r in layer_rows if r["branch"] == "total"))
    assert totals == want


@pytest.mark.parametrize("size", ["72", "0"])
def test_analyze_rejects_unrunnable_input_size(capsys, size):
    # nano's stage-0 grid must be a positive multiple of 8: 72 px gives 18, 0 px gives 0
    assert main(["analyze", "--preset", "nano", "--input-size", size]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("window", 0), ("window", -1), ("base_width", 0)])
def test_analyze_rejects_non_positive_config(tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {**nano_config().to_dict(), field: value}}))
    assert main(["analyze", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "must be positive" in err


@pytest.mark.parametrize("field,value", [
    ("window", "4"), ("window", True), ("base_width", 16.0), ("n_kernels", 2.5),
    ("layer_numbers", [1, 1, "2", 1, "2", 1, 1]), ("use_acam", 1), ("shared_kv", "no"),
    ("num_classes", 0), ("num_classes", -1)])
def test_analyze_rejects_mistyped_config(tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {**nano_config().to_dict(), field: value}}))
    assert main(["analyze", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"config field {field} " in err


def test_dump_features_writes_stage_maps(workdir):
    out = workdir["root"] / "features"
    rc = main(["dump-features",
               "--checkpoint", str(workdir["run"] / "checkpoint.tect"),
               "--data", str(workdir["data"]), "--index", "0",
               "--out", str(out)])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert len(names) == 14  # 7 stages x 2 branches
    assert "cnn_stage0.pgm" in names and "trans_stage6.pgm" in names
    m = read_pgm(out / "cnn_stage0.pgm")
    assert m.shape == (16, 16)


def test_dump_features_index_out_of_range(workdir, capsys):
    rc = main(["dump-features",
               "--checkpoint", str(workdir["run"] / "checkpoint.tect"),
               "--data", str(workdir["data"]), "--index", "99",
               "--out", str(workdir["root"] / "f2")])
    assert rc != 0


def test_missing_file_reports_cleanly(capsys):
    rc = main(["analyze", "--config", "/nonexistent/cfg.json"])
    assert rc != 0
    assert "cfg.json" in capsys.readouterr().err
