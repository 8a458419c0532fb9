"""Subcommand behavior, exit codes, and the config guard rails."""

import csv
import json
import os
import re
import resource
import shlex
import struct
import warnings
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from tecnet.attention import ACAM, WindowAttention, cost_acam, cost_msa, cost_swmsa
from tecnet.cli import build_parser, main
from tecnet.errors import UsageError
from tecnet.metrics import surface_metrics
from tecnet.model import (N_STAGES, PRESETS, TecNet, attention_rows, count_flops,
                          count_params, nano_config, read_config)
from tecnet.synth import read_pgm, write_pgm
from tecnet.tensorio import load_checkpoint, save_checkpoint
from tecnet.training import TrainSchedule

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One shared dataset + one-step training run for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "nano.json"
    blob = {
        "model": nano_config().to_dict(),
        "train": {"total_epochs": 1, "batch_size": 2, "lr": 1e-3, "seed": 0},
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


@pytest.mark.parametrize("count", [0, -3, 10001])
def test_gen_rejects_count_outside_the_four_digit_ids(tmp_path, capsys, count):
    """Zero or negative counts would write nothing, and a sample id past
    9999 would be skipped by load_dataset: each exits 1 before writing."""
    out = tmp_path / "data"
    out.mkdir()
    assert main(["gen", "--out", str(out), "--count", str(count)]) == 1
    assert "error:" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("flag", [["--noise", "nan"], ["--grad-amp", "inf"]])
def test_gen_rejects_non_finite_image_knobs(tmp_path, capsys, flag):
    """A nan noise level or an infinite gradient amplitude exits 1, naming
    the field, before any image is written."""
    out = tmp_path / "data"
    out.mkdir()
    assert main(["gen", "--out", str(out), "--count", "1", *flag]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and flag[0][2:].replace("-", "_") in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("flag,value,error", [
    ("--seed", "-1", "--seed must be >= 0, got -1"),
    ("--size", "10000000", "size must be in 32..4096, got 10000000")])
def test_gen_rejects_a_negative_seed_or_a_huge_size(capsys, tmp_path, flag, value, error):
    """--seed -1 once let numpy's ValueError escape the CLI, and --size
    10000000 asked numpy for a 90 TiB grid, so a MemoryError did; each exits
    1 before writing.  The address-space cap keeps such a request from
    succeeding through overcommit."""
    out = tmp_path / "data"
    with _address_space_cap():
        rc = main(["gen", "--out", str(out), "--count", "1", flag, value])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("val_flags, key", [([], "train_dice"),
                                            (["--val-count", "1"], "val_dice")])
def test_train_labels_its_dice_by_the_set_it_scores(workdir, capsys, tmp_path, val_flags, key):
    """Without a validation set the final Dice scores the training set and
    says so, in summary.json and on stdout; with one it is the validation Dice."""
    out = tmp_path / "run"
    assert main(["train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                 "--out", str(out), "--steps", "1", *val_flags]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert {"train_dice", "val_dice"} & set(summary) == {key}
    [line] = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith(("train dice:", "val dice:"))]
    label, value = line.split(":")
    assert label == key.replace("_", " ")
    assert float(value) == pytest.approx(summary[key], abs=5e-5)


def test_train_seed_flag_overrides_the_config(workdir, tmp_path):
    """--seed 5 trains as a config whose seed is 5 does, not as the
    config's seed 0."""
    blob = json.loads(workdir["config"].read_text())
    blob["train"]["seed"] = 5
    seeded = tmp_path / "seed5.json"
    seeded.write_text(json.dumps(blob))
    common = ["--data", str(workdir["data"]), "--steps", "1"]
    assert main(["train", "--config", str(workdir["config"]), "--seed", "5",
                 "--out", str(tmp_path / "flag"), *common]) == 0
    assert main(["train", "--config", str(seeded), "--out", str(tmp_path / "cfg"), *common]) == 0
    ckpt = lambda run: (run / "checkpoint.tect").read_bytes()
    assert ckpt(tmp_path / "flag") == ckpt(tmp_path / "cfg")
    assert ckpt(tmp_path / "flag") != ckpt(workdir["run"])


def test_train_prints_a_progress_line_every_log_every_steps(workdir, capsys, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                 "--out", str(out), "--steps", "2", "--log-every", "1"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()
             if line.startswith("step ")]
    with open(out / "loss_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [line[1] for line in lines] == [row["step"] for row in rows] == ["1", "2"]
    assert [float(line[line.index("loss") + 1]) for line in lines] == pytest.approx(
        [float(row["loss_total"]) for row in rows], abs=5e-6)


@pytest.mark.parametrize("count", ["4", "5"])
def test_train_rejects_a_val_count_that_leaves_no_training_set(workdir, capsys, tmp_path, count):
    assert main(["train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                 "--out", str(tmp_path / "r"), "--steps", "1", "--val-count", count]) == 1
    assert capsys.readouterr().err == (
        f"error: --val-count {count} leaves no training samples\n")
    assert not (tmp_path / "r").exists()


def test_train_rejects_val_data_with_val_count(workdir, capsys, tmp_path):
    """--val-count was once ignored without a word when --val-data was given."""
    out = tmp_path / "r"
    assert main(["train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                 "--out", str(out), "--steps", "1", "--val-data", str(workdir["data"]),
                 "--val-count", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--val-data" in err and "--val-count" in err
    assert not out.exists()


RETIRED_CLASSES = ("config field num_classes is retired (the model segments one class); "
                   "it may only be 1, got 2")


@pytest.mark.parametrize("command", ["train", "eval", "analyze"])
def test_masks_of_another_class_count_rejected(workdir, capsys, tmp_path, command):
    """A two-class config once trained with one-channel masks broadcast over
    both classes; the field is retired, so a config naming two classes exits
    1, naming the file and the field, before anything is written."""
    blob = json.loads(workdir["config"].read_text())
    blob["model"]["num_classes"] = 2
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps(blob))
    out = tmp_path / "o"
    if command == "analyze":
        argv = ["--config", str(cfg), "--mac-report", str(out)]
    else:
        argv = ["--config", str(cfg), "--data", str(workdir["data"]), "--out", str(out)]
    if command == "train":
        argv += ["--steps", "1"]
    if command == "eval":
        argv += ["--checkpoint", str(workdir["run"] / "checkpoint.tect")]
    assert main([command] + argv) == 1
    assert capsys.readouterr().err == f"error: {cfg}: model section: {RETIRED_CLASSES}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "dump-features"])
def test_manifest_naming_two_classes_rejected(workdir, capsys, tmp_path, command):
    ckpt = tmp_path / "two.tect"
    model = TecNet(nano_config(), seed=0)
    save_checkpoint(str(ckpt), model.state_arrays(), {**model.cfg.to_dict(), "num_classes": 2})
    out = tmp_path / "o"
    argv = ["--checkpoint", str(ckpt), "--data", str(workdir["data"]), "--out", str(out)]
    if command == "eval":
        argv += ["--config", str(workdir["config"])]
    assert main([command] + argv) == 1
    assert capsys.readouterr().err == f"error: {ckpt}.json: {RETIRED_CLASSES}\n"
    assert not out.exists()


def test_checkpoint_and_config_naming_one_class_still_evaluate(workdir, tmp_path):
    """A config file and a manifest that name the retired num_classes as 1
    and patch as 4, as earlier runs wrote them, score exactly as ones
    without them."""
    retired = {"num_classes": 1, "patch": 4}
    ckpt = workdir["run"] / "checkpoint.tect"
    arrays, manifest = load_checkpoint(str(ckpt))
    old_ckpt = tmp_path / "old.tect"
    save_checkpoint(str(old_ckpt), arrays.items(), {**manifest["config"], **retired})
    blob = json.loads(workdir["config"].read_text())
    blob["model"].update(retired)
    old_cfg = tmp_path / "old.json"
    old_cfg.write_text(json.dumps(blob))
    outs = []
    for c, k in ((workdir["config"], ckpt), (old_cfg, old_ckpt)):
        outs.append(tmp_path / f"eval_{len(outs)}")
        assert main(["eval", "--checkpoint", str(k), "--config", str(c),
                     "--data", str(workdir["data"]), "--out", str(outs[-1])]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) and "metrics.csv" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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
    assert "base_width 16 in the checkpoint, 32 in the config" in capsys.readouterr().err


@pytest.mark.parametrize("changes,named", [
    ({"window": 2}, "window 4 in the checkpoint, 2 in the config"),
    ({"window": 2, "use_lpm": False},
     "window 4 in the checkpoint, 2 in the config; "
     "use_lpm True in the checkpoint, False in the config")], ids=["window", "two_fields"])
def test_eval_names_each_config_field_that_differs(workdir, capsys, tmp_path, changes, named):
    """A mismatch once printed two sha256 digests and named neither the
    checkpoint nor a field."""
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"model": nano_config(**changes).to_dict()}))
    ckpt = workdir["run"] / "checkpoint.tect"
    out = tmp_path / "o"
    assert main(["eval", "--checkpoint", str(ckpt), "--config", str(other),
                 "--data", str(workdir["data"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: config differs from the checkpoint's: {named}\n")
    assert not out.exists()


def _damage_manifest(kind: str, manifest: dict, payload_bytes: int):
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
    elif kind == "offset_past_end":
        manifest["tensors"][-1]["offset"] = payload_bytes + 4
    elif kind == "duplicate_name":
        # the name again, on another record of the same shape: it would load silently
        twin = next(e for e in manifest["tensors"][1:] if e["shape"] == entry["shape"])
        manifest["tensors"].append({**twin, "name": entry["name"]})
    return manifest


# what the error must say beyond the file name, where a case has a message of its own
DAMAGE_REASONS = {"offset_past_end": "past the end", "duplicate_name": "repeats the name"}


@pytest.mark.parametrize("damage", [
    "record_header", "manifest", "not_object", "empty_object", "no_config",
    "config_not_object", "tensors_not_list", "entry_without_shape", "shape_not_ints",
    "negative_offset", "offset_past_end", "duplicate_name"])
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
        text = json.dumps(_damage_manifest(damage, json.loads(text), len(blob)))
    ckpt.write_bytes(blob)
    manifest.write_text(text)
    rc = main(["eval", "--checkpoint", str(ckpt), "--config", str(workdir["config"]),
               "--data", str(workdir["data"]), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(ckpt) in err and DAMAGE_REASONS.get(damage, "") in err
    # dump-features reads the checkpoint without a config to check it against
    rc = main(["dump-features", "--checkpoint", str(ckpt), "--data", str(workdir["data"]),
               "--out", str(tmp_path / "f")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(ckpt) in err and DAMAGE_REASONS.get(damage, "") in err


@contextmanager
def _address_space_cap(headroom: int = 1 << 30):
    """Cap this process's address space at its current size plus `headroom`
    bytes, so that an allocation of what a damaged header claims fails."""
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + headroom
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY
                                            else min(cap, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_surface_metrics_of_a_fragmented_512px_mask_fit_in_256_mib():
    """`tecnet eval` scores every predicted mask.  A salt-and-pepper one at
    512 px against a disk has 123,228 x 724 border pixels, whose all-pairs
    float64 distance matrix once asked for 714 MB; a nearest-neighbour
    query needs a few MiB."""
    rng = np.random.default_rng(0)
    yy, xx = np.mgrid[:512, :512]
    disk = (yy - 256) ** 2 + (xx - 256) ** 2 < 128 ** 2
    with _address_space_cap(256 << 20):
        got = surface_metrics(rng.random((512, 512)) < 0.5, disk)
    assert 0 < got["ASD"] < got["HD95"] < 512


def test_record_claiming_four_billion_dims_fails_without_allocating(workdir, capsys, tmp_path):
    """An ndim of 0xFFFFFFFF once made the reader ask for 16 GiB of dims, and
    a MemoryError escaped the CLI."""
    ckpt = tmp_path / "checkpoint.tect"
    blob = bytearray((workdir["run"] / "checkpoint.tect").read_bytes())
    blob[4:8] = struct.pack("<I", 0xFFFFFFFF)            # the first record's ndim
    ckpt.write_bytes(blob)
    (tmp_path / "checkpoint.tect.json").write_bytes(
        (workdir["run"] / "checkpoint.tect.json").read_bytes())
    out = tmp_path / "o"
    with _address_space_cap():
        with pytest.raises(UsageError, match=f"^{re.escape(str(ckpt))}: truncated tensor record$"):
            load_checkpoint(str(ckpt))
        rc = main(["eval", "--checkpoint", str(ckpt), "--config", str(workdir["config"]),
                   "--data", str(workdir["data"]), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {ckpt}: truncated tensor record\n"
    assert not out.exists()


@pytest.mark.parametrize("ndim", [33, 65])
def test_record_with_more_dims_than_numpy_allows_names_the_checkpoint(
        workdir, capsys, tmp_path, ndim):
    """A record of 65 dims of 1 once let numpy's `maximum supported
    dimension` ValueError escape the CLI; numpy 1.x stops at 32 dims."""
    ckpt = tmp_path / "checkpoint.tect"
    ckpt.write_bytes(b"TECT" + struct.pack(f"<{1 + ndim}I", ndim, *[1] * ndim)
                     + struct.pack("<f", 0.0))
    manifest = json.loads((workdir["run"] / "checkpoint.tect.json").read_text())
    manifest["tensors"] = [{"name": "x", "shape": [1] * ndim, "offset": 0}]
    (tmp_path / "checkpoint.tect.json").write_text(json.dumps(manifest))
    out = tmp_path / "o"
    assert main(["eval", "--checkpoint", str(ckpt), "--config", str(workdir["config"]),
                 "--data", str(workdir["data"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: tensor record claims {ndim} dims, more than 32\n")
    assert not out.exists()


def test_empty_record_of_more_elements_than_numpy_allows_names_the_checkpoint(
        workdir, capsys, tmp_path):
    """A record of dims (0, 2**32-1, 2**32-1, 2**32-1) holds no data, but
    numpy refuses its shape: its `array is too big` ValueError once escaped
    the CLI."""
    dims = (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)
    ckpt = tmp_path / "checkpoint.tect"
    ckpt.write_bytes(b"TECT" + struct.pack("<5I", len(dims), *dims))
    manifest = json.loads((workdir["run"] / "checkpoint.tect.json").read_text())
    manifest["tensors"] = [{"name": "x", "shape": list(dims), "offset": 0}]
    (tmp_path / "checkpoint.tect.json").write_text(json.dumps(manifest))
    out = tmp_path / "f"
    assert main(["dump-features", "--checkpoint", str(ckpt), "--data", str(workdir["data"]),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: tensor record claims dims {dims}, too large for numpy\n")
    assert not out.exists()


@pytest.mark.parametrize("change", [
    {"base_width": 2**20}, {"window": 100000}, {"layer_numbers": [1, 1, 2, 10**7, 2, 1, 1]}],
    ids=["base_width", "window", "depth"])
def test_model_too_large_to_build_names_the_config(workdir, capsys, tmp_path, change):
    """A 36 TiB kernel, a 298 GiB relative-position table and a stage-3
    depth of 10**7 each once raised a MemoryError from the model build; the
    config's parameter count is checked first.  The address-space cap keeps
    the build from succeeding through overcommit."""
    blob = json.loads(workdir["config"].read_text())
    blob["model"].update(change)
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(blob))
    out = tmp_path / "run"
    with _address_space_cap(256 << 20):
        rc = main(["train", "--config", str(cfg), "--data", str(workdir["data"]),
                   "--out", str(out), "--steps", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(cfg))}: model section: config builds "
                        r"[\d,]+ parameters, more than the 1,073,741,824 allowed\n", err)
    assert not out.exists()


def test_manifest_missing_a_tensor_names_the_checkpoint(workdir, capsys, tmp_path):
    """A manifest without one of the model's tensors once printed the state
    mismatch without naming a file, and '...' after lists cut short of nothing."""
    ckpt = tmp_path / "checkpoint.tect"
    ckpt.write_bytes((workdir["run"] / "checkpoint.tect").read_bytes())
    manifest = json.loads((workdir["run"] / "checkpoint.tect.json").read_text())
    manifest["tensors"] = [e for e in manifest["tensors"] if e["name"] != "head_tec.bias"]
    (tmp_path / "checkpoint.tect.json").write_text(json.dumps(manifest))
    out = tmp_path / "o"
    assert main(["eval", "--checkpoint", str(ckpt), "--config", str(workdir["config"]),
                 "--data", str(workdir["data"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: state mismatch: missing ['head_tec.bias'], extra []\n")
    assert not out.exists()


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


def test_train_rejects_a_large_dataset_of_another_size_at_its_first_image(capsys, tmp_path):
    """40 pairs of 1024 px images take 640 MiB as float64, and every one was
    once loaded before the first was compared with the config, so a
    MemoryError escaped under the cap; now the first image fails as it is
    read.  Hard links keep the set at 2 MB on disk."""
    data = tmp_path / "data"
    data.mkdir()
    for kind in ("img", "msk"):
        write_pgm(data / f"{kind}_0000.pgm", np.zeros((1024, 1024), np.uint8))
        for i in range(1, 40):
            os.link(data / f"{kind}_0000.pgm", data / f"{kind}_{i:04d}.pgm")
    out = tmp_path / "run"
    with _address_space_cap(256 << 20):
        rc = main(["train", "--config", str(ROOT / "configs" / "nano.json"),
                   "--data", str(data), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {data}: images are 1024x1024, the config's input_size is 64\n")
    assert not out.exists()


def test_train_rejects_a_mask_stored_as_zero_and_one(workdir, capsys, tmp_path):
    """A mask PGM of 0/1 values once read as all background and trained
    against empty masks; any value but 0 and 255 exits 1 naming the mask."""
    data = tmp_path / "data"
    data.mkdir()
    for name in os.listdir(workdir["data"]):
        (data / name).write_bytes((workdir["data"] / name).read_bytes())
    write_pgm(data / "msk_0000.pgm", read_pgm(data / "msk_0000.pgm") // 255)
    out = tmp_path / "run"
    rc = main(["train", "--config", str(workdir["config"]), "--data", str(data),
               "--out", str(out), "--steps", "1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'msk_0000.pgm'}: mask holds 1; masks hold only 0 and 255\n")
    assert not out.exists()


def test_train_that_diverges_exits_1_with_an_error(workdir, capsys, tmp_path):
    """A learning rate of 1e30 once ended the run in a TrainingDiverged
    traceback with no error line, and later printed dozens of numpy
    overflow warnings before it.  The run keeps its loss log up to the
    last finite step and writes no checkpoint or summary."""
    blob = json.loads(workdir["config"].read_text())
    blob["train"]["lr"] = 1e30
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps(blob))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--config", str(cfg), "--data", str(workdir["data"]),
                   "--out", str(tmp_path / "run"), "--steps", "3"])
    assert rc == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss at step ")
    # the error numbers steps as the loss log does: one past its last row
    with open(tmp_path / "run" / "loss_log.csv") as fh:
        logged = [int(row["step"]) for row in csv.DictReader(fh)]
    named = int(re.match(r"error: non-finite loss at step (\d+):", err).group(1))
    assert logged and named == logged[-1] + 1
    assert sorted(os.listdir(tmp_path / "run")) == ["loss_log.csv"]


@pytest.mark.parametrize("command,flag", [
    ("gen", "--out"), ("train", "--data"), ("train", "--out"), ("eval", "--out")])
def test_path_errors_exit_1_naming_the_path(workdir, capsys, tmp_path, command, flag):
    """A file where a directory is wanted once ended in a NotADirectoryError
    or FileExistsError traceback; every OSError now exits 1 with the path."""
    path = tmp_path / "file"
    path.write_text("not a directory")
    argv = {"gen": ["--out", str(tmp_path / "g"), "--count", "1"],
            "train": ["--config", str(workdir["config"]), "--data", str(workdir["data"]),
                      "--out", str(tmp_path / "r"), "--steps", "1"],
            "eval": ["--checkpoint", str(workdir["run"] / "checkpoint.tect"),
                     "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "e")]}[command]
    argv[argv.index(flag) + 1] = str(path)
    assert main([command] + argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert path.read_text() == "not a directory"


@pytest.mark.parametrize("command,flag", [
    ("train", "--data"), ("train", "--val-data"), ("eval", "--data")])
def test_dataset_of_another_size_rejected(workdir, capsys, tmp_path, command, flag):
    """32 px data under a 64 px config once failed at the first step with a
    loss log written, after every training step (--val-data) or after
    creating --out (eval); it now exits 1, naming the directory and both
    sizes, before anything is written."""
    small = tmp_path / "small"
    assert main(["gen", "--out", str(small), "--count", "2", "--size", "32"]) == 0
    out = tmp_path / "o"
    argv = ["--config", str(workdir["config"]), "--data", str(workdir["data"]),
            "--out", str(out)]
    if command == "train":
        argv += ["--steps", "1", "--val-data", str(workdir["data"])]
    else:
        argv += ["--checkpoint", str(workdir["run"] / "checkpoint.tect")]
    argv[argv.index(flag) + 1] = str(small)
    capsys.readouterr()
    assert main([command] + argv) == 1
    assert capsys.readouterr().err == (
        f"error: {small}: images are 32x32, the config's input_size is 64\n")
    assert not out.exists()


def test_accounting_builds_no_attention_layers(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("accounting built an attention layer")

    monkeypatch.setattr(ACAM, "__init__", refuse)
    monkeypatch.setattr(WindowAttention, "__init__", refuse)
    for cfg in (nano_config(), nano_config(shared_kv=True), nano_config(use_acam=False)):
        assert count_params(cfg)["total"] > 0
        assert count_flops(replace(cfg, input_size=2 * cfg.input_size))["total"] > 0
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


@pytest.mark.parametrize("key,value,steps", [
    ("batch_size", "4", "1"), ("batch_size", True, "1"), ("seed", "x", "1"),
    ("seed", -1, "1"), ("lr", "0.001", "1"), ("lr", -1.0, "1"), ("lr", float("inf"), "1"),
    ("delta", "1", "1"),
    ("total_epochs", 2.5, "1"), ("total_epochs", 2.5, None), ("plateau_factor", 2.0, "1"),
    ("plateau_patience", None, "1"), ("steps", 1, "1")])
def test_train_rejects_bad_train_section(workdir, capsys, tmp_path, key, value, steps):
    """Each of these once ended in a numpy traceback or trained with a
    wrong setting (batch 1, gradient ascent, a rising learning rate); now
    each exits 1 naming the field before any training starts.  `steps` is
    set by the flag alone."""
    blob = json.loads(workdir["config"].read_text())
    blob["train"][key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(blob))
    rc = main(["train", "--config", str(cfg), "--data", str(workdir["data"]),
               "--out", str(tmp_path / "r")] + (["--steps", steps] if steps else []))
    assert rc == 1
    err = capsys.readouterr().err
    named = "unknown keys: ['steps']" if key == "steps" else f"config field {key} "
    assert "error:" in err and str(cfg) in err and named in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("eval", "--threshold", "2"), ("eval", "--threshold", "nan"),
    ("eval", "--threshold", "-1"), ("eval", "--threshold", "0"),
    ("train", "--val-count", "-1"), ("train", "--steps", "0"),
    ("train", "--log-every", "-3"), ("train", "--log-every", "0"),
    ("train", "--seed", "-1")])
def test_out_of_range_flag_rejected(workdir, capsys, tmp_path, command, flag, value):
    """A threshold outside (0, 1) once wrote all-empty or all-full masks, a
    negative --val-count trained unvalidated and a --log-every below 1 was
    taken as 1, each exiting 0; --steps 0 and --seed -1 blamed the config
    file.  Each now exits 1 naming the flag, before any output is written."""
    common = ["--config", str(workdir["config"]), "--data", str(workdir["data"]),
              "--out", str(tmp_path / "r")]
    if command == "eval":
        common += ["--checkpoint", str(workdir["run"] / "checkpoint.tect")]
    rc = main([command] + common + [flag, value])
    assert rc == 1
    assert f"error: {flag} must" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_analyze_preset_deterministic(capsys):
    assert main(["analyze", "--preset", "nano"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--preset", "nano"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "total" in first
    assert "2,989,491" in first


def test_analyze_tiny_prints_the_published_reference(capsys):
    """The published Tiny figures are printed at their 224 px input only."""
    assert main(["analyze", "--preset", "tiny"]) == 0
    out = capsys.readouterr().out
    params = count_params(PRESETS["tiny"]())["total"]
    assert "published reference at 224x224: 11.58 M params, 4.53 GFLOPs" in out
    assert f"this implementation:          {params / 1e6:.2f} M params" in out
    assert main(["analyze", "--preset", "tiny", "--input-size", "256"]) == 0
    assert "published reference" not in capsys.readouterr().out


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
    assert list(rows[0]) == ["module", "branch", "params", "formula_macs", "actual_macs",
                             "prob_entries"]
    assert rows == [{k: str(v) for k, v in r.items()}
                    for i in range(N_STAGES) for r in attention_rows(cfg, i)]
    # the report describes the attention layers nano holds: 4x4 windows at
    # every stage, the 2x2 bottleneck grid included (it is padded, not shrunk)
    assert all("M=4" in r["module"] for r in rows)
    totals = [int(r["params"]) for r in rows if r["branch"] == "total"]
    model = TecNet(cfg)
    assert totals == [sum(p.size for _, p in model.trans_stages[i].blocks[0].attn.named_parameters())
                      for i in range(N_STAGES)]


@pytest.mark.parametrize("size", [None, 128], ids=["native", "128"])
def test_analyze_attention_table_prints_actual_cost(capsys, size):
    """The attention table's actual and probs columns are the total row of
    the layer the config runs: the MACs count_flops adds up and the
    probability entries."""
    argv = ["analyze", "--preset", "nano"]
    if size is not None:
        argv += ["--input-size", str(size)]
    assert main(argv) == 0
    cfg = nano_config() if size is None else nano_config(input_size=size)
    lines = capsys.readouterr().out.split("attention cost per stage")[1].splitlines()
    assert lines[1].split()[-2:] == ["actual", "probs"]
    cells = [[int(x.replace(",", "")) for x in line.split()[-2:]] for line in lines[2:2 + N_STAGES]]
    totals = [attention_rows(cfg, i)[-1] for i in range(N_STAGES)]
    assert cells == [[r["actual_macs"], r["prob_entries"]] for r in totals]


@pytest.mark.parametrize("size", ["72", "0"])
def test_analyze_rejects_unrunnable_input_size(capsys, size):
    # the input size must be a positive multiple of 32: 72 is not, and 0 is not positive
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
    ("num_classes", 0), ("num_classes", -1), ("num_classes", 2)])
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


def test_dump_features_rejects_a_dataset_of_another_size(workdir, capsys, tmp_path):
    """32 px data against a 64 px checkpoint once failed in the forward with
    a message that named no path."""
    small = tmp_path / "small"
    assert main(["gen", "--out", str(small), "--count", "1", "--size", "32"]) == 0
    capsys.readouterr()
    out = tmp_path / "f"
    assert main(["dump-features", "--checkpoint", str(workdir["run"] / "checkpoint.tect"),
                 "--data", str(small), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {small}: images are 32x32, the config's input_size is 64\n")
    assert not out.exists()


def test_dump_features_names_a_manifest_whose_config_is_bad(workdir, capsys, tmp_path):
    """A manifest config without `window` once printed only the missing key."""
    ckpt = tmp_path / "c.tect"
    arrays, manifest = load_checkpoint(str(workdir["run"] / "checkpoint.tect"))
    config = dict(manifest["config"])
    del config["window"]
    save_checkpoint(str(ckpt), arrays.items(), config)
    out = tmp_path / "f"
    assert main(["dump-features", "--checkpoint", str(ckpt), "--data", str(workdir["data"]),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}.json: config missing required keys: ['window']\n")
    assert not out.exists()


def test_dump_features_index_out_of_range(workdir, capsys):
    rc = main(["dump-features",
               "--checkpoint", str(workdir["run"] / "checkpoint.tect"),
               "--data", str(workdir["data"]), "--index", "99",
               "--out", str(workdir["root"] / "f2")])
    assert rc != 0


def test_config_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys):
    """A config with one byte that is not UTF-8 once ended in a
    UnicodeDecodeError traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"model": 1}')
    assert main(["analyze", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text: ")


def test_manifest_that_is_not_utf8_exits_1_naming_it(workdir, capsys, tmp_path):
    """A manifest with one byte flipped to 0xFF once ended `dump-features`
    in a UnicodeDecodeError traceback."""
    ckpt = tmp_path / "checkpoint.tect"
    ckpt.write_bytes((workdir["run"] / "checkpoint.tect").read_bytes())
    manifest = bytearray((workdir["run"] / "checkpoint.tect.json").read_bytes())
    manifest[10] = 0xFF
    (tmp_path / "checkpoint.tect.json").write_bytes(manifest)
    assert main(["dump-features", "--checkpoint", str(ckpt), "--data", str(workdir["data"]),
                 "--out", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {ckpt}.json: corrupt checkpoint manifest: ")


def test_missing_file_reports_cleanly(capsys):
    rc = main(["analyze", "--config", "/nonexistent/cfg.json"])
    assert rc != 0
    assert "cfg.json" in capsys.readouterr().err


# ------------------------------------------------ files the README points at

@pytest.mark.parametrize("name", ["nano", "tiny", "base"])
def test_shipped_config_matches_its_preset(name):
    """configs/<name>.json holds the preset's model section and a train
    section that names each TrainSchedule field but `steps`, and no retired key."""
    blob = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    assert blob["model"] == json.loads(json.dumps(PRESETS[name]().to_dict()))
    assert set(blob["train"]) == {f.name for f in fields(TrainSchedule)} - {"steps"}
    assert not set(blob["train"]) & set(TrainSchedule.RETIRED)
    assert isinstance(read_config(TrainSchedule, blob["train"], steps=None), TrainSchedule)


def test_config_naming_the_retired_train_keys_trains_the_same(workdir, tmp_path):
    """configs/nano.json as it was while delta and the plateau settings were
    fields trains to the same bytes as the shipped file."""
    shipped = ROOT / "configs" / "nano.json"
    blob = json.loads(shipped.read_text())
    blob["train"].update({"delta": 1.0, "plateau_patience": 10, "plateau_factor": 0.5})
    older = tmp_path / "older.json"
    older.write_text(json.dumps(blob))
    runs = {cfg: tmp_path / cfg.stem for cfg in (shipped, older)}
    for cfg, out in runs.items():
        assert main(["train", "--config", str(cfg), "--data", str(workdir["data"]),
                     "--out", str(out), "--steps", "2", "--val-count", "1"]) == 0
    for name in ("checkpoint.tect", "summary.json"):
        assert (runs[shipped] / name).read_bytes() == (runs[older] / name).read_bytes()


def test_readme_quick_start_commands_parse():
    """Every tecnet line of the README's quick start parses with the CLI's
    own parser."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n.*?```\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["tecnet", cmd] for cmd in ("gen", "train", "eval", "analyze", "dump-features")]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_readme_numbers_match_the_code():
    """Every count in the README's Numbers section is what the code computes."""
    readme = (ROOT / "README.md").read_text()
    section = " ".join(re.search(r"## Numbers\n(.*?)(?:\n## |\Z)", readme, re.S).group(1).split())
    assert "at an 8x8 grid with 16 channels and window 4" in section
    quoted = [int(n.replace(",", "")) for n in re.findall(r"\d{1,3}(?:,\d{3})+", section)]
    cfg = nano_config(input_size=32)                    # stage 0: 8x8 grid, C=16, M=4
    acam = {shared: attention_rows(replace(cfg, shared_kv=shared), 0)[-1]["actual_macs"]
            for shared in (False, True)}
    assert quoted == [count_params(PRESETS[name]())["total"] for name in ("nano", "tiny", "base")] + [
        cost_msa(8, 8, 16), cost_swmsa(8, 8, 16, 4), cost_acam(8, 8, 16, 4), acam[False], acam[True]]
