"""Synthetic data generator, PGM round-trips, and tensor/checkpoint I/O."""

import io
import os
import struct

import numpy as np
import pytest

from tecnet.errors import ConfigurationError, UsageError
from tecnet.synth import (SynthSpec, generate, load_dataset, make_dataset,
                          quantize, read_pgm, synth_sample, write_pgm)
from tecnet.tensorio import (config_hash, load_checkpoint, read_tensor,
                             save_checkpoint, write_tensor)

RNG = np.random.default_rng(808)


# ------------------------------------------------------------------- synth

def test_samples_are_reproducible():
    spec = SynthSpec(seed=9, count=3, size=48)
    a = synth_sample(spec, 1)
    b = synth_sample(spec, 1)
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.mask, b.mask)
    c = synth_sample(spec, 2)
    assert not np.array_equal(a.mask, c.mask)


def test_masks_nonempty_and_binary():
    for family in ("ellipse", "blob-union"):
        spec = SynthSpec(seed=3, count=12, size=48, family=family)
        for s in make_dataset(spec):
            assert s.mask.sum() > 0
            assert set(np.unique(s.mask)) <= {0.0, 1.0}
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def test_full_contrast_noiseless_threshold_recovers_mask():
    spec = SynthSpec(seed=4, count=6, size=48, gap=1.0, noise=0.0)
    for s in make_dataset(spec):
        recovered = quantize(s.image[0]) > 127
        assert np.array_equal(recovered, s.mask[0].astype(bool))


def test_foreground_brighter_by_gap():
    spec = SynthSpec(seed=5, count=4, size=48, gap=0.6, noise=0.0)
    for s in make_dataset(spec):
        fg = s.image[0][s.mask[0] > 0.5]
        bg = s.image[0][s.mask[0] < 0.5]
        assert fg.min() - bg.max() > 0.0
        assert fg.max() <= 1.0  # the gap never clips


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SynthSpec(gap=0.0)
    with pytest.raises(ConfigurationError):
        SynthSpec(gap=1.2)
    with pytest.raises(ConfigurationError):
        SynthSpec(size=24)
    with pytest.raises(ConfigurationError):
        SynthSpec(family="squares")
    with pytest.raises(ConfigurationError):
        SynthSpec(noise=-0.1)


# --------------------------------------------------------------------- PGM

def test_pgm_roundtrip_lossless(tmp_path):
    a = RNG.integers(0, 256, (17, 23), dtype=np.uint8)
    path = tmp_path / "x.pgm"
    write_pgm(path, a)
    b = read_pgm(path)
    assert np.array_equal(a, b)
    assert b.dtype == np.uint8


def test_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ConfigurationError):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))  # truncated
    with pytest.raises(ConfigurationError):
        read_pgm(path)


def test_generate_writes_pairs_and_is_byte_identical(tmp_path):
    spec = SynthSpec(seed=6, count=3, size=48)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    generate(spec, d1)
    generate(spec, d2)
    names = sorted(os.listdir(d1))
    assert names == ["img_0000.pgm", "img_0001.pgm", "img_0002.pgm",
                     "msk_0000.pgm", "msk_0001.pgm", "msk_0002.pgm"]
    for n in names:
        assert (d1 / n).read_bytes() == (d2 / n).read_bytes()


def test_mask_files_contain_only_two_levels(tmp_path):
    generate(SynthSpec(seed=7, count=2, size=48), tmp_path)
    for i in range(2):
        m = read_pgm(tmp_path / f"msk_{i:04d}.pgm")
        assert set(np.unique(m)) <= {0, 255}


def test_load_dataset_pairs_and_scales(tmp_path):
    generate(SynthSpec(seed=8, count=2, size=48), tmp_path)
    samples = load_dataset(tmp_path)
    assert len(samples) == 2
    assert samples[0].sample_id == "0000"
    assert samples[0].image.shape == (1, 48, 48)
    assert samples[0].image.max() <= 1.0
    assert set(np.unique(samples[0].mask)) <= {0.0, 1.0}


def test_load_dataset_missing_mask_rejected(tmp_path):
    generate(SynthSpec(seed=8, count=2, size=48), tmp_path)
    os.remove(tmp_path / "msk_0001.pgm")
    with pytest.raises(ConfigurationError):
        load_dataset(tmp_path)


def test_load_dataset_empty_dir_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_dataset(tmp_path)


# ----------------------------------------------------------------- tensors

def test_tensor_stream_roundtrip():
    buf = io.BytesIO()
    a = RNG.standard_normal((3, 4, 5))
    write_tensor(buf, a)
    buf.seek(0)
    b = read_tensor(buf)
    assert b.shape == (3, 4, 5)
    # storage is 32-bit: equal after narrowing
    assert np.array_equal(b, a.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("shape", [(3, 4), ()], ids=["matrix", "scalar"])
def test_tensor_record_is_float32_and_exact(shape):
    buf = io.BytesIO()
    a = RNG.standard_normal(shape).astype(np.float32)
    write_tensor(buf, a.T)                      # a transposed view is written row-major
    buf.seek(0)
    b = read_tensor(buf)
    assert b.dtype == np.float32 and b.shape == a.T.shape and np.array_equal(a.T, b)


def test_tensor_record_claiming_more_than_the_file_holds(tmp_path):
    # a damaged header must not make the reader allocate what it claims
    path = tmp_path / "big.tect"
    dims = (70000, 70000, 70000)
    path.write_bytes(b"TECT" + struct.pack("<4I", len(dims), *dims) + bytes(64))
    with open(path, "rb") as fh, pytest.raises(UsageError, match="truncated"):
        read_tensor(fh)


def test_config_hash_is_order_insensitive():
    a = {"x": 1, "y": [1, 2], "z": {"k": True}}
    b = {"z": {"k": True}, "y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "x": 2})


def test_checkpoint_roundtrip_and_guard(tmp_path):
    arrays = [("w1", RNG.standard_normal((2, 3))), ("b1", np.zeros(3))]
    cfg = {"n": 1, "toggles": [True, False]}
    path = str(tmp_path / "c.tect")
    save_checkpoint(path, arrays, cfg)
    loaded, manifest = load_checkpoint(path, expected_config=cfg)
    assert list(loaded) == ["w1", "b1"]
    assert manifest["config"] == cfg
    with pytest.raises(UsageError):
        load_checkpoint(path, expected_config={"n": 2, "toggles": [True, False]})
