"""Synthetic segmentation data and PGM I/O.

Samples are grayscale images with elliptical (or lumpy blob-union)
foreground shapes over a sloped background.  The ``gap`` knob sets the
intensity margin between foreground and background: background intensity
and slope amplitude are scaled by ``1 - gap`` so that foreground pixels
(background + gap) never clip at 1.0.  With gap=1 and noise=0 the image
is exactly binary and thresholding at the midpoint recovers the mask.

Datasets are written as 8-bit binary PGM (P5) pairs ``img_%04d.pgm`` /
``msk_%04d.pgm``; masks hold only {0, 255}.  Generation is a pure
function of (spec, index), so regenerating a dataset is byte-identical.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .model import check_types

FAMILIES = ("ellipse", "blob-union")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a deterministic synthetic dataset."""

    seed: int = 0
    count: int = 16
    size: int = 64
    family: str = "blob-union"
    gap: float = 0.6
    noise: float = 0.05
    grad_amp: float = 0.2

    def __post_init__(self):
        check_types(self)
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"family must be one of {FAMILIES}, got {self.family!r}")
        if not 0.0 < self.gap <= 1.0:
            raise ConfigurationError(f"gap must be in (0, 1], got {self.gap}")
        if not 1 <= self.count <= 10000:
            raise ConfigurationError(
                f"count must be in 1..10000 (sample ids have four digits), got {self.count}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if not 32 <= self.size <= 4096:     # a 4096^2 float64 image takes 128 MiB
            raise ConfigurationError(f"size must be in 32..4096, got {self.size}")
        for name in ("noise", "grad_amp"):
            if not 0.0 <= getattr(self, name) < np.inf:   # false for nan too
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass
class SegSample:
    """One image/mask pair ready for the model."""

    image: np.ndarray  # [1, H, W] float64 in [0, 1]
    mask: np.ndarray   # [1, H, W] float64 in {0, 1}
    sample_id: str = ""


def _ellipse(size: int, cy, cx, ry, rx, theta) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    dy = yy - cy
    dx = xx - cx
    u = dx * np.cos(theta) + dy * np.sin(theta)
    v = -dx * np.sin(theta) + dy * np.cos(theta)
    return (u / rx) ** 2 + (v / ry) ** 2 <= 1.0


def _sample_mask(spec: SynthSpec, rng) -> np.ndarray:
    s = spec.size
    mask = np.zeros((s, s), dtype=bool)
    n_shapes = int(rng.integers(1, 4))
    for _ in range(n_shapes):
        cy = rng.uniform(0.3 * s, 0.7 * s)
        cx = rng.uniform(0.3 * s, 0.7 * s)
        ry = rng.uniform(s / 10, s / 4)
        rx = rng.uniform(s / 10, s / 4)
        theta = rng.uniform(0, np.pi)
        if spec.family == "ellipse":
            mask |= _ellipse(s, cy, cx, ry, rx, theta)
        else:
            # Lumpy blob: union of the base ellipse and jittered satellites.
            mask |= _ellipse(s, cy, cx, ry, rx, theta)
            for _ in range(2):
                jy = cy + rng.uniform(-0.6, 0.6) * ry
                jx = cx + rng.uniform(-0.6, 0.6) * rx
                mask |= _ellipse(s, jy, jx, 0.6 * ry, 0.6 * rx,
                                 rng.uniform(0, np.pi))
    return mask


def synth_sample(spec: SynthSpec, index: int) -> SegSample:
    """Deterministically build sample ``index`` of the dataset."""
    rng = np.random.default_rng([spec.seed, index])
    s = spec.size
    mask = _sample_mask(spec, rng)

    headroom = 1.0 - spec.gap
    base = rng.uniform(0.0, 0.3) * headroom
    amp = rng.uniform(0.3, 1.0) * spec.grad_amp * headroom
    amp = min(amp, max(0.0, headroom - base))  # keep fg = bg + gap <= 1
    theta = rng.uniform(0, 2 * np.pi)
    yy, xx = np.mgrid[0:s, 0:s]
    ramp = (yy * np.sin(theta) + xx * np.cos(theta)) / max(s - 1, 1)
    ramp = (ramp - ramp.min()) / max(ramp.max() - ramp.min(), 1e-12)

    img = base + amp * ramp + spec.gap * mask
    if spec.noise > 0:
        img = img + spec.noise * rng.standard_normal((s, s))
    img = np.clip(img, 0.0, 1.0)
    return SegSample(image=img[None].astype(np.float64),
                     mask=mask[None].astype(np.float64),
                     sample_id=f"{index:04d}")


def make_dataset(spec: SynthSpec) -> list[SegSample]:
    return [synth_sample(spec, i) for i in range(spec.count)]


# ---------------------------------------------------------------------------
# PGM (P5, 8-bit) read/write
# ---------------------------------------------------------------------------

def write_pgm(path, values: np.ndarray) -> None:
    """Write a [H, W] uint8 array as binary PGM."""
    a = np.asarray(values)
    if a.ndim != 2:
        raise DimensionError(f"PGM wants a 2-D array, got {a.shape}")
    a = a.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii"))
        fh.write(a.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM into a [H, W] uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    m = re.match(rb"P5\s+(?:#.*\s+)*(\d+)\s+(\d+)\s+(\d+)\s", data)
    if m is None:
        raise ConfigurationError(f"{path}: not a binary PGM (P5) file")
    w, h, maxval = (int(m.group(i)) for i in (1, 2, 3))
    if maxval != 255:
        raise ConfigurationError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    if len(data) - m.end() < h * w:
        raise ConfigurationError(f"{path}: truncated pixel payload")
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=m.end())
    return pixels.reshape(h, w).copy()


def quantize(image: np.ndarray) -> np.ndarray:
    """[0,1] float image -> uint8 grayscale."""
    return np.clip(np.rint(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)


def generate(spec: SynthSpec, out_dir) -> list[str]:
    """Write the dataset to ``out_dir``; returns the image paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i in range(spec.count):
        sample = synth_sample(spec, i)
        img_path = os.path.join(out_dir, f"img_{i:04d}.pgm")
        msk_path = os.path.join(out_dir, f"msk_{i:04d}.pgm")
        write_pgm(img_path, quantize(sample.image[0]))
        write_pgm(msk_path, np.where(sample.mask[0] > 0.5, 255, 0).astype(np.uint8))
        paths.append(img_path)
    return paths


def load_dataset(data_dir, size: int) -> list[SegSample]:
    """Read every img_*/msk_* pair from a directory, sorted by id; each image
    must be size x size and each mask hold only 0 and 255."""
    names = sorted(n for n in os.listdir(data_dir)
                   if re.fullmatch(r"img_\d{4}\.pgm", n))
    if not names:
        raise ConfigurationError(f"no img_XXXX.pgm files found in {data_dir}")
    samples = []
    for name in names:
        sid = name[4:8]
        img_path = os.path.join(data_dir, name)
        msk_path = os.path.join(data_dir, f"msk_{sid}.pgm")
        if not os.path.exists(msk_path):
            raise ConfigurationError(f"{name} has no matching msk_{sid}.pgm")
        img = read_pgm(img_path)
        if img.shape != (size, size):
            which = f"{img_path}: image is" if samples else f"{data_dir}: images are"
            raise ConfigurationError(f"{which} {img.shape[0]}x{img.shape[1]}, "
                                     f"the config's input_size is {size}")
        msk = read_pgm(msk_path)
        if msk.shape != img.shape:
            raise ConfigurationError(f"{msk_path}: mask is {msk.shape}, its image {img.shape}")
        odd = msk[(msk != 0) & (msk != 255)]
        if odd.size:
            raise ConfigurationError(f"{msk_path}: mask holds {odd[0]}; masks hold only 0 and 255")
        samples.append(SegSample(image=img[None] / 255.0, mask=msk[None] / 255.0, sample_id=sid))
    return samples
