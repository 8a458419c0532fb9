"""The benchmark's workloads: set-up, one closed-loop operation, and checks.

Each workload runs through tecnet's public functions only.  An operation
returns its timed units (one per train step or per inference request) and
its outputs; `check` compares the outputs with the golden values recorded
in golden.json from the same inputs.

Inputs come from data seed = seed mod GOLDEN_SEEDS, so every operation of
every run is checked against a recorded golden.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from time import perf_counter

import numpy as np

from tecnet import metrics, synth, tensorio, training
from tecnet.model import TecNet, count_flops, nano_config

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEEDS = 16
HELD_OUT_SEED = 1000        # infer sets use data seeds 1000..1015, apart from training's

# Tolerances; README.md gives the measurements behind them.
LOSS_RTOL = 1e-4            # per-step loss_total, relative
UPDATE_RTOL = 1e-3          # weight update of one train() call, relative L2 (sketched)
PROB_ATOL = 1e-5            # mean fused probability of each of 4x4 blocks, absolute
MASK_MARGIN = 1e-4          # pixels this close to the 0.5 threshold may flip
SCORE_RTOL = 1e-9           # all_metrics scores, when the mask is unchanged
THRESHOLD = 0.5
PROB_BLOCKS = 4
SKETCH_BUCKETS = 64


class TrainNanoB8:
    """The criterion-06 task: nano, seed 0, batch 8, lr 1e-3, 3 steps per train() call."""

    name = "train-nano-b8"
    steps = 3
    batch = 8
    golden_ops = 1      # operations that cover every golden output of a data seed

    def __init__(self, seed: int):
        self.data_seed = seed % GOLDEN_SEEDS
        self.schedule = training.TrainSchedule(steps=self.steps, batch_size=self.batch,
                                               lr=1e-3, seed=0)
        self.macs_per_image = count_flops(nano_config())["total"]
        self.checkpoint_bytes = 0

    def setup(self, workdir) -> None:
        spec = synth.SynthSpec(seed=self.data_seed, count=self.batch, size=64, gap=0.6, noise=0.05)
        self.data = synth.make_dataset(spec)
        self.model = TecNet(nano_config(), seed=0)

    def prepare(self) -> None:
        """Untimed bookkeeping: every operation starts from the same weights."""
        self.initial = {name: arr.copy() for name, arr in self.model.state_arrays()}
        n = sum(a.size for a in self.initial.values())
        self.signs = np.random.default_rng(0).integers(0, 2, n, dtype=np.int8) * 2 - 1
        self.initial_sketch = self._sketch(self.initial.values())

    def _sketch(self, arrays) -> np.ndarray:
        """Count sketch of the flattened weights: signed sums by index mod SKETCH_BUCKETS.

        The L2 distance of two sketches estimates that of the weights.
        """
        flat = np.concatenate([a.reshape(-1) for a in arrays]) * self.signs
        flat = np.concatenate([flat, np.zeros(-flat.size % SKETCH_BUCKETS)])
        return flat.reshape(-1, SKETCH_BUCKETS).sum(axis=0)

    def run_op(self):
        self.model.load_state(self.initial)
        stamps = [perf_counter()]
        result = training.train(self.model, self.data, self.schedule,
                                progress=lambda row: stamps.append(perf_counter()))
        units = [(b - a, self.batch) for a, b in zip(stamps, stamps[1:])]
        update = self._sketch(a for _, a in self.model.state_arrays()) - self.initial_sketch
        return units, ([row["loss_total"] for row in result.history], update)

    def digest(self, outputs) -> dict:
        losses, update = outputs[0]
        return {"losses": losses, "update_sketch": update.tolist()}

    def check(self, output, golden) -> int:
        """Steps off the golden loss trajectory; all of them if the trained
        weights are off."""
        losses, update = output
        want = golden[str(self.data_seed)]
        if len(losses) != len(want["losses"]):
            return self.steps
        ref = np.asarray(want["update_sketch"])
        if np.linalg.norm(update - ref) > UPDATE_RTOL * np.linalg.norm(ref):
            return self.steps
        return sum(not math.isclose(got, exp, rel_tol=LOSS_RTOL, abs_tol=0.0)
                   for got, exp in zip(losses, want["losses"]))


class InferNano:
    """The `tecnet eval` path, one image per request, on a held-out synthetic set."""

    def __init__(self, name: str, size: int, count: int, seed: int):
        self.name = name
        self.size = size
        self.count = count
        self.golden_ops = count
        self.data_seed = seed % GOLDEN_SEEDS
        self.cfg = nano_config(input_size=size)
        self.macs_per_image = count_flops(self.cfg)["total"]

    def setup(self, workdir) -> None:
        spec = synth.SynthSpec(seed=HELD_OUT_SEED + self.data_seed, count=self.count, size=self.size)
        self.data = synth.make_dataset(spec)
        model = TecNet(self.cfg, seed=0)
        path = os.path.join(workdir, "checkpoint.tect")
        tensorio.save_checkpoint(path, model.state_arrays(), self.cfg.to_dict())
        self.model = training.load_model(path, expected_config=self.cfg.to_dict())
        self.checkpoint_bytes = os.path.getsize(path) + os.path.getsize(path + ".json")

    def prepare(self) -> None:
        self.next = 0

    def run_op(self):
        i = self.next % self.count
        self.next += 1
        sample = self.data[i]
        t0 = perf_counter()
        probs = training.predict_probs(self.model, sample.image)["y_tec"][0]
        mask = probs >= THRESHOLD
        scores = metrics.all_metrics(mask, sample.mask[0] > 0.5)
        dt = perf_counter() - t0
        return [(dt, 1)], (i, probs, mask, scores)

    def digest(self, outputs) -> list:
        """Per image: 4x4 block means of the fused probabilities, the mask
        with near-threshold pixels listed apart, and the scores."""
        digests = []
        for _, probs, mask, scores in sorted(outputs, key=lambda o: o[0]):
            unsure = np.flatnonzero(np.abs(probs - THRESHOLD) < MASK_MARGIN)
            digests.append({
                "blocks": np.round(_blocks(probs), 8).tolist(),
                "mask_sha": _sure_mask_sha(mask, unsure),
                "unsure": unsure.tolist(),
                "unsure_bits": mask.reshape(-1)[unsure].astype(int).tolist(),
                "scores": {k: (None if math.isnan(v) else v) for k, v in scores.items()},
            })
        return digests

    def check(self, output, golden) -> int:
        i, probs, mask, scores = output
        want = golden[str(self.data_seed)][i]
        if not np.allclose(_blocks(probs), want["blocks"], rtol=0.0, atol=PROB_ATOL):
            return 1
        unsure = np.asarray(want["unsure"], dtype=np.int64)
        if _sure_mask_sha(mask, unsure) != want["mask_sha"]:
            return 1
        if np.array_equal(mask.reshape(-1)[unsure], want["unsure_bits"]):
            # the whole mask is the golden one, so the scores must be too
            for k, exp in want["scores"].items():
                got = scores[k]
                if exp is None:
                    if not math.isnan(got):
                        return 1
                elif not math.isclose(got, exp, rel_tol=SCORE_RTOL, abs_tol=SCORE_RTOL):
                    return 1
        return 0


def _blocks(probs: np.ndarray) -> np.ndarray:
    h, w = probs.shape
    b = PROB_BLOCKS
    return probs.reshape(b, h // b, b, w // b).mean(axis=(1, 3)).reshape(-1)


def _sure_mask_sha(mask: np.ndarray, unsure: np.ndarray) -> str:
    flat = mask.reshape(-1).copy()
    flat[unsure] = False
    return hashlib.sha256(np.packbits(flat).tobytes()).hexdigest()


WORKLOADS = {
    "train-nano-b8": TrainNanoB8,
    "infer-nano-64": lambda seed: InferNano("infer-nano-64", 64, 16, seed),
    "infer-nano-256": lambda seed: InferNano("infer-nano-256", 256, 4, seed),
}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)


def load_golden(name: str) -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)[name]
