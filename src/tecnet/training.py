"""Losses, optimizer, and the dual-branch training loop.

Each branch output is scored with MSE on sigmoid probabilities plus a
soft Dice term.  The three branch losses are blended by a ramp weight

    lam(k) = exp(-5 * (1 - k)^2),   k = epoch / total_epochs

(the paper's delta * exp(...) with delta fixed at 1), so early training
leans on the per-branch heads and late training on the fused head:

    total = lam * L_fused + (1 - lam) / 2 * (L_cnn + L_trans)

The three coefficients sum to 1 at every k, so the loss scale stays steady
while the mix shifts.

A training step stacks its samples into one [B, C, H, W] batch and records
one tape; every loss is the mean of the per-sample losses, so the objective
is the same at any batch size.  Evaluation runs stacked chunks of
EVAL_BATCH samples.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import engine
from .engine import Tape, Tensor, backward
from .errors import ConfigurationError, TrainingDiverged, UsageError
from .metrics import confusion_metrics
from .model import TecNet, TecNetConfig, check_types
from .tensorio import load_checkpoint, save_checkpoint

DICE_EPS = 1.0
EVAL_BATCH = 8      # samples per stacked forward in evaluation and `tecnet eval`
LOG_FIELDS = ["step", "epoch", "lambda", "lr",
              "loss_total", "loss_tec", "loss_cnn", "loss_trans",
              "wall_ms", "samples_per_s", "grad_norm"]
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8         # Adam's defaults (Kingma & Ba)
PLATEAU_PATIENCE = 10   # validation epochs without improvement before a cut
PLATEAU_FACTOR = 0.5


def ramp_coefficient(k: float) -> float:
    """Fused-head loss weight as a function of training progress k."""
    k = min(max(k, 0.0), 1.0)
    return math.exp(-5.0 * (1.0 - k) ** 2)


def branch_weight(lam: float) -> float:
    """Loss weight of each branch head when the fused head weighs lam."""
    return (1.0 - lam) / 2.0


def loss_coefficients(k: float) -> tuple[float, float, float]:
    """(w_fused, w_cnn, w_trans) as total_loss weighs the heads at progress
    k; they sum to 1."""
    lam = ramp_coefficient(k)
    return lam, branch_weight(lam), branch_weight(lam)


def branch_loss(pred: Tensor, target: Tensor) -> Tensor:
    """MSE on probabilities plus soft Dice loss over [..., H, W] logit maps.

    For a batch [B, 1, H, W] this is the mean of the B per-sample losses:
    every sample has as many pixels and one Dice term.
    A target of another shape raises UsageError instead of broadcasting.
    """
    if pred.shape != target.shape:
        raise UsageError(f"logits are {pred.shape}, the target {target.shape}")
    p = engine.sigmoid(pred)
    diff = p - target
    mse = engine.mean_all(diff * diff)
    inter = engine.reduce_sum(p * target, axis=(-2, -1))
    psum = engine.reduce_sum(p, axis=(-2, -1))
    tsum = engine.reduce_sum(target, axis=(-2, -1))
    dice = (inter * 2.0 + DICE_EPS) / (psum + tsum + DICE_EPS)
    dice_loss = engine.mean_all(1.0 - dice)
    return mse + dice_loss


def total_loss(outputs: dict, target: Tensor, lam: float) -> tuple[Tensor, dict]:
    """Blend the three branch losses; returns (loss tensor, float parts)."""
    l_tec = branch_loss(outputs["y_tec"], target)
    l_cnn = branch_loss(outputs["y_cnn"], target)
    l_trans = branch_loss(outputs["y_trans"], target)
    total = l_tec * lam + (l_cnn + l_trans) * branch_weight(lam)
    parts = {"loss_total": total.item(), "loss_tec": l_tec.item(),
             "loss_cnn": l_cnn.item(), "loss_trans": l_trans.item()}
    return total, parts


def soft_dice_score(probs: np.ndarray, target: np.ndarray) -> float:
    """Soft Dice (0..1) between probability maps and a binary target."""
    p = np.asarray(probs, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    axes = tuple(range(1, p.ndim))
    inter = np.sum(p * t, axis=axes)
    dice = (2.0 * inter + DICE_EPS) / (np.sum(p, axis=axes) + np.sum(t, axis=axes) + DICE_EPS)
    return float(np.mean(dice))


# ---------------------------------------------------------------- optimizer

class Adam:
    """Adam with bias correction.  A step with zero gradient and fresh
    moments leaves the parameter exactly unchanged."""

    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)  # (name, Tensor) pairs
        self.lr = lr
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue  # parameter never touched the tape
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)


class PlateauHalver:
    """Halve the learning rate when validation loss stalls for
    PLATEAU_PATIENCE epochs.

    ``observe`` returns True on the epochs where the rate was cut.  The
    learning rate never increases.
    """

    def __init__(self, optimizer: Adam):
        self.optimizer = optimizer
        self.best = math.inf
        self.wait = 0

    def observe(self, val_loss: float) -> bool:
        if val_loss < self.best:
            self.best = val_loss
            self.wait = 0
            return False
        self.wait += 1
        if self.wait >= PLATEAU_PATIENCE:
            self.optimizer.lr *= PLATEAU_FACTOR
            self.wait = 0
            return True
        return False


# ---------------------------------------------------------------- schedule

@dataclass(frozen=True)
class TrainSchedule:
    """Hyperparameters for one training run, type- and range-checked."""

    total_epochs: int = 5
    steps: int | None = None       # when set, run exactly this many steps
    batch_size: int = 4
    lr: float = 1e-3
    seed: int = 0

    RETIRED = {"delta": (1.0, "the fused-head weight ramps up to 1"),
               "plateau_patience": (PLATEAU_PATIENCE, "10 stalled epochs halve the rate"),
               "plateau_factor": (PLATEAU_FACTOR, "10 stalled epochs halve the rate")}

    def __post_init__(self):
        check_types(self)
        for key, ok, rule in [
                ("total_epochs", self.total_epochs >= 1 or self.steps is not None,
                 ">= 1 unless steps is given"),
                ("steps", self.steps is None or self.steps >= 1, ">= 1 when given"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("lr", 0 < self.lr < np.inf, "finite and > 0"),
                ("seed", self.seed >= 0, ">= 0")]:
            if not ok:
                raise ConfigurationError(
                    f"config field {key} must be {rule}, got {getattr(self, key)!r}")


@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    checkpoint_path: str | None = None
    log_path: str | None = None
    summary: dict = field(default_factory=dict)


# ---------------------------------------------------------------- loop

def stack(samples) -> tuple[np.ndarray, np.ndarray]:
    """Images [B, C, H, W] and masks [B, 1, H, W] of same-size samples."""
    return np.stack([s.image for s in samples]), np.stack([s.mask for s in samples])


def _chunks(samples):
    """Consecutive runs of at most EVAL_BATCH samples."""
    for i in range(0, len(samples), EVAL_BATCH):
        yield samples[i:i + EVAL_BATCH]


def predict_batch(model: TecNet, images: np.ndarray) -> dict:
    """Sigmoid probability maps [B, 1, H, W] for all three heads, no tape."""
    outputs = model.forward(images)
    return {k: engine.sigmoid(v).data for k, v in outputs.items()}


def predict_probs(model: TecNet, image: np.ndarray) -> dict:
    """Sigmoid probability maps [1, H, W] of one [C, H, W] image, no tape."""
    return {k: v[0] for k, v in predict_batch(model, np.asarray(image)[None]).items()}


def predictions(model: TecNet, samples):
    """(sample, fused-head probabilities [1, H, W]) for each sample, from
    stacked forwards of EVAL_BATCH images, no tape."""
    for chunk in _chunks(samples):
        probs = predict_batch(model, np.stack([s.image for s in chunk]))["y_tec"]
        yield from zip(chunk, probs)


def evaluate_loss(model: TecNet, samples, lam: float) -> float:
    """Mean blended loss over samples with the ramp weight held fixed."""
    total = 0.0
    for chunk in _chunks(samples):
        images, masks = stack(chunk)
        _, parts = total_loss(model.forward(images), Tensor(masks), lam)
        total += parts["loss_total"] * len(chunk)
    return total / len(samples)


def evaluate_dice(model: TecNet, samples) -> float:
    """Mean hard Dice (0..100) of the fused head over samples."""
    return float(np.mean([confusion_metrics(p[0] >= 0.5, s.mask[0] > 0.5)["DI"]
                          for s, p in predictions(model, samples)]))


def _learn(model: TecNet, images: np.ndarray, masks: np.ndarray, lam: float) -> dict:
    """Forward, loss and backward of one batch on one tape; returns the loss parts.

    The tape is freed when this returns and the loss goes out of scope.
    """
    with Tape():
        loss, parts = total_loss(model.forward(images), Tensor(masks), lam)
    backward(loss)
    return parts


def grad_norm(params) -> float:
    """Global L2 norm of the parameters' gradients."""
    return math.sqrt(sum(float(np.vdot(p.grad, p.grad)) for p in params if p.grad is not None))


def train(model: TecNet, samples, schedule: TrainSchedule, *,
          val_samples=None, out_dir: str | None = None,
          progress=None) -> TrainResult:
    """Run the blended-loss loop; optionally log CSV and save a checkpoint.

    ``samples``/``val_samples`` are lists of SegSample.  In epochs mode the
    ramp progress k is epoch/total_epochs (constant within an epoch) and
    validation runs once per epoch, feeding the plateau rule with the ramp
    weight frozen at its current value.  In steps mode (schedule.steps set)
    k is step/steps and the loop cycles through batches until the step
    budget is spent.  Raises TrainingDiverged on a non-finite loss.  The
    summary's final Dice is `val_dice`, or `train_dice` with no val_samples.
    """
    if not samples:
        raise ConfigurationError("training set is empty")
    rng = np.random.default_rng(schedule.seed)
    optimizer = Adam(model.named_parameters(), lr=schedule.lr)
    plateau = PlateauHalver(optimizer)

    batch = min(schedule.batch_size, len(samples))
    steps_per_epoch = len(samples) // batch
    total_steps = schedule.steps or schedule.total_epochs * steps_per_epoch
    total_epochs = math.ceil(total_steps / steps_per_epoch)

    result = TrainResult()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.log_path = os.path.join(out_dir, "loss_log.csv")
    step = 0
    # a diverging run overflows long before its loss turns non-finite; the
    # finiteness checks below report it once instead of numpy warning per op
    with (open(result.log_path, "w", newline="") if result.log_path else nullcontext() as log_fh,
          np.errstate(over="ignore", invalid="ignore")):
        if log_fh is not None:
            log_writer = csv.DictWriter(log_fh, fieldnames=LOG_FIELDS)
            log_writer.writeheader()
        for epoch in range(total_epochs):
            order = rng.permutation(len(samples))
            for b in range(min(steps_per_epoch, total_steps - step)):
                # epochs mode holds k at epoch / total_epochs for the whole epoch
                k = (step if schedule.steps else epoch * steps_per_epoch) / total_steps
                lam = ramp_coefficient(k)

                t0 = perf_counter()
                chunk = [samples[i] for i in order[b * batch:(b + 1) * batch]]
                optimizer.zero_grad()
                parts = _learn(model, *stack(chunk), lam)
                if not all(math.isfinite(v) for v in parts.values()):
                    raise TrainingDiverged(
                        f"non-finite loss at step {step + 1}: {parts}")
                norm = grad_norm(p for _, p in optimizer.params)
                optimizer.step()
                step += 1
                wall_ms = (perf_counter() - t0) * 1e3

                row = {"step": step, "epoch": epoch, "lambda": lam, "lr": optimizer.lr,
                       **parts, "wall_ms": wall_ms,
                       "samples_per_s": len(chunk) / wall_ms * 1e3, "grad_norm": norm}
                result.history.append(row)
                if log_fh is not None:
                    log_writer.writerow({k_: (f"{v:.8f}" if isinstance(v, float) else v)
                                         for k_, v in row.items()})
                    log_fh.flush()
                if progress is not None:
                    progress(row)
            if val_samples:
                val = evaluate_loss(model, val_samples, lam)
                if not math.isfinite(val):
                    raise TrainingDiverged(f"non-finite validation loss: {val}")
                plateau.observe(val)

    result.summary = {
        "steps": step,
        "final_lambda": lam,
        "final_lr": optimizer.lr,
        "final_train_loss": result.history[-1]["loss_total"],
    }

    if out_dir is not None:
        result.checkpoint_path = os.path.join(out_dir, "checkpoint.tect")
        save_checkpoint(result.checkpoint_path, model.state_arrays(),
                        model.cfg.to_dict())
        # float32 records hold float32 parameters exactly, so the live
        # model scores as a later eval of the saved checkpoint will
        key = "val_dice" if val_samples else "train_dice"
        result.summary[key] = evaluate_dice(model, val_samples or samples)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(result.summary, fh, indent=2, sort_keys=True)
    return result


def load_model(checkpoint_path: str, expected_config: dict | None = None) -> TecNet:
    """Rebuild a model from a checkpoint.  With `expected_config`, the
    manifest's config must equal it field by field, as TecNetConfigs."""
    arrays, manifest = load_checkpoint(checkpoint_path)
    try:
        cfg = TecNetConfig.from_dict(manifest["config"])
    except ConfigurationError as e:
        raise UsageError(f"{checkpoint_path}.json: {e}") from e
    if expected_config is not None:
        got, want = cfg.to_dict(), TecNetConfig.from_dict(expected_config).to_dict()
        diff = [f"{k} {got[k]!r} in the checkpoint, {want[k]!r} in the config"
                for k in got if got[k] != want[k]]
        if diff:
            raise UsageError(f"{checkpoint_path}: config differs from the checkpoint's: "
                             + "; ".join(diff))
    model = TecNet(cfg, seed=0)
    try:
        model.load_state(arrays)
    except ConfigurationError as e:
        raise UsageError(f"{checkpoint_path}: {e}") from e
    return model
