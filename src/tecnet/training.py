"""Losses, optimizer, and the dual-branch training loop.

Each branch output is scored with MSE on sigmoid probabilities plus a
soft Dice term.  The three branch losses are blended by a ramp weight

    lam(k) = delta * exp(-5 * (1 - k)^2),   k = epoch / total_epochs

so early training leans on the per-branch heads and late training on the
fused head:

    total = lam * L_fused + (1 - lam) / 2 * (L_cnn + L_trans)

With delta = 1 the three coefficients sum to 1 at every k, so the loss
scale stays steady while the mix shifts.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import Tape, Tensor, backward
from .errors import ConfigurationError, TrainingDiverged
from .metrics import confusion_metrics
from .model import TecNet, TecNetConfig

DICE_EPS = 1.0
LOG_FIELDS = ["step", "epoch", "lambda", "lr",
              "loss_total", "loss_tec", "loss_cnn", "loss_trans"]


def ramp_coefficient(k: float, delta: float = 1.0) -> float:
    """Fused-head loss weight as a function of training progress k."""
    k = min(max(k, 0.0), 1.0)
    return delta * math.exp(-5.0 * (1.0 - k) ** 2)


def loss_coefficients(k: float, delta: float = 1.0) -> tuple[float, float, float]:
    """(w_fused, w_cnn, w_trans); they sum to 1 when delta == 1."""
    lam = ramp_coefficient(k, delta)
    side = (1.0 - lam) / 2.0
    return lam, side, side


def branch_loss(pred: Tensor, target: Tensor) -> Tensor:
    """MSE on probabilities plus soft Dice loss, both over [ncls, H, W]."""
    p = engine.sigmoid(pred)
    diff = p - target
    mse = engine.mean_all(diff * diff)
    inter = engine.reduce_sum(p * target, axis=(1, 2))
    psum = engine.reduce_sum(p, axis=(1, 2))
    tsum = engine.reduce_sum(target, axis=(1, 2))
    dice = (inter * 2.0 + DICE_EPS) / (psum + tsum + DICE_EPS)
    dice_loss = engine.mean_all(1.0 - dice)
    return mse + dice_loss


def total_loss(outputs: dict, target: Tensor, lam: float) -> tuple[Tensor, dict]:
    """Blend the three branch losses; returns (loss tensor, float parts)."""
    l_tec = branch_loss(outputs["y_tec"], target)
    l_cnn = branch_loss(outputs["y_cnn"], target)
    l_trans = branch_loss(outputs["y_trans"], target)
    side = (1.0 - lam) / 2.0
    total = l_tec * lam + (l_cnn + l_trans) * side
    parts = {"loss_total": total.item(), "loss_tec": l_tec.item(),
             "loss_cnn": l_cnn.item(), "loss_trans": l_trans.item()}
    return total, parts


def soft_dice_score(probs: np.ndarray, target: np.ndarray,
                    eps: float = DICE_EPS) -> float:
    """Soft Dice (0..1) between probability maps and a binary target."""
    p = np.asarray(probs, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    axes = tuple(range(1, p.ndim))
    inter = np.sum(p * t, axis=axes)
    dice = (2.0 * inter + eps) / (np.sum(p, axis=axes) + np.sum(t, axis=axes) + eps)
    return float(np.mean(dice))


# ---------------------------------------------------------------- optimizer

class Adam:
    """Adam with bias correction.  A step with zero gradient and fresh
    moments leaves the parameter exactly unchanged."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)  # (name, Tensor) pairs
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue  # parameter never touched the tape
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class PlateauHalver:
    """Halve the learning rate when validation loss stalls.

    ``observe`` returns True on the epochs where the rate was cut.  The
    learning rate never increases.
    """

    def __init__(self, optimizer: Adam, patience: int = 10, factor: float = 0.5):
        self.optimizer = optimizer
        self.patience = patience
        self.factor = factor
        self.best = math.inf
        self.wait = 0

    def observe(self, val_loss: float) -> bool:
        if val_loss < self.best:
            self.best = val_loss
            self.wait = 0
            return False
        self.wait += 1
        if self.wait >= self.patience:
            self.optimizer.lr *= self.factor
            self.wait = 0
            return True
        return False


# ---------------------------------------------------------------- schedule

@dataclass
class TrainSchedule:
    """Hyperparameters for one training run."""

    total_epochs: int = 5
    steps: int | None = None       # when set, run exactly this many steps
    batch_size: int = 4
    lr: float = 1e-3
    delta: float = 1.0
    plateau_patience: int = 10
    plateau_factor: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.total_epochs < 1 and self.steps is None:
            raise ConfigurationError("total_epochs must be >= 1")
        if self.steps is not None and self.steps < 1:
            raise ConfigurationError("steps must be >= 1 when given")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    final_lr: float = 0.0
    final_lambda: float = 0.0
    checkpoint_path: str | None = None
    log_path: str | None = None
    summary: dict = field(default_factory=dict)


# ---------------------------------------------------------------- loop

def _forward_loss(model: TecNet, sample, lam: float):
    target = Tensor(sample.mask)
    outputs = model.forward(sample.image)
    return total_loss(outputs, target, lam)


def predict_probs(model: TecNet, image: np.ndarray) -> dict:
    """Sigmoid probability maps for all three heads, no tape."""
    outputs = model.forward(image)
    return {k: engine.sigmoid(v).data for k, v in outputs.items()}


def predict_mask(model: TecNet, image: np.ndarray,
                 threshold: float = 0.5) -> np.ndarray:
    """Binary mask [ncls, H, W] from the fused head."""
    return predict_probs(model, image)["y_tec"] >= threshold


def evaluate_loss(model: TecNet, samples, lam: float) -> float:
    """Mean blended loss over samples with the ramp weight held fixed."""
    total = 0.0
    for sample in samples:
        _, parts = _forward_loss(model, sample, lam)
        total += parts["loss_total"]
    return total / len(samples)


def evaluate_dice(model: TecNet, samples, threshold: float = 0.5) -> float:
    """Mean hard Dice (0..100) of the fused head over samples."""
    scores = []
    for sample in samples:
        pred = predict_mask(model, sample.image, threshold)
        scores.append(confusion_metrics(pred[0], sample.mask[0] > 0.5)["DI"])
    return float(np.mean(scores))


def train(model: TecNet, samples, schedule: TrainSchedule, *,
          val_samples=None, out_dir: str | None = None,
          progress=None) -> TrainResult:
    """Run the blended-loss loop; optionally log CSV and save a checkpoint.

    ``samples``/``val_samples`` are lists of SegSample.  In epochs mode the
    ramp progress k is epoch/total_epochs (constant within an epoch) and
    validation runs once per epoch, feeding the plateau rule with the ramp
    weight frozen at its current value.  In steps mode (schedule.steps set)
    k is step/steps and the loop cycles through batches until the step
    budget is spent.  Raises TrainingDiverged on a non-finite loss.
    """
    if not samples:
        raise ConfigurationError("training set is empty")
    rng = np.random.default_rng(schedule.seed)
    optimizer = Adam(model.named_parameters(), lr=schedule.lr)
    plateau = PlateauHalver(optimizer, schedule.plateau_patience,
                            schedule.plateau_factor)

    batch = min(schedule.batch_size, len(samples))
    steps_per_epoch = max(1, len(samples) // batch)
    if schedule.steps is not None:
        total_steps = schedule.steps
        total_epochs = max(1, math.ceil(total_steps / steps_per_epoch))
    else:
        total_epochs = schedule.total_epochs
        total_steps = total_epochs * steps_per_epoch

    result = TrainResult()
    log_fh = None
    log_writer = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.log_path = os.path.join(out_dir, "loss_log.csv")
        log_fh = open(result.log_path, "w", newline="")
        log_writer = csv.DictWriter(log_fh, fieldnames=LOG_FIELDS)
        log_writer.writeheader()

    try:
        step = 0
        lam = ramp_coefficient(0.0, schedule.delta)
        for epoch in range(total_epochs):
            order = rng.permutation(len(samples))
            for b in range(steps_per_epoch):
                if step >= total_steps:
                    break
                if schedule.steps is not None:
                    k = step / total_steps
                else:
                    k = epoch / total_epochs
                lam = ramp_coefficient(k, schedule.delta)

                idx = order[b * batch:(b + 1) * batch]
                optimizer.zero_grad()
                parts_sum = {f: 0.0 for f in LOG_FIELDS[4:]}
                for i in idx:
                    with Tape():
                        loss, parts = _forward_loss(model, samples[i], lam)
                        scaled = loss * (1.0 / len(idx))
                    backward(scaled)
                    for f in parts_sum:
                        parts_sum[f] += parts[f] / len(idx)
                if not all(math.isfinite(v) for v in parts_sum.values()):
                    raise TrainingDiverged(
                        f"non-finite loss at step {step}: {parts_sum}")
                optimizer.step()
                step += 1

                row = {"step": step, "epoch": epoch,
                       "lambda": lam, "lr": optimizer.lr, **parts_sum}
                result.history.append(row)
                if log_writer is not None:
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
    finally:
        if log_fh is not None:
            log_fh.close()

    result.final_lr = optimizer.lr
    result.final_lambda = lam
    result.summary = {
        "steps": step,
        "final_lambda": lam,
        "final_lr": optimizer.lr,
        "final_train_loss": result.history[-1]["loss_total"] if result.history else None,
    }

    if out_dir is not None:
        from .tensorio import save_checkpoint
        result.checkpoint_path = os.path.join(out_dir, "checkpoint.tect")
        save_checkpoint(result.checkpoint_path, model.state_arrays(),
                        model.cfg.to_dict())
        # float32 records hold float32 parameters exactly, so the live
        # model scores as a later eval of the saved checkpoint will
        eval_set = val_samples if val_samples else samples
        result.summary["val_dice"] = evaluate_dice(model, eval_set)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(result.summary, fh, indent=2, sort_keys=True)
    return result


def load_model(checkpoint_path: str, expected_config: dict | None = None) -> TecNet:
    """Rebuild a model from a checkpoint (optionally pinning the config)."""
    from .tensorio import load_checkpoint
    arrays, manifest = load_checkpoint(checkpoint_path, expected_config)
    cfg = TecNetConfig.from_dict(manifest["config"])
    model = TecNet(cfg, seed=0)
    model.load_state(arrays)
    return model
