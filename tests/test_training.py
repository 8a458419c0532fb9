"""Loss blending, optimizer behavior, and the training loop contract."""

import csv
import inspect
import math
import os

import numpy as np
import pytest

from tecnet import Tape, Tensor, backward
from tecnet import engine as E
from tecnet.errors import ConfigurationError, TrainingDiverged
from tecnet.model import TecNet, nano_config
from tecnet.synth import SynthSpec, make_dataset
from tecnet.training import (LOG_FIELDS, Adam, PlateauHalver, TrainSchedule,
                             branch_loss, evaluate_dice, load_model,
                             loss_coefficients, ramp_coefficient,
                             soft_dice_score, total_loss, train)

RNG = np.random.default_rng(31415)


# ---------------------------------------------------------------- ramp

def test_ramp_endpoints():
    assert abs(ramp_coefficient(0.0) - math.exp(-5.0)) < 1e-15
    assert ramp_coefficient(1.0) == 1.0
    assert abs(ramp_coefficient(0.5) - math.exp(-1.25)) < 1e-15


def test_ramp_clamps_and_scales():
    assert ramp_coefficient(-3.0) == ramp_coefficient(0.0)
    assert ramp_coefficient(7.0) == 1.0
    assert ramp_coefficient(1.0, delta=0.4) == 0.4


def test_ramp_monotone():
    ks = np.linspace(0.0, 1.0, 100)
    vals = [ramp_coefficient(k) for k in ks]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_coefficients_sum_to_one():
    for k in (0.0, 0.25, 0.5, 1.0):
        assert abs(sum(loss_coefficients(k)) - 1.0) < 1e-15


# ---------------------------------------------------------------- losses

def test_branch_loss_against_numpy_oracle(float64):
    pred = Tensor(RNG.standard_normal((2, 5, 5)))
    target = Tensor((RNG.random((2, 5, 5)) > 0.5).astype(float))
    got = branch_loss(pred, target).item()

    p = 1.0 / (1.0 + np.exp(-pred.data))
    t = target.data
    mse = np.mean((p - t) ** 2)
    inter = (p * t).sum(axis=(1, 2))
    dice = (2 * inter + 1.0) / (p.sum(axis=(1, 2)) + t.sum(axis=(1, 2)) + 1.0)
    want = mse + np.mean(1.0 - dice)
    assert abs(got - want) < 1e-12


def test_branch_loss_zero_for_perfect_confident_prediction():
    target = Tensor((RNG.random((1, 6, 6)) > 0.5).astype(float))
    logits = Tensor(np.where(target.data > 0.5, 50.0, -50.0))
    assert branch_loss(logits, target).item() < 1e-3


def test_total_loss_blend(float64):
    target = Tensor((RNG.random((1, 4, 4)) > 0.5).astype(float))
    outs = {k: Tensor(RNG.standard_normal((1, 4, 4)))
            for k in ("y_tec", "y_cnn", "y_trans")}
    lam = 0.3
    total, parts = total_loss(outs, target, lam)
    want = lam * parts["loss_tec"] + 0.35 * (parts["loss_cnn"] + parts["loss_trans"])
    assert abs(total.item() - want) < 1e-12
    assert parts["loss_total"] == total.item()


def test_soft_dice_score_range_and_perfect():
    t = (RNG.random((1, 8, 8)) > 0.5).astype(float)
    assert soft_dice_score(t, t) > 0.98  # eps keeps it just below 1
    assert 0.0 <= soft_dice_score(1 - t, t) < 0.5


# ---------------------------------------------------------------- Adam

def test_adam_zero_gradient_is_identity():
    p = Tensor(RNG.standard_normal(5), requires_grad=True)
    p.grad = np.zeros(5)
    opt = Adam([("p", p)], lr=0.5)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_matches_reference_formulas():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    grads = [np.array([0.5, -1.0]), np.array([-0.25, 0.75]), np.array([2.0, 0.0])]

    ref = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(p.data, ref, atol=1e-15)


def test_adam_skips_untouched_parameters():
    p = Tensor(np.ones(3), requires_grad=True)  # grad stays None
    opt = Adam([("p", p)], lr=0.5)
    opt.step()
    np.testing.assert_array_equal(p.data, np.ones(3))


def test_plateau_halves_after_patience():
    p = Tensor(np.ones(1), requires_grad=True)
    opt = Adam([("p", p)], lr=1.0)
    plateau = PlateauHalver(opt, patience=3, factor=0.5)
    assert not plateau.observe(1.0)   # first value becomes best
    for i, expect in [(1, False), (2, False), (3, True)]:
        assert plateau.observe(1.0) is expect
    assert opt.lr == 0.5
    # improvement resets the counter
    plateau.observe(0.5)
    plateau.observe(0.6)
    plateau.observe(0.6)
    assert opt.lr == 0.5
    plateau.observe(0.6)
    assert opt.lr == 0.25


# ---------------------------------------------------------------- loop

def _tiny_run(tmp_path, **kw):
    data = make_dataset(SynthSpec(seed=5, count=4, size=64))
    model = TecNet(nano_config(), seed=1)
    defaults = dict(steps=2, batch_size=2, lr=1e-3, seed=0)
    defaults.update(kw)
    sched = TrainSchedule(**defaults)
    return train(model, data, sched, val_samples=data[:2],
                 out_dir=str(tmp_path)), model, data


# Tape nodes one nano train sample records (forward, total_loss and the
# 1/batch scale in train()).  A change that moves this number should say why;
# one that splits attention back into small ops fails here instead of only
# running slower.
NANO_SAMPLE_TAPE_NODES = 1332


def test_tape_budget_of_one_nano_train_sample():
    model = TecNet(nano_config(), seed=0)
    sample = make_dataset(SynthSpec(seed=5, count=1, size=64))[0]
    with Tape() as tape:
        loss, _ = total_loss(model.forward(sample.image), Tensor(sample.mask), 0.5)
        loss * (1.0 / 8)
    ops = [node.backward_fn.__qualname__.split(".")[0] for node in tape.nodes]
    acam_layers = sum(len(stage.blocks) for stage in model.trans_stages)
    ddconv_layers = sum(name.endswith(".kernels") for name, _ in model.named_parameters())
    assert ops.count("attention") == 4 * acam_layers     # one node per branch
    assert ops.count("softmax") == ddconv_layers          # only the kernel gates
    assert len(tape.nodes) == NANO_SAMPLE_TAPE_NODES


def test_nano_train_step_is_float32_throughout(monkeypatch):
    """Forward, total_loss, backward and Adam at the default dtype: every
    float array an engine op is given, every tape-node output, every
    gradient handed between nodes, every .grad and every Adam moment is
    float32."""
    model = TecNet(nano_config(), seed=0)
    sample = make_dataset(SynthSpec(seed=5, count=1, size=64))[0]
    # fill the layers' mask and tap-grid caches and the upsampling cache under
    # float64 first, so a cache that ignores the dtype leaks into the step below
    with E.precision(np.float64):
        model.forward(sample.image)
    fed = []

    def watched(op):
        def call(*args, **kwargs):
            for a in (*args, *kwargs.values()):
                arr = a.data if isinstance(a, Tensor) else a
                if isinstance(arr, np.ndarray) and arr.dtype.kind == "f":
                    fed.append((op.__name__, arr.dtype))
            return op(*args, **kwargs)
        return call

    for name in set(E.__all__) - {"backward"}:
        if inspect.isfunction(getattr(E, name)):
            monkeypatch.setattr(E, name, watched(getattr(E, name)))
    opt = Adam(model.named_parameters())
    with Tape() as tape:
        loss, _ = total_loss(model.forward(sample.image), Tensor(sample.mask), 0.5)
    assert fed and {dt for _, dt in fed} == {np.dtype(np.float32)}, \
        sorted({f for f in fed if f[1] != np.float32})
    seen = []

    def checked(fn):
        def backward_fn(g):
            grads = fn(g)
            seen.extend((fn.__qualname__, gi.dtype) for gi in grads if gi is not None)
            return grads
        return backward_fn

    for node in tape.nodes:
        assert node.out.data.dtype == np.float32, node.backward_fn.__qualname__
        node.backward_fn = checked(node.backward_fn)
    backward(loss)
    opt.step()
    assert seen and {dt for _, dt in seen} == {np.dtype(np.float32)}, \
        sorted({s for s in seen if s[1] != np.float32})
    for name, p in model.named_parameters():
        assert p.data.dtype == p.grad.dtype == np.float32, name
        assert opt._m[name].dtype == opt._v[name].dtype == np.float32, name


def test_float32_gradients_agree_with_float64():
    """All parameters perturbed, so zero-initialised layers carry gradient
    too; the float32 gradient of total_loss is the float64 one to 1e-4
    relative L2."""
    sample = make_dataset(SynthSpec(seed=5, count=1, size=64))[0]
    perturb = np.random.default_rng(6)
    state = None
    grads = {}
    for dtype in (np.float64, np.float32):
        with E.precision(dtype):
            model = TecNet(nano_config(), seed=0)
            if state is None:
                for _, p in model.named_parameters():
                    p.data += 0.05 * perturb.standard_normal(p.shape)
                state = dict(model.state_arrays())
            else:
                model.load_state(state)
            with Tape():
                loss, _ = total_loss(model.forward(sample.image), Tensor(sample.mask), 0.5)
            backward(loss)
            grads[dtype] = np.concatenate(
                [p.grad.reshape(-1).astype(np.float64) for p in model.parameters()])
    ref, got = grads[np.float64], grads[np.float32]
    assert np.linalg.norm(got - ref) < 1e-4 * np.linalg.norm(ref)


def test_train_writes_log_and_checkpoint(tmp_path):
    res, model, data = _tiny_run(tmp_path)
    assert os.path.exists(res.checkpoint_path)
    with open(res.log_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [list(r.keys()) for r in rows] == [LOG_FIELDS] * 2
    assert rows[0]["step"] == "1"
    assert float(rows[0]["lambda"]) == pytest.approx(math.exp(-5.0))


def test_train_step_budget_is_exact(tmp_path):
    res, _, _ = _tiny_run(tmp_path, steps=3)
    assert len(res.history) == 3
    assert res.summary["steps"] == 3


def test_train_loss_decreases_on_tiny_problem(tmp_path):
    res, _, _ = _tiny_run(tmp_path, steps=12, batch_size=4)
    assert res.history[-1]["loss_total"] < res.history[0]["loss_total"]


def test_train_is_deterministic(tmp_path):
    res1, m1, _ = _tiny_run(tmp_path / "a", steps=2)
    res2, m2, _ = _tiny_run(tmp_path / "b", steps=2)
    assert res1.history[-1]["loss_total"] == res2.history[-1]["loss_total"]
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)


def test_eval_after_reload_matches_summary(tmp_path):
    res, model, data = _tiny_run(tmp_path)
    reloaded = load_model(res.checkpoint_path)
    again = evaluate_dice(reloaded, data[:2])
    assert abs(again - res.summary["val_dice"]) < 1e-9


def test_checkpoint_reload_is_bit_identical_to_live_model(tmp_path):
    # train() scores the live model, so its reload must hold the same bits
    res, model, _ = _tiny_run(tmp_path)
    reloaded = load_model(res.checkpoint_path)
    for (n1, a1), (n2, a2) in zip(model.state_arrays(), reloaded.state_arrays(), strict=True):
        assert n1 == n2 and a1.dtype == a2.dtype
        assert np.array_equal(a1, a2), n1


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    res, model, _ = _tiny_run(tmp_path)
    from tecnet.tensorio import save_checkpoint
    reloaded = load_model(res.checkpoint_path)
    second = str(tmp_path / "again.tect")
    save_checkpoint(second, reloaded.state_arrays(), reloaded.cfg.to_dict())
    with open(res.checkpoint_path, "rb") as a, open(second, "rb") as b:
        assert a.read() == b.read()
    with open(res.checkpoint_path + ".json") as a, open(second + ".json") as b:
        assert a.read() == b.read()


def test_divergence_raises():
    data = make_dataset(SynthSpec(seed=5, count=2, size=64))
    model = TecNet(nano_config(), seed=1)
    model.head_tec.weight.data[:] = np.nan
    with pytest.raises(TrainingDiverged):
        train(model, data, TrainSchedule(steps=1, batch_size=2, lr=1e-3))


def test_empty_training_set_rejected():
    with pytest.raises(ConfigurationError):
        train(TecNet(nano_config(), seed=0), [], TrainSchedule(steps=1))


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        TrainSchedule(steps=0)
    with pytest.raises(ConfigurationError):
        TrainSchedule(batch_size=0)
    with pytest.raises(ConfigurationError):
        TrainSchedule(total_epochs=0)


def test_lambda_rises_during_steps_mode(tmp_path):
    res, _, _ = _tiny_run(tmp_path, steps=4, batch_size=4)
    lams = [r["lambda"] for r in res.history]
    assert lams == sorted(lams)
    assert lams[0] < lams[-1]
