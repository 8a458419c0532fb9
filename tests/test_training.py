"""Loss blending, optimizer behavior, and the training loop contract."""

import csv
import gc
import inspect
import json
import math
import os
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from oracles import per_sample_step
from tecnet import Tape, Tensor, backward
from tecnet import engine as E
from tecnet.errors import ConfigurationError, TrainingDiverged, UsageError
from tecnet.metrics import confusion_metrics
from tecnet.model import TecNet, nano_config, read_config
from tecnet.nn import Linear, capture
from tecnet.synth import SynthSpec, make_dataset
from tecnet.training import (LOG_FIELDS, Adam, PlateauHalver, TrainSchedule,
                             _learn, branch_loss, evaluate_dice, evaluate_loss,
                             load_model, loss_coefficients, predict_batch,
                             predict_probs, ramp_coefficient, soft_dice_score,
                             stack, total_loss, train)

RNG = np.random.default_rng(31415)


# ---------------------------------------------------------------- ramp

def test_ramp_endpoints():
    assert abs(ramp_coefficient(0.0) - math.exp(-5.0)) < 1e-15
    assert ramp_coefficient(1.0) == 1.0
    assert abs(ramp_coefficient(0.5) - math.exp(-1.25)) < 1e-15


def test_ramp_clamps_and_scales():
    assert ramp_coefficient(-3.0) == ramp_coefficient(0.0)
    assert ramp_coefficient(7.0) == 1.0


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


def test_branch_loss_rejects_a_target_of_another_shape():
    """Two-channel logits against a one-channel mask once broadcast the mask
    over both channels and trained silently; now the loss names both shapes."""
    with pytest.raises(UsageError, match=r"\(2, 2, 8, 8\).*\(2, 1, 8, 8\)"):
        branch_loss(Tensor(np.zeros((2, 2, 8, 8))), Tensor(np.zeros((2, 1, 8, 8))))


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
    opt = Adam([("p", p)], lr=0.1)
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
    plateau = PlateauHalver(opt)
    assert not plateau.observe(1.0)   # first value becomes best
    assert [plateau.observe(1.0) for _ in range(10)] == [False] * 9 + [True]
    assert opt.lr == 0.5
    # improvement resets the counter
    plateau.observe(0.5)
    for _ in range(9):
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


# Tape nodes one nano train step records (forward and total_loss), at any
# batch size: each op runs once for the whole batch.  A change that moves
# this number should say why; one that splits attention back into small ops
# fails here instead of only running slower.
NANO_SAMPLE_TAPE_NODES = 1046

# Engine op calls of one untaped nano forward of one image, as the benchmark
# tracer counts them (1,285 before the batch axis, 1,189 while each Linear
# was a matmul and an add): an op added to the inference path fails here.
NANO_FORWARD_OP_CALLS = 1000

# MiB that tracemalloc sees held by the tape of one nano B=8 forward plus
# loss, and at the peak of its backward (tape included).  Backward closures
# keep only what the tape already holds plus O(T*d) operands: they read
# 154.5 and 171.2 while each attention node kept its [n, heads, T, T]
# probabilities and each convolution its padded input and im2col columns,
# and 82.9 and 107.6 once backward recomputed them.  The peak fell to 91.7
# when the one-feature-per-head attention backward stopped forming the
# softmax Jacobian's T x T buffers, and both fell by 2.1 (to 80.8 and 89.7)
# when LPM stopped permuting its map for the depthwise conv (80.5 and 89.4
# once the window and patch cuts became token gathers).  The peak fell to
# 87.9 when the rank-one attention kernel formed its exponentials a block
# of windows at a time.  Both fell by 6.0 (to 74.5 and 81.9) when each
# Linear became one `linear` node and the tape stopped holding its
# pre-bias product.  The bounds sit about 5% above; a closure that keeps a
# T x T buffer again fails here.
NANO_STEP_TAPE_MB = 78
NANO_BACKWARD_PEAK_MB = 86


def test_tape_budget_of_one_nano_train_sample():
    """One sample or a batch of 8: the step's tape has the same nodes."""
    model = TecNet(nano_config(), seed=0)
    acam_layers = sum(len(stage.blocks) for stage in model.trans_stages)
    ddconv_layers = sum(name.endswith(".kernels") for name, _ in model.named_parameters())
    with capture() as (outputs, _):
        model.forward(stack(make_dataset(SynthSpec(seed=5, count=1, size=64)))[0])
    linear_calls = sum(isinstance(m, Linear) for m in outputs)
    for batch in (1, 8):
        images, masks = stack(make_dataset(SynthSpec(seed=5, count=batch, size=64)))
        with Tape() as tape:
            loss, _ = total_loss(model.forward(images), Tensor(masks), 0.5)
        ops = [node.backward_fn.__qualname__.split(".")[0] for node in tape.nodes]
        assert ops.count("attention") == 4 * acam_layers     # one node per branch
        assert ops.count("softmax") == ddconv_layers          # only the kernel gates
        assert ops.count("linear") == linear_calls            # one node per Linear call
        assert ops.count("matmul") == 2 * ddconv_layers       # DDConv's blend and product
        assert len(ops) == NANO_SAMPLE_TAPE_NODES, batch


def test_memory_budget_of_one_nano_train_step():
    model = TecNet(nano_config(), seed=0)
    images, masks = stack(make_dataset(SynthSpec(seed=5, count=8, size=64)))

    def forward_and_loss():
        with Tape():
            loss, _ = total_loss(model.forward(images), Tensor(masks), 0.5)
        return loss

    backward(forward_and_loss())            # warm-up: lazy caches fill here
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = forward_and_loss()
        tape_mb = (tracemalloc.get_traced_memory()[0] - base) / 2**20
        tracemalloc.reset_peak()
        backward(loss)
        peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert tape_mb <= NANO_STEP_TAPE_MB
    assert peak_mb <= NANO_BACKWARD_PEAK_MB


# Permute nodes (each one a copy) of one nano train step at B=8, per
# attention mode.  They read 140, 221 and 122 while the window machinery
# moved maps channels-first and back, 131, 149 and 86 while the LPM ghost
# conv did, and 113, 131 and 68 while the window and patch cuts permuted
# (now `gather_tokens` moves); the rest come from ACAM's channel and cross
# branches, ChannelNorm and decoder fusion.
NANO_STEP_PERMUTES = {"acam": 89, "acam_shared_kv": 107, "window_attention": 44}
ATTENTION_MODES = {"acam": {}, "acam_shared_kv": {"shared_kv": True},
                   "window_attention": {"use_acam": False}}


@pytest.mark.parametrize("mode", sorted(ATTENTION_MODES))
def test_permute_nodes_of_one_nano_train_step(mode):
    model = TecNet(nano_config(**ATTENTION_MODES[mode]), seed=0)
    images, masks = stack(make_dataset(SynthSpec(seed=5, count=8, size=64)))
    with Tape() as tape:
        loss, _ = total_loss(model.forward(images), Tensor(masks), 0.5)
    ops = [node.backward_fn.__qualname__.split(".")[0] for node in tape.nodes]
    assert ops.count("permute") == NANO_STEP_PERMUTES[mode]


def test_op_calls_of_one_nano_forward(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracer

    model = TecNet(nano_config(), seed=0)
    image = make_dataset(SynthSpec(seed=5, count=1, size=64))[0].image
    with tracer.Tracer() as tr:
        model.forward(image[None])
    assert sum(tr.op_calls.values()) <= NANO_FORWARD_OP_CALLS


def test_dropped_loss_frees_its_tape_without_the_cycle_collector():
    """The tape holds no reference cycle: with the cyclic collector off,
    dropping the loss and the tape after backward frees both the tape and
    the arrays its nodes recorded."""
    model = TecNet(nano_config(), seed=0)
    images, masks = stack(make_dataset(SynthSpec(seed=5, count=2, size=64)))
    gc.disable()
    try:
        with Tape() as tape:
            loss, _ = total_loss(model.forward(images), Tensor(masks), 0.5)
        backward(loss)
        nodes = tape.nodes
        tape_alive, out_alive = weakref.ref(tape), weakref.ref(nodes[len(nodes) // 2].out.data)
        del tape, nodes, loss
        assert tape_alive() is None and out_alive() is None
    finally:
        gc.enable()


def test_batched_step_equals_per_sample_loop(monkeypatch):
    """Under float64, train()'s one-tape step over 8 samples gives the mean
    loss and every parameter gradient of the per-sample loop to 1e-10."""
    samples = make_dataset(SynthSpec(seed=5, count=8, size=64))
    grads = []
    monkeypatch.setattr(Adam, "step", lambda self: grads.append(
        {name: p.grad.copy() for name, p in self.params}))
    with E.precision(np.float64):
        model = TecNet(nano_config(), seed=0)
        perturb = np.random.default_rng(8)
        for _, p in model.named_parameters():   # every layer carries gradient
            p.data += 0.05 * perturb.standard_normal(p.shape)
        res = train(model, samples, TrainSchedule(steps=1, batch_size=8, seed=0))
        for p in model.parameters():
            p.zero_grad()
        want = per_sample_step(model, samples, res.history[0]["lambda"])
    assert abs(res.history[0]["loss_total"] - want["loss_total"]) <= 1e-10 * want["loss_total"]
    scale = math.sqrt(sum(np.sum(p.grad ** 2) for p in model.parameters()))
    for name, p in model.named_parameters():
        got = grads[0][name]
        if ".k_" in name and name.endswith(".bias"):
            # a key bias adds the same q.b to every logit of a query's row,
            # which softmax ignores: its gradient is zero up to rounding
            assert max(np.linalg.norm(got), np.linalg.norm(p.grad)) <= 1e-15 * scale, name
        else:
            assert np.linalg.norm(got - p.grad) <= 1e-10 * np.linalg.norm(p.grad), name


def test_log_columns_time_throughput_and_gradient_norm(tmp_path, monkeypatch):
    norms = []
    step = Adam.step

    def recording_step(self):
        norms.append(math.sqrt(sum(np.sum(p.grad.astype(np.float64) ** 2) for _, p in self.params)))
        step(self)

    monkeypatch.setattr(Adam, "step", recording_step)
    res, _, _ = _tiny_run(tmp_path, steps=2, batch_size=2)
    for row, norm in zip(res.history, norms, strict=True):
        for key in ("wall_ms", "samples_per_s", "grad_norm"):
            assert math.isfinite(row[key]) and row[key] > 0, key
        assert row["samples_per_s"] == 2 / row["wall_ms"] * 1e3
        assert row["grad_norm"] == pytest.approx(norm, rel=1e-5)
    with open(res.log_path) as fh:
        logged = list(csv.DictReader(fh))
    assert float(logged[0]["grad_norm"]) == pytest.approx(res.history[0]["grad_norm"], rel=1e-6)


def test_chunked_evaluation_matches_one_image_at_a_time():
    """evaluate_loss and evaluate_dice run stacked chunks; they score 10
    samples (a full and a partial chunk) as the one-image path does."""
    samples = make_dataset(SynthSpec(seed=6, count=10, size=64))
    model = TecNet(nano_config(), seed=2)
    singles = [total_loss(model.forward(s.image[None]), Tensor(s.mask[None]), 0.3)[1]["loss_total"]
               for s in samples]
    assert evaluate_loss(model, samples, 0.3) == pytest.approx(np.mean(singles), rel=1e-5)
    probs = [predict_probs(model, s.image)["y_tec"] for s in samples]
    assert probs[0].shape == (1, 64, 64)
    dice = np.mean([confusion_metrics(p[0] >= 0.5, s.mask[0] > 0.5)["DI"] for p, s in zip(probs, samples)])
    assert evaluate_dice(model, samples) == pytest.approx(dice, abs=1e-9)


def test_nano_train_step_is_float32_throughout(monkeypatch):
    """Forward, total_loss, backward and Adam at the default dtype: every
    float array an engine op is given, every tape-node output, every
    gradient handed between nodes, every .grad and every Adam moment is
    float32."""
    model = TecNet(nano_config(), seed=0)
    image, mask = stack(make_dataset(SynthSpec(seed=5, count=2, size=64)))
    # fill the layers' mask and tap-grid caches and the upsampling cache under
    # float64 first, so a cache that ignores the dtype leaks into the step below
    with E.precision(np.float64):
        model.forward(image)
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
        loss, _ = total_loss(model.forward(image), Tensor(mask), 0.5)
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
                loss, _ = total_loss(model.forward(sample.image[None]), Tensor(sample.mask[None]), 0.5)
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


def test_parameters_carry_no_gradient_until_a_backward_reaches_them(tmp_path):
    """Loading and predicting allocate no gradient buffer; one learning step
    gives every parameter one."""
    from tecnet.tensorio import save_checkpoint
    path = str(tmp_path / "fresh.tect")
    live = TecNet(nano_config(), seed=1)
    save_checkpoint(path, live.state_arrays(), live.cfg.to_dict())
    model = load_model(path)
    images, masks = stack(make_dataset(SynthSpec(seed=5, count=2, size=64)))
    predict_batch(model, images)
    assert all(p.grad is None for p in model.parameters())
    _learn(model, images, masks, 0.5)
    assert all(p.grad is not None and p.grad.shape == p.shape for p in model.parameters())


@pytest.mark.parametrize("key,kept", [("num_classes", 1), ("patch", 4), ("n_kernels", 4)])
def test_checkpoint_naming_a_retired_model_key_loads(tmp_path, key, kept):
    """A manifest and config written before `key` was retired name it as
    `kept`, and the manifest hashes it; the checkpoint loads against that
    config and predicts byte-identically."""
    from tecnet.tensorio import config_hash, save_checkpoint
    live = TecNet(nano_config(), seed=1)
    old = {**live.cfg.to_dict(), key: kept}
    path = str(tmp_path / "old.tect")
    save_checkpoint(path, live.state_arrays(), old)
    with open(path + ".json") as fh:
        assert json.load(fh)["config_hash"] == config_hash(old)
    model = load_model(path, expected_config=old)
    assert model.cfg == live.cfg
    images = RNG.random((2, 1, 64, 64)).astype(np.float32)
    want, got = predict_batch(live, images), predict_batch(model, images)
    assert all(got[head].tobytes() == want[head].tobytes() for head in want)


def test_load_model_checks_the_expected_config_field_by_field(tmp_path):
    from tecnet.tensorio import save_checkpoint
    live = TecNet(nano_config(), seed=1)
    path = str(tmp_path / "c.tect")
    save_checkpoint(path, live.state_arrays(), live.cfg.to_dict())
    # key order and lists for tuples do not matter; values do
    again = json.loads(json.dumps(dict(reversed(live.cfg.to_dict().items()))))
    assert load_model(path, expected_config=again).cfg == live.cfg
    with pytest.raises(UsageError, match=r"c\.tect: .*heads \(1, 2, 4, 8, 4, 2, 1\) in the "
                                         r"checkpoint, \(2, 2, 4, 8, 4, 2, 2\) in the config$"):
        load_model(path, expected_config=nano_config(heads=(2, 2, 4, 8, 4, 2, 2)).to_dict())


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


TRAIN_SECTION = {"total_epochs": 5, "batch_size": 4, "lr": 1e-3, "seed": 0}


@pytest.mark.parametrize("field,value", [
    ("lr", -1.0), ("lr", 0.0), ("lr", float("inf")), ("lr", "0.001"), ("delta", 0.0),
    ("delta", 1.5),
    ("plateau_factor", 2.0), ("plateau_factor", 0.0), ("plateau_patience", 0),
    ("plateau_patience", None), ("seed", -1), ("batch_size", True), ("total_epochs", 2.5)])
def test_schedule_rejects_out_of_range_values(field, value):
    """A train section holding any of these fails naming the field; the
    delta and plateau keys are retired, and these values never were theirs."""
    with pytest.raises(ConfigurationError, match=f"config field {field} "):
        read_config(TrainSchedule, {**TRAIN_SECTION, field: value}, steps=1)


def test_schedule_accepts_range_edges():
    # ints where floats are asked for, and the closed ends of each range
    sched = TrainSchedule(steps=1, total_epochs=0, lr=1, seed=0)
    assert sched.lr == 1 and sched.total_epochs == 0


def test_retired_train_keys_read_as_absent():
    """Train sections written while delta and the plateau settings were
    fields name them with the values that are now constants; those read as
    the section without them."""
    plain = read_config(TrainSchedule, TRAIN_SECTION, steps=None)
    for retired in ({"delta": 1}, {"delta": 1.0}, {"plateau_patience": 10},
                    {"plateau_factor": 0.5},
                    {"delta": 1.0, "plateau_patience": 10, "plateau_factor": 0.5}):
        assert read_config(TrainSchedule, {**TRAIN_SECTION, **retired}, steps=None) == plain
    assert len(fields(TrainSchedule)) == 5


@pytest.mark.parametrize("key,value", [
    ("delta", True), ("delta", "1"), ("delta", None), ("delta", 0.4), ("delta", 2),
    ("plateau_patience", 10.0), ("plateau_patience", True), ("plateau_patience", "10"),
    ("plateau_patience", None), ("plateau_patience", 3),
    ("plateau_factor", True), ("plateau_factor", "0.5"), ("plateau_factor", None),
    ("plateau_factor", 0.25), ("plateau_factor", 1)])
def test_retired_train_key_rejects_other_values(key, value):
    with pytest.raises(ConfigurationError, match=f"^config field {key} is retired "):
        read_config(TrainSchedule, {**TRAIN_SECTION, key: value}, steps=None)


def test_lambda_rises_during_steps_mode(tmp_path):
    res, _, _ = _tiny_run(tmp_path, steps=4, batch_size=4)
    lams = [r["lambda"] for r in res.history]
    assert lams == sorted(lams)
    assert lams[0] < lams[-1]
