"""Acceptance gate: one test per shipping criterion, at stated tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Budgeted criteria assert their own wall-clock limits, so a pass
here is also a statement about CPU cost on the machine that ran it.
"""

import gc
import math
import time

import numpy as np

from oracles import confusion_loop, surface_pool_loop
from tecnet import Tensor
from tecnet import engine as E
from tecnet.attention import (ACAM, cost_acam, cost_msa, cost_swmsa, crop_to,
                              pad_to_window, shift_mask, window_partition,
                              window_reverse)
from tecnet.blocks import LPM
from tecnet.ddconv import DDConv
from tecnet.gradcheck import check_gradients, max_rel_err
from tecnet.metrics import confusion_metrics, surface_metrics, volume_metrics
from tecnet.model import (TecNet, TransStage, base_config, count_flops,
                          count_params, nano_config, tiny_config)
from tecnet.synth import SynthSpec, make_dataset
from tecnet.training import (TrainSchedule, loss_coefficients, predict_probs,
                             ramp_coefficient, soft_dice_score, total_loss,
                             train)

RNG = np.random.default_rng(1234)


def _leaf(*shape, loc=0.0, scale=1.0):
    return Tensor(loc + scale * RNG.standard_normal(shape), requires_grad=True)


def _fd(fn, leaves, tol, label, max_coords=None, h=1e-4):
    rows = check_gradients(fn, leaves, h=h, max_coords=max_coords,
                           rng=np.random.default_rng(0))
    worst = max_rel_err(rows)
    assert worst < tol, f"{label}: worst relative error {worst:.3e} >= {tol}"
    return worst


def test_criterion_01_gradient_fidelity():
    """Tape gradients match central differences: every primitive < 1e-4,
    composed modules < 1e-4, full model + loss < 1e-3; under 5 minutes."""
    with E.precision(np.float64):   # finite differences need float64 leaves
        t0 = time.time()
        worsts = {}

        # -- primitives --------------------------------------------------------
        a, b = _leaf(3, 4), _leaf(3, 4)
        c = _leaf(3, 4, loc=3.0)
        worsts["arith"] = _fd(lambda: ((a + b) * (a - b) / c - (-a)).sum(),
                              [("a", a), ("b", b), ("c", c)], 1e-4, "arith")

        u, v, w3 = _leaf(2, 3, 4), _leaf(4), _leaf(3, 1)
        worsts["broadcast"] = _fd(lambda: ((u * v + w3) * (u + 2.0)).sum(),
                                  [("u", u), ("v", v), ("w", w3)], 1e-4, "broadcast")

        m1, m2 = _leaf(3, 4), _leaf(4, 5)
        worsts["matmul"] = _fd(lambda: (m1 @ m2).sum(), [("a", m1), ("b", m2)],
                               1e-4, "matmul")
        b1, b2 = _leaf(2, 3, 4), _leaf(2, 4, 5)
        wb = Tensor(RNG.standard_normal((2, 3, 5)))
        worsts["matmul_batched"] = _fd(lambda: ((b1 @ b2) * wb).sum(),
                                       [("a", b1), ("b", b2)], 1e-4, "matmul_batched")

        r = _leaf(2, 3, 4)
        worsts["reduce"] = _fd(
            lambda: E.reduce_sum(r, axis=(0, 2)).sum() + E.mean_all(r) * 2.0
            + E.reduce_sum(r, axis=1, keepdims=True).sum(),
            [("r", r)], 1e-4, "reduce")

        s = _leaf(2, 3, 4)
        ws = Tensor(RNG.standard_normal((4, 6)))
        worsts["reshape_permute"] = _fd(
            lambda: (s.permute(1, 0, 2).reshape(6, 4) @ ws).sum().reshape(()).sum(),
            [("s", s)], 1e-4, "reshape_permute")

        g1, g2 = _leaf(3, 4), _leaf(2, 4)
        wg = Tensor(RNG.standard_normal((5, 4)))
        worsts["getitem_concat"] = _fd(
            lambda: (E.concat([g1, g2], axis=0) * wg).sum() + (g1[1:, :2] * g1[:2, 2:]).sum(),
            [("a", g1), ("b", g2)], 1e-4, "getitem_concat")

        p = _leaf(2, 3, 3)
        wp = Tensor(RNG.standard_normal((2, 6, 5)))
        wr = Tensor(RNG.standard_normal((2, 3, 3)))
        worsts["pad_roll"] = _fd(
            lambda: (E.pad2d(p, 1, 2, 0, 2) * wp).sum() + (E.roll2d(p, 2, -1) * wr).sum(),
            [("p", p)], 1e-4, "pad_roll")

        act = _leaf(3, 4)
        off = _leaf(3, 4, loc=0.4)  # clear of the ReLU kink
        worsts["activations"] = _fd(
            lambda: E.relu(off).sum() + E.gelu(act).sum() + E.sigmoid(act).sum(),
            [("a", act), ("o", off)], 1e-4, "activations")

        sm = _leaf(3, 5)
        wm = Tensor(RNG.standard_normal((3, 5)))
        ln_g, ln_b = _leaf(5), _leaf(5)
        worsts["softmax_layernorm"] = _fd(
            lambda: (E.softmax(sm, axis=-1) * wm).sum() + (E.layernorm(sm, ln_g, ln_b) * wm).sum(),
            [("x", sm), ("g", ln_g), ("b", ln_b)], 1e-4, "softmax_layernorm")

        cx = _leaf(2, 6, 6)
        cw = _leaf(3, 2, 3, 3, scale=0.5)
        cb = _leaf(3)
        w_s1 = Tensor(RNG.standard_normal((3, 6, 6)))
        w_s2 = Tensor(RNG.standard_normal((3, 3, 3)))
        worsts["conv2d"] = _fd(
            lambda: (E.conv2d(cx, cw, cb, padding=1) * w_s1).sum()
            + (E.conv2d(cx, cw, None, stride=2, padding=1) * w_s2).sum(),
            [("x", cx), ("w", cw), ("b", cb)], 1e-4, "conv2d")

        dx = _leaf(3, 5, 5)
        dw = _leaf(3, 3, 3, scale=0.5)
        db = _leaf(3)
        wd = Tensor(RNG.standard_normal((3, 5, 5)))
        worsts["depthwise"] = _fd(lambda: (E.depthwise_conv2d(dx, dw, db) * wd).sum(),
                                  [("x", dx), ("w", dw), ("b", db)], 1e-4, "depthwise")

        gx = _leaf(2, 5, 5)
        gys = Tensor(RNG.uniform(0.2, 3.7, 7) + 0.07, requires_grad=True)
        gxs = Tensor(RNG.uniform(0.2, 3.7, 7) + 0.13, requires_grad=True)
        wgt = Tensor(RNG.standard_normal((2, 7)))
        worsts["bilinear_gather"] = _fd(
            lambda: (E.bilinear_gather(gx, gys, gxs) * wgt).sum(),
            [("x", gx), ("ys", gys), ("xs", gxs)], 1e-4, "bilinear_gather")

        px = _leaf(3, 4, 4)
        table = _leaf(6, 3)
        idx = np.array([0, 2, 2, 5])
        wt = Tensor(RNG.standard_normal((4, 3)))
        wu = Tensor(RNG.standard_normal((3, 8, 8)))
        worsts["pool_select_upsample"] = _fd(
            lambda: (E.global_avg_pool(px) * Tensor([1.0, -2.0, 0.5])).sum()
            + (E.index_select(table, idx) * wt).sum()
            + (E.upsample_nearest(px, 2) * wu).sum()
            + (E.upsample_bilinear(px, 2) * wu).sum(),
            [("x", px), ("t", table)], 1e-4, "pool_select_upsample")

        # -- composed modules --------------------------------------------------
        rng_mod = np.random.default_rng(7)
        dd = DDConv(2, 3, n_kernels=2, rng=rng_mod)
        dd.offset_head.bias.data[:] = RNG.uniform(0.2, 0.45, dd.offset_head.bias.size)
        ddx = _leaf(2, 6, 6)
        ddw = Tensor(RNG.standard_normal((3, 6, 6)))
        worsts["ddconv"] = _fd(lambda: (dd(ddx) * ddw).sum(),
                               list(dd.named_parameters()) + [("x", ddx)],
                               1e-4, "ddconv", max_coords=6)

        for shifted in (False, True):
            acam = ACAM(8, 2, heads=1, shifted=shifted, rng=np.random.default_rng(8))
            ax = _leaf(8, 4, 4)
            aw = Tensor(RNG.standard_normal((8, 4, 4)))
            worsts[f"acam_shifted={shifted}"] = _fd(
                lambda: (acam(ax) * aw).sum(),
                list(acam.named_parameters()) + [("x", ax)],
                1e-4, f"acam shifted={shifted}", max_coords=4)

        lpm = LPM(8, rng=np.random.default_rng(9))
        lpm.out.weight.data[:] = 0.1 * RNG.standard_normal(lpm.out.weight.shape)
        lt = _leaf(16, 8)
        lw = Tensor(RNG.standard_normal((16, 8)))
        worsts["lpm"] = _fd(lambda: (lpm(lt.reshape(4, 4, 8)).reshape(16, 8) * lw).sum(),
                            list(lpm.named_parameters()) + [("t", lt)],
                            1e-4, "lpm", max_coords=5)

        stage = TransStage(8, 2, 2, 1, True, True, False, rng=np.random.default_rng(10))
        for name, prm in stage.named_parameters():
            if prm.ndim >= 2 and np.all(prm.data == 0):
                prm.data[:] = 0.05 * RNG.standard_normal(prm.shape)
        bt = _leaf(16, 8)
        bw = Tensor(RNG.standard_normal((16, 8)))
        worsts["trans_stage"] = _fd(lambda: (stage(bt.reshape(4, 4, 8)).reshape(16, 8) * bw).sum(),
                                    list(stage.named_parameters()) + [("t", bt)],
                                    1e-4, "trans_stage", max_coords=3)

        # -- full model + loss -------------------------------------------------
        model = TecNet(nano_config(), seed=0)
        gen = np.random.default_rng(42)
        for name, prm in model.named_parameters():
            if name.endswith("offset_head.bias"):
                # move deformable sampling off the integer lattice, where the
                # bilinear interpolant is not differentiable and FD straddles it
                sign = np.where(gen.random(prm.shape) < 0.5, 1.0, -1.0)
                prm.data[:] = gen.uniform(0.2, 0.45, prm.shape) * sign
            elif prm.ndim >= 2 and np.all(prm.data == 0):
                prm.data[:] = 0.02 * gen.standard_normal(prm.shape)
        sample = make_dataset(SynthSpec(seed=7, count=1, size=64))[0]
        target = Tensor(sample.mask)
        lam = ramp_coefficient(0.5)

        def loss_fn():
            return total_loss(model.forward(sample.image), target, lam)[0]

        worsts["full_model"] = _fd(loss_fn, list(model.named_parameters()),
                                   1e-3, "full model", max_coords=1)

        elapsed = time.time() - t0
        assert elapsed < 300.0, f"gradient sweep took {elapsed:.0f}s (budget 300s)"
        print(f"\ngradient fidelity: worst per case "
              f"{ {k: float(f'{v:.2e}') for k, v in worsts.items()} }, "
              f"{elapsed:.0f}s")


def test_criterion_02_ddconv_degeneracy():
    """Zero offsets and a single candidate kernel reproduce plain conv2d
    within 1e-9 on 100 random model-shaped inputs."""
    shapes = [(16, 16, 16), (32, 8, 8), (64, 4, 4), (128, 2, 2)]
    worst = 0.0
    for trial in range(100):
        c, h, w = shapes[trial % len(shapes)]
        c_out = shapes[(trial + 1) % len(shapes)][0]
        layer = DDConv(c, c_out, k=3, n_kernels=1,
                       rng=np.random.default_rng(trial))
        x = Tensor(RNG.standard_normal((c, h, w)))
        got = layer(x).data
        want = E.conv2d(x, Tensor(layer.kernels.data[0]), layer.bias,
                        padding=1).data
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-9, f"max abs deviation {worst:.3e}"
    print(f"\nddconv degeneracy: max abs deviation {worst:.3e} over 100 inputs")


def test_criterion_03_window_machinery():
    """Partition/reverse and shift/unshift are exact inverses on all shapes
    in {8,16,28}^2 x {4,7}; masked attention mass < 1e-8 per shifted window."""
    for hw in (8, 16, 28):
        for m in (4, 7):
            x = Tensor(RNG.standard_normal((8, hw, hw)))
            xp, _ = pad_to_window(x, m)
            hp, wp = xp.shape[1], xp.shape[2]
            back = crop_to(window_reverse(window_partition(xp, m), m, hp, wp),
                           hw, hw)
            assert np.array_equal(back.data, x.data), f"partition {hw}x{hw} M={m}"

            s = m // 2
            rb = E.roll2d(E.roll2d(x, -s, -s), s, s)
            assert np.array_equal(rb.data, x.data), f"shift {hw}x{hw} M={m}"

            layer = ACAM(8, m, heads=1, shifted=True,
                         rng=np.random.default_rng(hw * m))
            collect = {}
            layer(x, collect=collect)
            attn = collect["spatial"]
            mask = shift_mask(hp, wp, m, s)
            blocked = mask < 0
            for widx in range(attn.shape[0]):
                mass = float(attn[widx][:, blocked[widx]].sum())
                assert mass < 1e-8, f"window {widx} mass {mass:.2e} ({hw}, {m})"
    print("\nwindow machinery: exact inverses and masked mass < 1e-8 on all shapes")


def test_criterion_04_complexity_model():
    """Cost formulas equal hand arithmetic on the h/w/C/M grid, reproduce
    the reference triple, and respect both orderings."""
    assert cost_msa(8, 8, 16) == 196608
    assert cost_swmsa(8, 8, 16, 4) == 98304
    assert cost_acam(8, 8, 16, 4) == 20480
    points = 0
    for h in (8, 16, 56):
        for w in (8, 16, 56):
            for c in (16, 96):
                for m in (4, 7):
                    hw = h * w
                    assert cost_msa(h, w, c) == 4 * hw * c * c + 2 * hw * hw * c
                    assert cost_swmsa(h, w, c, m) == 4 * hw * c * c + 2 * m * m * hw * c
                    assert cost_acam(h, w, c, m) == (hw * c * c) // 4 + m * m * hw * c
                    assert cost_acam(h, w, c, m) < cost_swmsa(h, w, c, m)
                    if hw > m * m:
                        assert cost_swmsa(h, w, c, m) < cost_msa(h, w, c)
                    points += 1
    print(f"\ncomplexity model: {points} grid points exact, orderings hold")


def test_criterion_05_loss_algebra():
    """Blend coefficients sum to 1; ramp endpoint exact; ramp monotone."""
    for k in (0.0, 0.25, 0.5, 1.0):
        total = sum(loss_coefficients(k))
        assert abs(total - 1.0) < 1e-15, f"k={k}: coefficients sum {total}"
    assert abs(ramp_coefficient(0.0, 1.0) - math.exp(-5.0)) < 1e-12
    grid = np.linspace(0.0, 1.0, 100)
    vals = [ramp_coefficient(k) for k in grid]
    assert all(b > a for a, b in zip(vals, vals[1:])), "ramp not monotone"
    print(f"\nloss algebra: sums exact, lambda(0) = {vals[0]:.10f}, monotone")


def test_criterion_06_overfit():
    """300 full-batch steps on 8 samples reach soft Dice > 0.95 with a
    decisive loss decrease, inside 10 minutes."""
    t0 = time.time()
    data = make_dataset(SynthSpec(seed=7, count=8, size=64, gap=0.6, noise=0.05))
    model = TecNet(nano_config(), seed=0)
    sched = TrainSchedule(steps=300, batch_size=8, lr=1e-3, seed=0)
    result = train(model, data, sched)

    dices = [soft_dice_score(predict_probs(model, s.image)["y_tec"], s.mask)
             for s in data]
    mean_dice = float(np.mean(dices))
    head = float(np.mean([r["loss_total"] for r in result.history[:20]]))
    tail = float(np.mean([r["loss_total"] for r in result.history[280:300]]))
    elapsed = time.time() - t0

    assert mean_dice > 0.95, f"soft Dice {mean_dice:.4f} <= 0.95"
    assert tail < head, f"no improvement: tail {tail:.4f} vs head {head:.4f}"
    assert elapsed < 600.0, f"overfit run took {elapsed:.0f}s (budget 600s)"
    print(f"\noverfit: soft Dice {mean_dice:.4f}, loss {head:.4f} -> {tail:.4f}, "
          f"{elapsed:.0f}s")


def test_criterion_07_generalization():
    """5 epochs over 200 samples generalize to held-out DI > 80 in 30 min."""
    t0 = time.time()
    data = make_dataset(SynthSpec(seed=11, count=232, size=64, gap=0.6, noise=0.05))
    train_set, val_set = data[:200], data[200:]
    model = TecNet(nano_config(), seed=0)
    sched = TrainSchedule(total_epochs=5, batch_size=4, lr=1e-3, seed=0)
    train(model, train_set, sched, val_samples=val_set)

    scores = []
    for s in val_set:
        pred = predict_probs(model, s.image)["y_tec"][0] >= 0.5
        scores.append(confusion_metrics(pred, s.mask[0] > 0.5)["DI"])
    mean_di = float(np.mean(scores))
    elapsed = time.time() - t0

    assert mean_di > 80.0, f"held-out DI {mean_di:.2f} <= 80"
    assert elapsed < 1800.0, f"run took {elapsed:.0f}s (budget 1800s)"
    print(f"\ngeneralization: held-out DI {mean_di:.2f} over 32 samples, {elapsed:.0f}s")


def test_criterion_08_metric_oracles():
    """Vectorized metrics equal brute-force loop oracles exactly on 50
    random pairs up to 32x32; RMSD >= ASD and HD95 <= max throughout."""
    rng = np.random.default_rng(88)
    checked = 0
    while checked < 50:
        size = int(rng.integers(8, 33))
        pred = rng.random((size, size)) < rng.uniform(0.2, 0.7)
        gt = rng.random((size, size)) < rng.uniform(0.2, 0.7)
        if not pred.any() or not gt.any():
            continue

        got = confusion_metrics(pred, gt)
        tp, fp, fn, tn = confusion_loop(pred, gt)
        assert got["DI"] == (100.0 * 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 100.0)
        assert got["JA"] == (100.0 * tp / (tp + fp + fn) if tp + fp + fn else 100.0)
        assert got["SE"] == (100.0 * tp / (tp + fn) if tp + fn else 100.0)
        assert got["SP"] == (100.0 * tn / (tn + fp) if tn + fp else 100.0)
        assert got["AC"] == 100.0 * (tp + tn) / (tp + fp + fn + tn)

        vol = volume_metrics(pred, gt)
        inter = sum(1 for i in range(size) for j in range(size) if pred[i, j] and gt[i, j])
        union = sum(1 for i in range(size) for j in range(size) if pred[i, j] or gt[i, j])
        npx, ngx = int(pred.sum()), int(gt.sum())
        assert vol["VOE"] == (100.0 * (1.0 - inter / union) if union else 0.0)
        assert vol["RVD"] == 100.0 * (npx - ngx) / ngx

        surf = surface_metrics(pred, gt)
        pool = surface_pool_loop(pred, gt)
        assert surf["ASD"] == float(np.mean(pool))
        assert surf["RMSD"] == float(math.sqrt(np.mean(pool ** 2)))
        assert surf["HD95"] == float(np.percentile(pool, 95))
        assert surf["RMSD"] >= surf["ASD"]
        assert surf["HD95"] <= float(pool.max())
        checked += 1
    print(f"\nmetric oracles: {checked} random pairs, exact equality throughout")


def test_criterion_09_parameter_accounting():
    """Arithmetic parameter counts equal exact enumeration (zero tolerance)
    for all three presets; measured tiny-scale numbers printed beside the
    published full-scale reference for orientation."""
    report = {}
    for factory in (nano_config, tiny_config, base_config):
        cfg = factory()
        model = TecNet(cfg, seed=0)
        enumerated = sum(p.size for _, p in model.named_parameters())
        counted = count_params(cfg)["total"]
        assert counted == enumerated, (
            f"{cfg.name}: analytic {counted:,} != enumerated {enumerated:,}")
        report[cfg.name] = counted
        del model
        gc.collect()

    tiny = tiny_config()
    macs = count_flops(tiny, input_size=224)["total"]
    print(f"\nparameter accounting: {report} all exact")
    print(f"tiny at 224x224: {report['tiny'] / 1e6:.2f} M params, "
          f"{2 * macs / 1e9:.2f} GFLOPs (2 x {macs:,} MACs); "
          f"published reference: 11.58 M params, 4.53 GFLOPs")


def test_criterion_10_module_toggles():
    """All 8 feature-toggle combinations build, train one step, and match
    their analytically predicted parameter counts exactly."""
    data = make_dataset(SynthSpec(seed=5, count=2, size=64))
    totals = {}
    for dd in (True, False):
        for ac in (True, False):
            for lp in (True, False):
                cfg = nano_config(use_ddconv=dd, use_acam=ac, use_lpm=lp)
                model = TecNet(cfg, seed=0)
                enumerated = sum(p.size for _, p in model.named_parameters())
                predicted = count_params(cfg)["total"]
                assert predicted == enumerated, (dd, ac, lp)
                totals[(dd, ac, lp)] = enumerated

                sched = TrainSchedule(steps=1, batch_size=2, lr=1e-3, seed=0)
                result = train(model, data, sched)
                loss = result.history[0]["loss_total"]
                assert math.isfinite(loss), (dd, ac, lp, loss)

    # single-toggle deltas are reproduced by the analytic counter
    base = nano_config()
    for flip in ("use_ddconv", "use_acam", "use_lpm"):
        flipped = nano_config(**{flip: False})
        predicted_delta = count_params(base)["total"] - count_params(flipped)["total"]
        measured_delta = totals[(True, True, True)] - totals[{
            "use_ddconv": (False, True, True),
            "use_acam": (True, False, True),
            "use_lpm": (True, True, False),
        }[flip]]
        assert predicted_delta == measured_delta, flip
        assert predicted_delta != 0, flip
    print(f"\nmodule toggles: 8/8 combinations trained; "
          f"param totals {sorted(set(totals.values()))}")
