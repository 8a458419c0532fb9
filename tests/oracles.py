"""Slow reference implementations shared by the test modules.

The metric references are plain loops over pixels, deliberately ignoring
the vectorized forms under test.  Distances use exact integer squares, so
the only float operations (sqrt, the final reductions) are applied to
identical values in identical order on both sides and the comparisons can
demand exact equality.

The engine references are the slow paths that fused primitives replaced:
attention composed from small tape ops, bilinear sampling as a loop over
points, and its image gradient as bincount scatters.  They perform the
same float operations in the same order as the fast paths' forwards, so
forwards compare exactly.

The training reference is the step that one batched tape replaced: a tape
per sample, each sample's loss scaled by 1/B.
"""

import math

import numpy as np

from tecnet import Tape, Tensor, backward
from tecnet import engine as E
from tecnet.training import total_loss


def confusion_loop(pred, gt):
    tp = fp = fn = tn = 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            p, g = bool(pred[i, j]), bool(gt[i, j])
            tp += p and g
            fp += p and not g
            fn += (not p) and g
            tn += (not p) and (not g)
    return tp, fp, fn, tn


def border_loop(mask):
    """Border = mask pixel with a 4-neighbour off the mask or on the edge."""
    h, w = mask.shape
    out = []
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            edge = i == 0 or j == 0 or i == h - 1 or j == w - 1
            off = any(not mask[i + di, j + dj]
                      for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1))
                      if 0 <= i + di < h and 0 <= j + dj < w)
            if edge or off:
                out.append((i, j))
    return out


def surface_pool_loop(pred, gt):
    """Directed border distances pooled both ways, row-major order."""
    bp = border_loop(pred)
    bg = border_loop(gt)
    pool = []
    for (i, j) in bp:
        pool.append(min(math.sqrt((i - y) ** 2 + (j - x) ** 2) for (y, x) in bg))
    for (y, x) in bg:
        pool.append(min(math.sqrt((i - y) ** 2 + (j - x) ** 2) for (i, j) in bp))
    return np.array(pool)


def attention_reference(q, k, v, heads=1, bias=None, mask=None):
    """Attention as a chain of tape ops: split heads, q k^T, scale, + bias, + mask, softmax, . v."""
    nw, t, d = q.shape
    dv = v.shape[2]
    qh = q.reshape(nw, t, heads, d // heads).permute(0, 2, 1, 3)
    kh = k.reshape(nw, t, heads, d // heads).permute(0, 2, 1, 3)
    vh = v.reshape(nw, t, heads, dv // heads).permute(0, 2, 1, 3)
    logits = (qh @ kh.permute(0, 1, 3, 2)) * (1.0 / math.sqrt(d))
    if bias is not None:
        logits = logits + bias
    if mask is not None:
        logits = logits + Tensor(mask.reshape(nw, 1, t, t))
    attn = E.softmax(logits, axis=-1)
    return (attn @ vh).permute(0, 2, 1, 3).reshape(nw, t, dv)


def _corners(y, x):
    """The four bilinear neighbours of (y, x) with their weights, in sampling order."""
    y0, x0 = math.floor(y), math.floor(x)
    fy, fx = y - y0, x - x0
    return ((y0, x0, (1.0 - fy) * (1.0 - fx)), (y0, x0 + 1, (1.0 - fy) * fx),
            (y0 + 1, x0, fy * (1.0 - fx)), (y0 + 1, x0 + 1, fy * fx))


def bilinear_gather_loop(img, ys, xs):
    """Sample [C, H, W] at each point: add up the on-canvas corners, in order."""
    c, h, w = img.shape
    out = np.zeros((c,) + ys.shape)
    for p in np.ndindex(ys.shape):
        acc = np.zeros(c)
        for cy, cx, wgt in _corners(float(ys[p]), float(xs[p])):
            if 0 <= cy < h and 0 <= cx < w:
                acc = acc + wgt * img[:, cy, cx]
        out[(slice(None),) + p] = acc
    return out


def bilinear_image_grad_bincount(g, ys, xs, shape):
    """Image gradient of bilinear sampling as one bincount scatter per corner."""
    c, h, w = shape
    iy0 = np.floor(ys).astype(np.int64)
    ix0 = np.floor(xs).astype(np.int64)
    fy, fx = ys - iy0, xs - ix0
    chan_base = (np.arange(c) * (h * w))[:, None]
    grad = np.zeros(c * h * w)
    for iy, ix, wgt in ((iy0, ix0, (1.0 - fy) * (1.0 - fx)), (iy0, ix0 + 1, (1.0 - fy) * fx),
                        (iy0 + 1, ix0, fy * (1.0 - fx)), (iy0 + 1, ix0 + 1, fy * fx)):
        valid = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
        idx = np.clip(iy, 0, h - 1) * w + np.clip(ix, 0, w - 1)
        keys = chan_base + idx.reshape(-1)[None, :]
        grad += np.bincount(keys.reshape(-1), weights=(g * (wgt * valid)).reshape(-1),
                            minlength=c * h * w)
    return grad.reshape(c, h, w)


def per_sample_step(model, samples, lam):
    """One training step as a loop over samples: forward, blended loss and
    backward of each sample on its own tape, the loss scaled by
    1/len(samples).  Gradients accumulate in the parameters; returns the
    mean loss parts."""
    mean = {}
    for s in samples:
        with Tape():
            loss, parts = total_loss(model.forward(s.image[None]), Tensor(s.mask[None]), lam)
            scaled = loss * (1.0 / len(samples))
        backward(scaled)
        for key, value in parts.items():
            mean[key] = mean.get(key, 0.0) + value / len(samples)
    return mean
