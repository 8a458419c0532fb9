"""Segmentation quality indicators over binary masks.

Confusion-matrix scores (DI, JA, SE, SP, AC) and volume scores (VOE, RVD)
are exact integer-count arithmetic reported on a 0..100 scale.  Surface
scores (ASD, RMSD, HD95) pool directed border-to-border distances in both
directions; borders use 4-connectivity, and pixels on the image edge count
as border.  Pixel spacing is 1.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import DimensionError, UndefinedMetricError

CSV_FIELDS = ["sample_id", "DI", "JA", "SE", "SP", "AC", "VOE", "RVD",
              "ASD", "RMSD", "HD95"]


def _as_masks(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred).astype(bool)
    g = np.asarray(gt).astype(bool)
    if p.shape != g.shape:
        raise DimensionError(f"mask shapes differ: {p.shape} vs {g.shape}")
    if p.ndim != 2:
        raise DimensionError(f"masks must be 2-D, got {p.shape}")
    return p, g


def _ratio(num: int, den: int) -> float:
    """100*num/den with the 0/0 -> 100 convention (nothing to miss)."""
    if den == 0:
        return 100.0
    return 100.0 * num / den


def confusion_metrics(pred, gt) -> dict:
    """DI, JA, SE, SP, AC on a 0..100 scale."""
    p, g = _as_masks(pred, gt)
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = int(np.count_nonzero(~p & ~g))
    return {
        "DI": _ratio(2 * tp, 2 * tp + fp + fn),
        "JA": _ratio(tp, tp + fp + fn),
        "SE": _ratio(tp, tp + fn),
        "SP": _ratio(tn, tn + fp),
        "AC": _ratio(tp + tn, tp + fp + fn + tn),
    }


def volume_metrics(pred, gt) -> dict:
    """VOE (overlap error) and RVD (signed relative volume difference)."""
    p, g = _as_masks(pred, gt)
    inter = int(np.count_nonzero(p & g))
    union = int(np.count_nonzero(p | g))
    voe = 0.0 if union == 0 else 100.0 * (1.0 - inter / union)
    ng = int(np.count_nonzero(g))
    if ng == 0:
        raise UndefinedMetricError("RVD is undefined for an empty reference mask")
    rvd = 100.0 * (int(np.count_nonzero(p)) - ng) / ng
    return {"VOE": voe, "RVD": rvd}


def border_pixels(mask) -> np.ndarray:
    """[N, 2] (row, col) coordinates of 4-connectivity border pixels.

    A mask pixel is border when any 4-neighbour lies outside the mask or
    the pixel sits on the image edge.
    """
    m = np.asarray(mask).astype(bool)
    interior = np.zeros_like(m)
    interior[1:-1, 1:-1] = (m[1:-1, 1:-1]
                            & m[:-2, 1:-1] & m[2:, 1:-1]
                            & m[1:-1, :-2] & m[1:-1, 2:])
    return np.argwhere(m & ~interior)


def surface_metrics(pred, gt) -> dict:
    """ASD, RMSD, HD95 from pooled directed border distances, both ways:
    each border pixel's distance to the nearest pixel of the other border,
    by a k-d tree query."""
    p, g = _as_masks(pred, gt)
    bp = border_pixels(p)
    bg = border_pixels(g)
    if len(bp) == 0 or len(bg) == 0:
        raise UndefinedMetricError("surface metrics need two nonempty masks")
    pool = np.concatenate([cKDTree(bg).query(bp)[0], cKDTree(bp).query(bg)[0]])
    return {
        "ASD": float(pool.mean()),
        "RMSD": float(math.sqrt(np.mean(pool ** 2))),
        "HD95": float(np.percentile(pool, 95)),
    }


def all_metrics(pred, gt) -> dict:
    """Every indicator for one mask pair; undefined entries become NaN."""
    out = confusion_metrics(pred, gt)
    try:
        out.update(volume_metrics(pred, gt))
    except UndefinedMetricError:
        out.update({"VOE": float("nan"), "RVD": float("nan")})
    try:
        out.update(surface_metrics(pred, gt))
    except UndefinedMetricError:
        out.update({"ASD": float("nan"), "RMSD": float("nan"), "HD95": float("nan")})
    return out


def write_metrics_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            out = {"sample_id": row["sample_id"]}
            for k in CSV_FIELDS[1:]:
                v = row[k]
                out[k] = "nan" if isinstance(v, float) and math.isnan(v) else f"{v:.6f}"
            writer.writerow(out)
