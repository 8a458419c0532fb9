"""Metric definitions against hand counts and brute-force loop oracles."""

import math

import numpy as np
import pytest

from tecnet.errors import DimensionError, UndefinedMetricError
from tecnet.metrics import (all_metrics, border_pixels, confusion_metrics,
                            surface_metrics, volume_metrics, write_metrics_csv)

RNG = np.random.default_rng(555)


from oracles import border_loop as _border_loop
from oracles import confusion_loop as _confusion_loop
from oracles import surface_pool_loop as _surface_pool_loop


def _random_pair(size=16, p_fill=0.4):
    pred = RNG.random((size, size)) < p_fill
    gt = RNG.random((size, size)) < p_fill
    return pred, gt


# ------------------------------------------------------------- confusion

def test_confusion_against_loop_oracle():
    for _ in range(20):
        pred, gt = _random_pair()
        got = confusion_metrics(pred, gt)
        tp, fp, fn, tn = _confusion_loop(pred, gt)
        assert got["DI"] == (100.0 * 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 100.0)
        assert got["JA"] == (100.0 * tp / (tp + fp + fn) if tp + fp + fn else 100.0)
        assert got["SE"] == (100.0 * tp / (tp + fn) if tp + fn else 100.0)
        assert got["SP"] == (100.0 * tn / (tn + fp) if tn + fp else 100.0)
        assert got["AC"] == 100.0 * (tp + tn) / (tp + fp + fn + tn)


def test_perfect_prediction_scores_100():
    gt = np.zeros((8, 8), bool)
    gt[2:6, 3:7] = True
    m = confusion_metrics(gt, gt)
    assert m == {"DI": 100.0, "JA": 100.0, "SE": 100.0, "SP": 100.0, "AC": 100.0}
    v = volume_metrics(gt, gt)
    assert v == {"VOE": 0.0, "RVD": 0.0}


def test_empty_both_uses_conventions():
    z = np.zeros((6, 6), bool)
    m = confusion_metrics(z, z)
    assert m["DI"] == 100.0 and m["JA"] == 100.0 and m["SE"] == 100.0
    assert m["SP"] == 100.0 and m["AC"] == 100.0


def test_full_frame_ground_truth_specificity_convention():
    ones = np.ones((4, 4), bool)
    assert confusion_metrics(ones, ones)["SP"] == 100.0


def test_disjoint_masks_score_zero_overlap():
    a = np.zeros((6, 6), bool)
    b = np.zeros((6, 6), bool)
    a[:2] = True
    b[4:] = True
    m = confusion_metrics(a, b)
    assert m["DI"] == 0.0 and m["JA"] == 0.0 and m["SE"] == 0.0
    assert volume_metrics(a, b)["VOE"] == 100.0


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        confusion_metrics(np.zeros((3, 3), bool), np.zeros((4, 4), bool))


# ---------------------------------------------------------------- volume

def test_volume_against_hand_count():
    pred = np.zeros((5, 5), bool)
    gt = np.zeros((5, 5), bool)
    pred[1:4, 1:4] = True   # 9 pixels
    gt[2:5, 2:5] = True     # 9 pixels, 4 shared
    v = volume_metrics(pred, gt)
    assert v["VOE"] == 100.0 * (1 - 4 / 14)
    assert v["RVD"] == 0.0
    gt2 = gt.copy()
    gt2[0, 0] = True        # 10 pixels
    assert volume_metrics(pred, gt2)["RVD"] == 100.0 * (9 - 10) / 10


def test_rvd_undefined_for_empty_reference():
    with pytest.raises(UndefinedMetricError):
        volume_metrics(np.ones((3, 3), bool), np.zeros((3, 3), bool))


# --------------------------------------------------------------- surfaces

def test_border_extraction_matches_loop():
    for _ in range(20):
        mask = RNG.random((12, 12)) < 0.5
        got = {tuple(r) for r in border_pixels(mask)}
        assert got == set(_border_loop(mask))


def test_border_includes_image_edge_pixels():
    mask = np.ones((4, 4), bool)  # solid block: only the rim is border
    got = {tuple(r) for r in border_pixels(mask)}
    want = {(i, j) for i in range(4) for j in range(4)
            if i in (0, 3) or j in (0, 3)}
    assert got == want


def test_surface_metrics_match_loop_oracle_exactly():
    """Random 12 px pairs, then half-filled 40 px ones, whose fragmented
    borders have many pixels tying for their nearest point on the other."""
    for size, p_fill in [(12, 0.4)] * 10 + [(40, 0.5)] * 2:
        pred, gt = _random_pair(size, p_fill)
        if not pred.any() or not gt.any():
            continue
        got = surface_metrics(pred, gt)
        pool = _surface_pool_loop(pred, gt)
        assert got["ASD"] == float(np.mean(pool))
        assert got["RMSD"] == float(math.sqrt(np.mean(pool ** 2)))
        assert got["HD95"] == float(np.percentile(pool, 95))


def test_surface_identical_masks_zero():
    m = np.zeros((8, 8), bool)
    m[2:5, 2:6] = True
    s = surface_metrics(m, m)
    assert s == {"ASD": 0.0, "RMSD": 0.0, "HD95": 0.0}


def test_surface_order_statistics():
    for _ in range(10):
        pred, gt = _random_pair(14)
        if not pred.any() or not gt.any():
            continue
        s = surface_metrics(pred, gt)
        pool = _surface_pool_loop(pred, gt)
        assert s["RMSD"] >= s["ASD"] - 1e-12
        assert s["HD95"] <= pool.max() + 1e-12


def test_surface_known_distance():
    a = np.zeros((5, 9), bool)
    b = np.zeros((5, 9), bool)
    a[2, 1] = True
    b[2, 7] = True  # two single pixels 6 apart
    s = surface_metrics(a, b)
    assert s == {"ASD": 6.0, "RMSD": 6.0, "HD95": 6.0}


def test_surface_undefined_for_empty_mask():
    with pytest.raises(UndefinedMetricError):
        surface_metrics(np.zeros((3, 3), bool), np.ones((3, 3), bool))


# -------------------------------------------------------------------- csv

def test_write_metrics_csv(tmp_path):
    gt = np.zeros((8, 8), bool)
    gt[2:5, 2:5] = True
    rows = [{"sample_id": "good", **all_metrics(gt, gt)},
            {"sample_id": "empty_pred", **all_metrics(np.zeros((8, 8), bool), gt)}]
    assert rows[0]["DI"] == 100.0
    assert math.isnan(rows[1]["ASD"])  # no pred surface: undefined
    path = tmp_path / "m.csv"
    write_metrics_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sample_id,DI,JA,SE,SP,AC,VOE,RVD,ASD,RMSD,HD95"
    assert lines[1].startswith("good,100.000000")
    assert ",nan" in lines[2]


def test_all_metrics_handles_undefined_gracefully():
    z = np.zeros((5, 5), bool)
    row = all_metrics(z, z)
    assert row["DI"] == 100.0
    assert math.isnan(row["RVD"])
    assert math.isnan(row["HD95"])
