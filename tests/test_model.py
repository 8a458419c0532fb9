"""Config validation, model construction, forward contract, accounting."""

from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from tecnet import engine as E
from tecnet import nn
from tecnet.errors import ConfigurationError, UsageError
from tecnet.model import (N_STAGES, PRESETS, TecNet, TecNetConfig, count_flops,
                          count_params, nano_config)

RNG = np.random.default_rng(2718)


# ------------------------------------------------------------------- config

def test_stage_widths_and_grids_mirror():
    cfg = nano_config()
    widths = [cfg.stage_width(i) for i in range(N_STAGES)]
    grids = [cfg.stage_grid(i) for i in range(N_STAGES)]
    assert widths == [16, 32, 64, 128, 64, 32, 16]
    assert grids == [16, 8, 4, 2, 4, 8, 16]
    assert widths == widths[::-1]
    assert grids == grids[::-1]


def test_config_roundtrips_through_dict():
    for name, factory in PRESETS.items():
        cfg = factory()
        again = TecNetConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.name == name


def test_config_rejects_missing_and_unknown_keys():
    d = nano_config().to_dict()
    d.pop("window")
    with pytest.raises(ConfigurationError):
        TecNetConfig.from_dict(d)
    d = nano_config().to_dict()
    d["windowz"] = 4
    with pytest.raises(ConfigurationError):
        TecNetConfig.from_dict(d)


@pytest.mark.parametrize("key,kept,why,others", [
    ("num_classes", 1, "the model segments one class", (0, 2, True, 1.0, "1", None)),
    ("patch", 4, "the model embeds 4x4 patches", (2, 4.0, "4", True, None)),
    ("n_kernels", 4, "every DDConv blends 4 kernels", (2, 4.0, "4", True, None))],
    ids=["num_classes", "patch", "n_kernels"])
def test_retired_model_key_reads_only_as_its_kept_value(key, kept, why, others):
    """Configs and manifests written while `key` was a field name it as
    `kept`; that reads as the config without it, and any other value names
    the field."""
    d = nano_config().to_dict()
    assert TecNetConfig.from_dict({**d, key: kept}) == nano_config()
    for value in others:
        with pytest.raises(ConfigurationError,
                           match=rf"^config field {key} is retired \({why}\)"):
            TecNetConfig.from_dict({**d, key: value})
    assert len(fields(TecNetConfig)) == 10


def test_config_rejects_asymmetric_stages():
    with pytest.raises(ConfigurationError):
        nano_config(layer_numbers=(1, 1, 2, 1, 2, 1, 2))
    with pytest.raises(ConfigurationError):
        nano_config(heads=(1, 2, 4, 8, 4, 2, 2))


def test_config_rejects_bad_geometry():
    rule = "config field input_size must be a positive multiple of 32"
    with pytest.raises(ConfigurationError, match=rule):
        nano_config(input_size=60)           # stage-0 grid 15 can't halve 3x
    with pytest.raises(ConfigurationError, match=rule):
        nano_config(input_size=24)           # stage-0 grid not divisible by 8
    # 32 px is the smallest square input: grid 8 halves down to 1x1 and back
    cfg = nano_config(input_size=32)
    out = TecNet(cfg, seed=0).forward(RNG.random((1, 1, 32, 32)))
    assert out["y_tec"].shape == (1, 1, 32, 32)


@pytest.mark.parametrize("field", ["window", "base_width"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_non_positive_window_and_width(field, value):
    # window 0 used to reach count_params as a ZeroDivisionError, and
    # base_width 0 counted a model whose stages have no channels
    with pytest.raises(ConfigurationError, match="must be positive"):
        nano_config(**{field: value})


def test_config_is_frozen_and_replace_rechecks_it():
    """A config is checked once, when made; no field can change after, and
    `dataclasses.replace` makes a new config that is checked again."""
    with pytest.raises(FrozenInstanceError):
        nano_config().window = 0
    with pytest.raises(ConfigurationError, match="config field window must be positive"):
        replace(nano_config(), window=0)


def test_layers_require_an_rng():
    """A layer with drawn weights takes its generator as an argument: left
    out, the call fails at once instead of inside `nn.parameter`."""
    with pytest.raises(TypeError, match="rng"):
        nn.Linear(4, 4)


def test_parameter_requires_an_rng():
    """`nn.parameter` takes its generator even for a zero init, so a call
    that gives none fails with a TypeError, not inside numpy."""
    with pytest.raises(TypeError, match="rng"):
        nn.parameter((2, 2))
    with pytest.raises(TypeError, match="rng"):
        nn.parameter((2,), zero=True)


def test_config_rejects_head_width_mismatch():
    with pytest.raises(ConfigurationError):
        nano_config(heads=(3, 2, 4, 8, 4, 2, 3))  # 16 % 24 != 0


# ------------------------------------------------------------------ forward

def test_forward_output_contract():
    cfg = nano_config()
    model = TecNet(cfg, seed=0)
    x = RNG.random((2, 1, 64, 64))
    out = model.forward(x)
    assert set(out) == {"y_cnn", "y_trans", "y_tec"}
    for v in out.values():
        assert v.shape == (2, 1, 64, 64)
        assert np.all(np.isfinite(v.data))


def test_forward_rejects_wrong_size():
    model = TecNet(nano_config(), seed=0)
    with pytest.raises(UsageError):
        model.forward(RNG.random((1, 1, 32, 32)))
    with pytest.raises(UsageError):   # one image needs its batch axis
        model.forward(RNG.random((1, 64, 64)))


def test_batch_forward_equals_images_one_at_a_time():
    """Every head of a batch of three gives each image what it gets alone,
    to float32 rounding."""
    model = TecNet(nano_config(), seed=0)
    perturb = np.random.default_rng(3)
    for _, p in model.named_parameters():   # wake the zero-initialised maps
        p.data += 0.05 * perturb.standard_normal(p.shape).astype(p.data.dtype)
    x = RNG.random((3, 1, 64, 64))
    batch = model.forward(x)
    for i in range(3):
        alone = model.forward(x[i:i + 1])
        for key, v in alone.items():
            np.testing.assert_allclose(batch[key].data[i:i + 1], v.data, rtol=0, atol=1e-5)


def test_same_seed_same_model():
    x = RNG.random((1, 1, 64, 64))
    a = TecNet(nano_config(), seed=11).forward(x)["y_tec"].data
    b = TecNet(nano_config(), seed=11).forward(x)["y_tec"].data
    assert np.array_equal(a, b)
    c = TecNet(nano_config(), seed=12).forward(x)["y_tec"].data
    assert not np.array_equal(a, c)


def test_forward_is_deterministic():
    model = TecNet(nano_config(), seed=0)
    x = RNG.random((1, 1, 64, 64))
    a = model.forward(x)["y_tec"].data
    b = model.forward(x)["y_tec"].data
    assert np.array_equal(a, b)


def test_feature_collection_covers_all_stages():
    model = TecNet(nano_config(), seed=0)
    with nn.capture() as (seen, _):
        model(RNG.random((2, 1, 64, 64)))
    for i in range(N_STAGES):
        g = nano_config().stage_grid(i)
        c = nano_config().stage_width(i)
        assert seen[model.cnn_stages[i]].shape == (2, c, g, g)
        assert seen[model.trans_stages[i]].shape == (2, g, g, c)
    assert set(seen[model]) == {"y_cnn", "y_trans", "y_tec"}


def test_capture_leaves_the_forward_unchanged():
    """A captured forward returns the same bits as a plain one, records every
    module it calls and one probability array per attention call, and
    leaves both hooks cleared."""
    cfg = nano_config()
    model = TecNet(cfg, seed=0)
    x = RNG.random((2, 1, 64, 64))
    plain = model(x)
    with nn.capture() as (seen, probs):
        captured = model(x)
    for key in plain:
        assert np.array_equal(plain[key].data, captured[key].data), key
    assert len(seen) == sum(1 for _ in _modules(model))
    assert len(probs) == 4 * sum(cfg.layer_numbers)      # four ACAM branches per block
    assert nn._outputs is None and E.attention_probe is None


def _modules(module):
    """`module` and every module below it."""
    yield module
    for value in vars(module).values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, nn.Module):
                yield from _modules(item)


def test_capture_clears_its_hooks_when_the_forward_raises():
    model = TecNet(nano_config(), seed=0)
    x = RNG.random((1, 1, 64, 64))
    with pytest.raises(UsageError):
        with nn.capture() as (seen, probs):
            model(x)
            model(RNG.random((1, 1, 32, 32)))            # not the config's input size
    assert nn._outputs is None and E.attention_probe is None
    recorded = len(seen), len(probs)
    model(x)
    assert (len(seen), len(probs)) == recorded


# --------------------------------------------------------------- accounting

def test_count_params_matches_enumeration_exactly():
    for factory in (nano_config,):
        cfg = factory()
        model = TecNet(cfg, seed=0)
        enumerated = sum(p.size for _, p in model.named_parameters())
        assert count_params(cfg)["total"] == enumerated


def test_count_params_breakdown_sums_to_total():
    table = count_params(nano_config())
    parts = sum(v for k, v in table.items() if k != "total")
    assert parts == table["total"]


def test_count_flops_positive_and_scales_with_input():
    cfg = nano_config()
    small = count_flops(cfg)["total"]
    big = count_flops(replace(cfg, input_size=128))["total"]
    assert small > 0
    assert big > small
    with pytest.raises(ConfigurationError):
        count_flops(replace(cfg, input_size=72))    # stage-0 grid 18 cannot halve three times


def _param_prefixes() -> dict:
    """count_params key -> the prefix of the parameter names it accounts for."""
    prefixes = {"patch_embed": "patch_embed.", "cnn_stem": "cnn_stem.", "heads": "head_"}
    for i in range(N_STAGES):
        prefixes[f"stage{i}.cnn"] = f"cnn_stages.{i}."
        prefixes[f"stage{i}.trans"] = f"trans_stages.{i}."
    for kind in ("down", "up", "skip", "fuse"):
        for j in range(3):
            for branch in ("cnn", "trans"):
                prefixes[f"{kind}{j}.{branch}"] = f"{branch}_{kind}.{j}."
    return prefixes


PARAM_PREFIXES = _param_prefixes()


def test_toggle_combinations_build_and_count():
    x = RNG.random((1, 1, 64, 64))
    totals = {}
    for dd in (True, False):
        for ac in (True, False):
            for lp in (True, False):
                cfg = nano_config(use_ddconv=dd, use_acam=ac, use_lpm=lp)
                model = TecNet(cfg, seed=0)
                params = dict(model.named_parameters())
                enumerated = sum(p.size for p in params.values())
                counts = count_params(cfg)
                assert counts["total"] == enumerated
                # each module's count is its own parameters, not a neighbour's
                for key, n in counts.items():
                    if key != "total":
                        assert n == sum(p.size for name, p in params.items()
                                        if name.startswith(PARAM_PREFIXES[key])), key
                out = model.forward(x)
                assert out["y_tec"].shape == (1, 1, 64, 64)
                totals[(dd, ac, lp)] = enumerated
    # each feature has a parameter cost, so disabling changes the total
    assert totals[(True, True, True)] != totals[(False, True, True)]
    assert totals[(True, True, True)] != totals[(True, False, True)]
    assert totals[(True, True, True)] != totals[(True, True, False)]


def test_shared_kv_saves_parameters():
    a = count_params(nano_config())["total"]
    b = count_params(nano_config(shared_kv=True))["total"]
    assert b < a


# (preset, toggles on: D use_ddconv, A use_acam, L use_lpm, S shared_kv) ->
# count_params total, count_flops total at the preset's input size and at twice it
ACCOUNTING_TOTALS = {
    ("nano", "DAL"): (2_989_491, 32_017_088, 117_177_536),
    ("nano", "DALS"): (2_963_163, 28_797_632, 107_322_560),
    ("nano", "DA"): (3_051_507, 32_892_608, 120_679_616),
    ("nano", "DAS"): (3_025_179, 29_673_152, 110_824_640),
    ("nano", "DL"): (3_077_271, 31_648_448, 116_219_072),
    ("nano", "D"): (3_139_287, 32_523_968, 119_721_152),
    ("nano", "AL"): (1_098_013, 23_438_336, 89_894_912),
    ("nano", "ALS"): (1_071_685, 20_218_880, 80_039_936),
    ("nano", "A"): (1_160_029, 24_313_856, 93_396_992),
    ("nano", "AS"): (1_133_701, 21_094_400, 83_542_016),
    ("nano", "L"): (1_185_793, 23_069_696, 88_936_448),
    ("nano", "-"): (1_247_809, 23_945_216, 92_438_528),
    ("tiny", "DAL"): (117_053_663, 14_322_180_864, 57_035_851_392),
    ("tiny", "DALS"): (114_744_501, 11_991_036_672, 47_711_274_624),
    ("tiny", "DA"): (123_189_215, 15_543_715_584, 61_921_990_272),
    ("tiny", "DAS"): (120_880_053, 13_212_571_392, 52_597_413_504),
    ("tiny", "DL"): (124_877_309, 13_998_233_472, 55_740_061_824),
    ("tiny", "D"): (131_012_861, 15_219_768_192, 60_626_200_704),
    ("tiny", "AL"): (53_037_225, 13_779_645_312, 55_118_581_248),
    ("tiny", "ALS"): (50_728_063, 11_448_501_120, 45_794_004_480),
    ("tiny", "A"): (59_172_777, 15_001_180_032, 60_004_720_128),
    ("tiny", "AS"): (56_863_615, 12_670_035_840, 50_680_143_360),
    ("tiny", "L"): (60_860_871, 13_455_697_920, 53_822_791_680),
    ("tiny", "-"): (66_996_423, 14_677_232_640, 58_708_930_560),
    ("base", "DAL"): (143_966_739, 21_887_641_344, 87_297_693_312),
    ("base", "DALS"): (139_053_505, 17_052_841_728, 67_958_494_848),
    ("base", "DA"): (157_014_291, 24_463_928_064, 97_602_840_192),
    ("base", "DAS"): (152_101_057, 19_629_128_448, 78_263_641_728),
    ("base", "DL"): (160_630_185, 21_144_098_688, 84_323_522_688),
    ("base", "D"): (173_677_737, 23_720_385_408, 94_628_669_568),
    ("base", "AL"): (79_950_301, 21_345_105_792, 85_380_423_168),
    ("base", "ALS"): (75_037_067, 16_510_306_176, 66_041_224_704),
    ("base", "A"): (92_997_853, 23_921_392_512, 95_685_570_048),
    ("base", "AS"): (88_084_619, 19_086_592_896, 76_346_371_584),
    ("base", "L"): (96_613_747, 20_601_563_136, 82_406_252_544),
    ("base", "-"): (109_661_299, 23_177_849_856, 92_711_399_424),
}


@pytest.mark.parametrize("preset,toggles", list(ACCOUNTING_TOTALS))
def test_accounting_totals_are_pinned(preset, toggles):
    """The analytic totals of every preset, toggle combination and ACAM mode
    stay as recorded, so a refactor of the accounting cannot move them."""
    flags = dict(zip(("use_ddconv", "use_acam", "use_lpm", "shared_kv"),
                     (ch in toggles for ch in "DALS")))
    cfg = PRESETS[preset](**flags)
    got = (count_params(cfg)["total"], count_flops(cfg)["total"],
           count_flops(replace(cfg, input_size=2 * cfg.input_size))["total"])
    assert got == ACCOUNTING_TOTALS[preset, toggles]
