"""Command-line front end.

Subcommands:

  gen            write a synthetic PGM dataset
  train          train a model from a JSON config
  eval           score a checkpoint on a dataset, write masks + metrics CSV
  analyze        parameter/MAC tables and attention-cost formulas
  dump-features  per-stage mean-over-channels feature heatmaps as PGM

Configs are JSON with a required "model" section and, for training, a
"train" section.  Each section holds exactly the fields of its dataclass
(TecNetConfig, TrainSchedule less the CLI-only `steps`), every one required
except the model toggles, which default on; each value is type- and
range-checked, and so are the --seed, --steps, --val-count, --log-every
and --threshold flags and the datasets' image size, before anything is
written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .attention import cost_acam, cost_msa, cost_swmsa, padded
from .errors import ConfigurationError, TrainingDiverged, UsageError
from .metrics import all_metrics, write_metrics_csv
from .model import (MAC_REPORT_COLUMNS, N_STAGES, PRESETS, TecNet, TecNetConfig,
                    attention_rows, count_flops, count_params, read_config)
from .nn import capture
from .synth import FAMILIES, SynthSpec, generate, load_dataset, quantize, write_pgm
from .training import TrainSchedule, load_model, predictions, train

# Published full-scale reference points for the Tiny model; printed next to
# the measured numbers by `analyze` for orientation, never asserted.
PUBLISHED_TINY_PARAMS_M = 11.58
PUBLISHED_TINY_GFLOPS = 4.53
PUBLISHED_INPUT = 224


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def load_config(path: str) -> dict:
    """Read a JSON config; parse failures point at file:line:col."""
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from e
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e.strerror}") from e
    if not isinstance(blob, dict):
        raise UsageError(f"{path}: config must be an object, got {type(blob).__name__}")
    return blob


def config_section(blob: dict, key: str, path: str, read):
    """read(section) for the config's `key` section; faults name the file."""
    if key not in blob:
        raise UsageError(f"{path}: config has no \"{key}\" section")
    try:
        return read(blob[key])
    except ConfigurationError as e:
        raise UsageError(f"{path}: {key} section: {e}") from e


def model_config(blob: dict, path: str) -> TecNetConfig:
    return config_section(blob, "model", path, TecNetConfig.from_dict)


# ---------------------------------------------------------------- commands

def cmd_gen(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    spec = SynthSpec(seed=args.seed, count=args.count, size=args.size,
                     family=args.family, gap=args.gap, noise=args.noise,
                     grad_amp=args.grad_amp)
    paths = generate(spec, args.out)
    print(f"wrote {len(paths)} image/mask pairs to {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.steps is not None and args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    if args.val_count < 0:
        raise UsageError(f"--val-count must be >= 0, got {args.val_count}")
    if args.log_every < 1:
        raise UsageError(f"--log-every must be >= 1, got {args.log_every}")
    if args.val_data and args.val_count:
        raise UsageError("--val-data and --val-count both choose the validation set; give one")
    blob = load_config(args.config)
    cfg = model_config(blob, args.config)
    schedule = config_section(blob, "train", args.config,
                              lambda d: read_config(TrainSchedule, d, steps=args.steps))
    if args.seed is not None:
        schedule = replace(schedule, seed=args.seed)

    samples = load_dataset(args.data, cfg.input_size)
    if args.val_data:
        val = load_dataset(args.val_data, cfg.input_size)
    elif args.val_count > 0:
        if args.val_count >= len(samples):
            raise UsageError(
                f"--val-count {args.val_count} leaves no training samples")
        samples, val = samples[:-args.val_count], samples[-args.val_count:]
    else:
        val = None

    model = TecNet(cfg, seed=schedule.seed)
    total = count_params(cfg)["total"]
    print(f"model {cfg.name}: {total:,} parameters; "
          f"{len(samples)} train / {len(val) if val else 0} val samples")

    def progress(row):
        if row["step"] % args.log_every == 0:
            print(f"step {row['step']:>5}  epoch {row['epoch']:>3}  "
                  f"lambda {row['lambda']:.4f}  lr {row['lr']:.2e}  "
                  f"loss {row['loss_total']:.5f}  grad_norm {row['grad_norm']:.3e}  "
                  f"{row['wall_ms']:.0f} ms  {row['samples_per_s']:.2f} samples/s")

    result = train(model, samples, schedule, val_samples=val,
                   out_dir=args.out, progress=progress)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"loss log:   {result.log_path}")
    dice = next(key for key in result.summary if key.endswith("_dice"))
    print(f"{dice.replace('_', ' ') + ':':<12}{result.summary[dice]:.4f}")
    return 0


def cmd_eval(args) -> int:
    if not 0.0 < args.threshold < 1.0:                  # false for nan too
        raise UsageError(f"--threshold must lie strictly between 0 and 1, got {args.threshold}")
    blob = load_config(args.config)
    cfg = model_config(blob, args.config)
    model = load_model(args.checkpoint, expected_config=cfg.to_dict())
    samples = load_dataset(args.data, cfg.input_size)
    os.makedirs(args.out, exist_ok=True)

    rows = []
    for sample, p in predictions(model, samples):
        pred = p[0] >= args.threshold
        write_pgm(os.path.join(args.out, f"pred_{sample.sample_id}.pgm"),
                  np.where(pred, 255, 0).astype(np.uint8))
        rows.append({"sample_id": sample.sample_id,
                     **all_metrics(pred, sample.mask[0] > 0.5)})
    csv_path = os.path.join(args.out, "metrics.csv")
    write_metrics_csv(csv_path, rows)
    mean_di = float(np.mean([r["DI"] for r in rows]))
    print(f"evaluated {len(rows)} samples; mean DI {mean_di:.4f}")
    print(f"metrics: {csv_path}")
    return 0


def cmd_analyze(args) -> int:
    cfg = (model_config(load_config(args.config), args.config) if args.config
           else PRESETS[args.preset]())
    if args.input_size is not None:
        cfg = replace(cfg, input_size=args.input_size)
    input_size = cfg.input_size

    params = count_params(cfg)
    flops = count_flops(cfg)
    print(f"config {cfg.name} (input {input_size}x{input_size})")
    print(f"{'module':<24}{'params':>14}{'MACs':>16}")
    for key in params:
        if key == "total":
            continue
        print(f"{key:<24}{params[key]:>14,}{flops[key]:>16,}")
    print(f"{'total':<24}{params['total']:>14,}{flops['total']:>16,}")

    if cfg.name == "tiny" and input_size == PUBLISHED_INPUT:
        print(f"\npublished reference at {PUBLISHED_INPUT}x{PUBLISHED_INPUT}: "
              f"{PUBLISHED_TINY_PARAMS_M:.2f} M params, "
              f"{PUBLISHED_TINY_GFLOPS:.2f} GFLOPs")
        print(f"this implementation:          "
              f"{params['total'] / 1e6:.2f} M params, "
              f"{2 * flops['total'] / 1e9:.2f} GFLOPs (2 x MACs)")
        print("(informational; candidate-kernel count and per-branch "
              "projections differ from the published configuration)")

    print("\nattention cost per stage (MACs: formulas for three layer kinds; "
          "actual: the layer this config runs; probs: its probability entries)")
    print(f"{'stage':<8}{'grid':>6}{'width':>7}{'global':>16}"
          f"{'windowed':>14}{'adaptive':>14}{'actual':>14}{'probs':>12}")
    m = cfg.window
    for i in range(N_STAGES):
        g = cfg.stage_grid(i)
        c = cfg.stage_width(i)
        gp = padded(g, m)
        total = attention_rows(cfg, i)[-1]
        print(f"{i:<8}{g:>6}{c:>7}{cost_msa(g, g, c):>16,}"
              f"{cost_swmsa(gp, gp, c, m):>14,}{cost_acam(gp, gp, c, m):>14,}"
              f"{total['actual_macs']:>14,}{total['prob_entries']:>12,}")

    if args.mac_report:
        with open(args.mac_report, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=MAC_REPORT_COLUMNS)
            writer.writeheader()
            writer.writerows(row for i in range(N_STAGES) for row in attention_rows(cfg, i))
        print(f"\nper-branch MAC report: {args.mac_report}")
    return 0


def cmd_dump_features(args) -> int:
    model = load_model(args.checkpoint)
    samples = load_dataset(args.data, model.cfg.input_size)
    if not 0 <= args.index < len(samples):
        raise UsageError(f"--index {args.index} out of range "
                         f"(dataset has {len(samples)} samples)")
    with capture() as (seen, _):
        model(samples[args.index].image[None])
    maps = {f"cnn_stage{i}": seen[s].data[0] for i, s in enumerate(model.cnn_stages)}
    maps.update({f"trans_stage{i}": seen[s].data[0].transpose(2, 0, 1)   # [C, h, w] too
                 for i, s in enumerate(model.trans_stages)})
    os.makedirs(args.out, exist_ok=True)
    for tag, fmap in maps.items():
        heat = np.ascontiguousarray(fmap).mean(axis=0)
        lo, hi = heat.min(), heat.max()
        norm = (heat - lo) / (hi - lo) if hi > lo else np.zeros_like(heat)
        write_pgm(os.path.join(args.out, f"{tag}.pgm"), quantize(norm))
    print(f"wrote {len(maps)} stage heatmaps to {args.out}")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tecnet",
        description="dual-branch segmentation: data, training, evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic PGM dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--family", choices=FAMILIES, default="blob-union")
    p.add_argument("--gap", type=float, default=0.6)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--grad-amp", type=float, default=0.2)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=None,
                   help="run exactly N optimizer steps instead of epochs")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed from the config")
    p.add_argument("--val-data", default=None)
    p.add_argument("--val-count", type=int, default=0,
                   help="hold out the last N samples for validation")
    p.add_argument("--log-every", type=int, default=10)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("analyze", help="parameter and MAC accounting")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config")
    group.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--input-size", type=int, default=None)
    p.add_argument("--mac-report", default=None,
                   help="write the per-branch params/MACs/probability-entries CSV here")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("dump-features",
                       help="write per-stage feature heatmaps as PGM")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_dump_features)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ConfigurationError, TrainingDiverged) as e:
        return _fail(str(e))
    except OSError as e:
        return _fail(f"{e.filename}: {e.strerror}" if e.filename else str(e))


if __name__ == "__main__":
    sys.exit(main())
