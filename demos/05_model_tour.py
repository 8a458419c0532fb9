"""The dual-branch segmentation model, stage by stage.

Two encoder-decoder branches run side by side over seven stages: a CNN
branch built from dynamic deformable convolutions and a transformer branch
built from shifted-window block stacks.  At every stage each branch hands
its features to the other, so local texture and global context mix
continuously rather than once at the end.  Three heads come out: one per
branch plus the fused prediction.
"""

import numpy as np

from tecnet.model import (PATCH, TecNet, count_flops, count_params, nano_config,
                          tiny_config)
from tecnet.nn import capture


def main():
    cfg = nano_config()
    print(f"preset '{cfg.name}': input {cfg.input_size}, patch {PATCH}")
    print("stage widths:", [cfg.stage_width(i) for i in range(7)])
    print("stage grids: ", [cfg.stage_grid(i) for i in range(7)])
    print("stage heads: ", list(cfg.heads))

    model = TecNet(cfg, seed=0)
    rng = np.random.default_rng(0)
    images = rng.random((2, 1, cfg.input_size, cfg.input_size))   # [B, C, H, W]

    # capture() records every module's output; the stages are modules too.
    with capture() as (seen, _):
        out = model(images)
    print("\nheads:", {k: v.shape for k, v in out.items()})

    print("\nstage | cnn features [B, C, h, w] | transformer features [B, h, w, C]")
    for i in range(7):
        c = seen[model.cnn_stages[i]]
        t = seen[model.trans_stages[i]]
        print(f"  {i}   | {str(c.shape):25s}| {t.shape}")

    # -- bookkeeping: exact parameter and MAC counts ------------------------
    params = count_params(cfg)
    macs = count_flops(cfg)
    print("\nparameters by part:")
    for key, val in params.items():
        print(f"  {key:12s} {val:>12,}")
    print(f"MACs at {cfg.input_size}x{cfg.input_size}: {macs['total']:,}")

    tiny = tiny_config()
    tp = count_params(tiny)["total"]
    tm = count_flops(tiny)["total"]
    print(f"\ntiny preset at 224x224: {tp / 1e6:.2f} M params, "
          f"{2 * tm / 1e9:.2f} GFLOPs")


if __name__ == "__main__":
    main()
