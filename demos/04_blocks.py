"""Transformer blocks and the lightweight perceptron that replaces the MLP.

A stage of the transformer branch is a stack of blocks that alternate
plain and shifted windows.  Inside each block the usual 4x-wide
MLP is swapped for a ghost-style perceptron (LPM) that produces half of
its hidden features with a depthwise convolution over the feature grid,
which costs a fraction of the dense parameters.
"""

import numpy as np

from tecnet import Tensor
from tecnet.blocks import LPM, Mlp
from tecnet.model import TransStage


def main():
    rng = np.random.default_rng(11)

    # -- parameter economics -----------------------------------------------
    print("width | LPM params | plain MLP params")
    for d in (16, 32, 64, 96, 128):
        lpm = sum(p.size for _, p in LPM(d, rng=rng).named_parameters())
        mlp = sum(p.size for _, p in Mlp(d, rng=rng).named_parameters())
        print(f"{d:5d} | {lpm:10,} | {mlp:10,}")

    # -- a two-block stage is the identity at init --------------------------
    x = Tensor(rng.standard_normal((2, 8, 8, 32)))    # two channels-last [h, w, C] maps
    stage = TransStage(32, 2, 4, 2, True, True, False, rng=rng)
    out = stage(x)
    print("\nfresh two-block stage == identity:",
          float(np.max(np.abs(out.data - x.data))))
    print("first block shifted:", stage.blocks[0].attn.shifted,
          "/ second block shifted:", stage.blocks[1].attn.shifted)

    # -- the stage still contains trainable structure ----------------------
    n_params = sum(p.size for _, p in stage.named_parameters())
    print(f"parameters in one 32-wide two-block stage: {n_params:,}")


if __name__ == "__main__":
    main()
