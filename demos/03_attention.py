"""Window attention with four complementary branches, and what it costs.

Inside each window the attention module runs four branches, each over a
different pairing of the whole window's axes:

 * spatial: the M*M positions attend over each other (classic windowed
   attention),
 * channel: the C channels attend over each other,
 * cross H and cross W: C*M channel-row or channel-column tokens, one
   spatial direction at a time.

Learnable scalars fuse the four outputs.  Each branch projects its features
down before the attention product, but the channel and cross branches
attend over C and C*M tokens, so their cost grows with C^2: in the default
separate-projection mode the layer costs more than plain window attention
(W-MSA) at nano stages 1 and 3.  The closed-form ACAM column printed at the
end is the formula; `tecnet analyze` prints beside it what the layer
actually multiplies.
"""

import numpy as np

from tecnet import Tensor
from tecnet import engine as E
from tecnet.attention import ACAM, cost_acam, cost_msa, cost_swmsa, shift_mask, window_tokens
from tecnet.nn import capture


def main():
    rng = np.random.default_rng(5)

    # -- windowing is exactly invertible, padding included ----------------
    # Layers take channels-last [B, h, w, C] maps.  A window cut is one move
    # of C-vector tokens by a precomputed index: slots[i] is the map
    # position window token i reads (h*w for padding), homes[j] the window
    # token map position j moves to.  All images' windows share one axis.
    x = Tensor(rng.standard_normal((2, 14, 10, 16)))
    slots, homes = window_tokens(14, 10, 4, 0)
    windows = E.gather_tokens(x, slots, homes).reshape(-1, 4, 4, 16)
    back = E.gather_tokens(windows, homes, slots).reshape(x.shape)
    print("2 images of 14x10 -> pad 16x12 ->", windows.shape[0], "windows -> restored:",
          np.array_equal(back.data, x.data))

    # -- a layer is the identity at initialization ------------------------
    # The output projection is zero-initialized, so a fresh layer vanishes;
    # with the block's residual around it, the stage starts as the identity.
    layer = ACAM(16, window=4, heads=2, shifted=False, rng=rng)
    y = layer(x)
    print("max |output| of a fresh layer:", float(np.max(np.abs(y.data))))

    # -- the four attention maps ------------------------------------------
    # capture() records every attention's probabilities, in the layer's
    # branch order, without the layer taking part.
    with capture() as (_, probs):
        layer(x)
    for name, a in zip(("spatial", "channel", "cross_h", "cross_w"), probs):
        print(f"  {name:8s} {str(a.shape):22s} rows sum to "
              f"{float(a.sum(axis=-1).mean()):.6f}")

    # -- shifted windows mask the wrap-around seam -------------------------
    shifted = ACAM(16, window=4, heads=2, shifted=True, rng=rng)
    with capture() as (_, probs):
        shifted(x)
    spatial = probs[0]
    mask = shift_mask(14, 10, 4, 2)             # one image's windows, shared by the batch
    nw = mask.shape[0]
    leak = max(float(spatial[i][:, mask[i % nw] < 0].sum()) for i in range(spatial.shape[0]))
    print("largest attention mass across the seam:", f"{leak:.2e}")

    # -- cost model, MACs per layer ----------------------------------------
    print("\n  h x w    C   M      MSA    SW-MSA      ACAM")
    for (h, w, c, m) in [(8, 8, 16, 4), (16, 16, 96, 4), (56, 56, 96, 7)]:
        print(f"  {h:3d}x{w:<3d} {c:4d} {m:3d} {cost_msa(h, w, c):>9,}"
              f" {cost_swmsa(h, w, c, m):>9,} {cost_acam(h, w, c, m):>9,}")


if __name__ == "__main__":
    main()
