"""A small training run, watched closely.

The loss blends three heads: the fused prediction y_tec and the two branch
predictions.  A ramp weight lambda(k) = exp(-5 (1 - k)^2) starts near zero
and grows to one over the run, so early training leans on the individual
branches and the fused head takes over as features mature.  Per head the
loss is MSE plus soft Dice.

This demo overfits 4 synthetic samples for 80 steps and prints the ramp,
the loss, and the final per-sample Dice.  Takes about a minute on a CPU.
"""

from tecnet.model import TecNet, nano_config
from tecnet.synth import SynthSpec, make_dataset
from tecnet.training import (TrainSchedule, predictions, ramp_coefficient,
                             soft_dice_score, train)


def main():
    print("ramp weight over training progress k:")
    for k in (0.0, 0.25, 0.5, 0.75, 1.0):
        print(f"  k={k:4.2f}  lambda={ramp_coefficient(k):.4f}")

    data = make_dataset(SynthSpec(seed=2, count=4, size=64, gap=0.7, noise=0.03))
    model = TecNet(nano_config(), seed=0)
    schedule = TrainSchedule(steps=80, batch_size=4, lr=1e-3, seed=0)

    # each step stacks its 4 samples into one [4, 1, 64, 64] batch on one tape
    print("\nstep | lambda | total loss | grad norm | samples/s")

    def progress(row):
        if row["step"] % 20 == 0 or row["step"] == 1:
            print(f"{row['step']:4d} | {row['lambda']:.4f} | {row['loss_total']:.4f}     "
                  f"| {row['grad_norm']:.3e} | {row['samples_per_s']:.1f}")

    result = train(model, data, schedule, progress=progress)
    print(f"finished {len(result.history)} steps")

    print("\nper-sample soft Dice after training (one batched forward):")
    for s, p in predictions(model, data):
        print(f"  {s.sample_id}: {soft_dice_score(p, s.mask):.4f}")


if __name__ == "__main__":
    main()
