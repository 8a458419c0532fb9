"""The whole pipeline through the command-line interface.

Everything the library does is reachable from the `tecnet` console script:
generate a synthetic dataset, train on it, evaluate a checkpoint against
ground truth, inspect parameter/MAC budgets, and dump intermediate feature
maps.  This demo drives those subcommands in-process and shows the files
they leave behind.
"""

import json
import pathlib
import tempfile

from tecnet.cli import main as cli


def run(*argv):
    print("$ tecnet", " ".join(argv))
    code = cli(list(argv))
    assert code == 0, f"exit {code}"
    print()


def main():
    root = pathlib.Path(tempfile.mkdtemp(prefix="tecnet-demo-"))
    data = root / "data"
    out = root / "run"

    config = {
        "model": {"name": "demo", "layer_numbers": [2] * 7,
                  "heads": [1, 2, 4, 8, 4, 2, 1], "base_width": 16,
                  "window": 4, "input_size": 64},
        "train": {"total_epochs": 1, "batch_size": 4, "lr": 1e-3, "seed": 0},
    }
    cfg_path = root / "demo.json"
    cfg_path.write_text(json.dumps(config, indent=2))

    run("gen", "--out", str(data), "--count", "6", "--seed", "4", "--size", "64")
    run("train", "--config", str(cfg_path), "--data", str(data),
        "--out", str(out), "--val-count", "2")
    run("eval", "--checkpoint", str(out / "checkpoint.tect"),
        "--config", str(cfg_path), "--data", str(data),
        "--out", str(out / "eval"))
    run("analyze", "--config", str(cfg_path))
    run("dump-features", "--checkpoint", str(out / "checkpoint.tect"),
        "--data", str(data), "--index", "0", "--out", str(out / "features"))

    print("artifacts:")
    for p in sorted(root.rglob("*")):
        if p.is_file():
            print(" ", p.relative_to(root))


if __name__ == "__main__":
    main()
