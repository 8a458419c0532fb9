"""Record golden.json: the outputs every benchmark operation is checked against.

Run from the root of a tecnet checkout, on the commit whose behaviour is
the reference:

    python3 perfbench/record_golden.py

For each workload and each data seed 0..GOLDEN_SEEDS-1 it runs the
operations that cover every output (one train() call of 3 steps; one
request per held-out image) and stores their digests.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import WORKLOAD_NAMES, bootstrap


def main() -> int:
    root = bootstrap()
    import workloads

    golden = {}
    (root / ".perfbench").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=root / ".perfbench")
    try:
        for name in WORKLOAD_NAMES:
            golden[name] = {}
            for seed in range(workloads.GOLDEN_SEEDS):
                wl = workloads.make(name, seed)
                wl.setup(workdir)
                wl.prepare()
                outputs = [wl.run_op()[1] for _ in range(wl.golden_ops)]
                golden[name][str(seed)] = wl.digest(outputs)
                print(f"{name} seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
