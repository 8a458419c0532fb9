"""tecnet benchmark: one workload per process, checked against recorded goldens.

Run from the root of a tecnet checkout:

    python3 perfbench/run.py --workload train-nano-b8 --seed 1 --seconds 20 --trace 0

Workloads: train-nano-b8, infer-nano-64, infer-nano-256 (see README.md).
With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, and the spans are written to .perfbench/trace-<workload>-seed<n>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1        # one process, no extra threads; at most nproc
SETUP_REPEATS = 15
WORKLOAD_NAMES = ("train-nano-b8", "infer-nano-64", "infer-nano-256")


def bootstrap() -> Path:
    """Pin the BLAS thread count and put the checkout's src/ first on sys.path.

    Must run before numpy is imported; returns the checkout root.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap() must run before numpy is imported")
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "tecnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no tecnet sources under {src}; run from a tecnet checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    return root


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def measure(workload, golden, *, seconds=None, ops=None, tr=None):
    """Run operations for `seconds`, or `ops` of them; returns (units, attempted, failed, ops).

    With a tracer, each operation is a root span, so its spans share that root.
    """
    units, attempted, failed, done = [], 0, 0, 0
    start = perf_counter()
    while (done < ops) if ops is not None else (perf_counter() - start < seconds):
        done += 1
        try:
            if tr is not None:
                tr.enter("bench.op")
            try:
                op_units, output = workload.run_op()
            finally:
                if tr is not None:
                    tr.exit()
            bad = workload.check(output, golden)
        except Exception:  # a failed operation is counted; the run goes on
            if failed == 0:
                traceback.print_exc()
            attempted += 1
            failed += 1
            continue
        units.extend(op_units)
        attempted += len(op_units)
        failed += bad
    return units, attempted, failed, done


def end_to_end(units, setup_times) -> dict:
    secs = [d for d, _ in units]
    per_image = [d / n for d, n in units]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_s": (sum(n for _, n in units) / sum(secs), "1/s"),
        "step_ms.p50": (statistics.median(secs) * 1e3, "ms"),
        "image_ms.p50": (statistics.median(per_image) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(tr, setup_tr, units, base_units, workload) -> dict:
    """Per-layer metrics of a traced run, per timed unit (train step or request)."""
    from tracer import REPORTED_OPS

    n = len(units)
    c = tr.counters

    def ms(seconds):
        return (seconds * 1e3 / n, "ms")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    def spans(table, *names):
        return sum(table[s] for s in names)

    attention = ("attention.ACAM", "attention.WindowAttention")
    norms = ("nn.LayerNorm", "nn.ChannelNorm")
    tapes = c["tapes"]
    out = {
        "engine.tape_nodes": (c["tape_nodes"] / tapes if tapes else 0.0, "count"),
        "engine.tape_mb": (c["tape_bytes"] / tapes / 1e6 if tapes else 0.0, "MB"),
        "engine.small_op_share": ratio(c["small_ops"], c["ops"]),
        "engine.backward_ms": ms(tr.time["engine.backward"]),
    }
    for op in REPORTED_OPS + ("other",):
        out[f"engine.{op}.calls"] = (tr.op_calls[op] / n, "count")
        out[f"engine.{op}.fwd_ms"] = ms(tr.op_fwd[op])
        out[f"engine.{op}.bwd_ms"] = ms(tr.op_bwd[op])
    out.update({
        "attention.calls": (spans(tr.calls, *attention) / n, "count"),
        "attention.fwd_ms": ms(spans(tr.time, *attention)),
        "attention.bwd_ms": ms(spans(tr.bwd, *attention)),
        "attention.softmax_elems": (c["softmax_elems"] / n, "count"),
        "attention.pad_token_ratio": ratio(c["tokens_useful"], c["tokens_processed"]),
        "ddconv.calls": (tr.calls["ddconv.DDConv"] / n, "count"),
        "ddconv.fwd_ms": ms(tr.time["ddconv.DDConv"]),
        "ddconv.bwd_ms": ms(tr.bwd["ddconv.DDConv"]),
        "ddconv.gather_taps": (c["gather_taps"] / n, "count"),
        "blocks.lpm.fwd_ms": ms(tr.time["blocks.LPM"]),
        "blocks.lpm.bwd_ms": ms(tr.bwd["blocks.LPM"]),
        "nn.norm.fwd_ms": ms(spans(tr.time, *norms)),
        "nn.norm.bwd_ms": ms(spans(tr.bwd, *norms)),
        "model.forward_ms": ms(tr.time["model.TecNet"]),
        "model.self_ms": ms(tr.self_time["model.TecNet"]),
        "model.macs": (workload.macs_per_image, "MAC"),
        "training.loss_ms": ms(tr.time["training.total_loss"] + tr.bwd["training.total_loss"]),
        "training.adam_ms": ms(tr.time["training.Adam.step"]),
        "metrics.score_ms": ms(tr.time["metrics.all_metrics"]),
        "metrics.border_px": (c["border_px"] / n, "count"),
        "metrics.undefined_ratio": ratio(c["scores_undefined"], c["scores"]),
        "synth.dataset_ms": (setup_tr.time["synth.make_dataset"] * 1e3, "ms"),
        "tensorio.save_ms": (setup_tr.time["tensorio.save_checkpoint"] * 1e3, "ms"),
        "tensorio.load_ms": (setup_tr.time["tensorio.load_checkpoint"] * 1e3, "ms"),
        "tensorio.checkpoint_mb": (workload.checkpoint_bytes / 1e6, "MB"),
        "trace.overhead_ratio": (sum(d for d, _ in units) / sum(d for d, _ in base_units) - 1.0,
                                 "ratio"),
    })
    return out


def print_table(workload, metrics: dict, units, attempted: int, failed: int) -> None:
    secs = sorted(d for d, _ in units)
    print(f"{'metric':32s} {'value':>14s}  unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g}  {unit}")
    # p90 only where at least ten samples lie beyond it
    if len(secs) >= 100:
        p90 = statistics.quantiles([d / n for d, n in units], n=10)[-1] * 1e3
        print(f"{'image_ms.p90':32s} {p90:14.6g}  ms")
    print(f"{'failed_ratio':32s} {failed / max(attempted, 1):14.6g}  ratio "
          f"({failed} of {attempted} checked {'steps' if workload.name.startswith('train') else 'requests'})")
    print(f"timed units: {len(secs)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = bootstrap()
    import tracer
    import workloads

    env = environment()
    workload = workloads.make(args.workload, args.seed)
    golden = workloads.load_golden(args.workload)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup(workdir)
            setup_times.append(perf_counter() - t0)
        setup_tr = tracer.Tracer()
        if args.trace:
            with setup_tr:
                workload.setup(workdir)
        workload.prepare()
        workload.run_op()                                   # warm-up
        if args.trace:
            base, attempted, failed, ops = measure(workload, golden, seconds=args.seconds / 2)
            loop_tr = tracer.Tracer()
            with loop_tr:
                units, a, f, _ = measure(workload, golden, ops=ops, tr=loop_tr)
            attempted, failed = attempted + a, failed + f
            result = per_layer(loop_tr, setup_tr, units, base, workload) if units and base else {}
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write_trace(trace_path, {"workload": args.workload, "seed": args.seed, "env": env},
                               {"setup": setup_tr, "loop": loop_tr})
        else:
            units, attempted, failed, _ = measure(workload, golden, seconds=args.seconds)
            result = end_to_end(units, setup_times) if units else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not result:
        print("error: no operation completed", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  data seed {workload.data_seed}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    if args.trace:
        print(f"spans: {trace_path}")
    # timings and p90 come from the untraced operations
    print_table(workload, result, base if args.trace else units, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
