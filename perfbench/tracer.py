"""Outside-in tracer for the tecnet benchmark.

Nothing in tecnet is edited.  While installed, the tracer rebinds, at run
time, every module-level name in the loaded ``tecnet.*`` modules that holds
one of the wrapped functions (so ``tecnet.training.backward``, bound by
``from .engine import backward``, is wrapped as well as
``tecnet.engine.backward``), and replaces the ``forward`` of every
``Module`` subclass.  ``uninstall`` puts every original back.

Three kinds of wrapper:

* spans, for module forwards and the public functions of each layer.  A
  span records (name, start, end, parent) in memory; its self time is its
  duration minus the time covered by its child spans.
* engine ops, which are too many to keep as spans: they add to per-op call
  counts and forward time.
* tape nodes: the node an op appends to the tape gets its ``backward_fn``
  wrapped, so backward time is charged to the op and to every span that
  was open when the node was recorded (inclusive), and to the innermost
  one (self).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# Engine primitives reported one by one; the rest are summed as "other".
REPORTED_OPS = ("matmul", "softmax", "bilinear_gather", "conv2d", "depthwise_conv2d",
                "layernorm", "gelu", "permute", "reshape", "add", "mul", "concat")
# Engine exports that are not primitives, or only forward to one.
NOT_OPS = {"Tensor", "Tape", "backward", "as_tensor", "bilinear_sample"}
SMALL_OP_ELEMS = 4096
ATTENTION_SPANS = ("attention.ACAM", "attention.WindowAttention")


class _TimedBackward:
    """Stands in for a tape node's backward_fn and charges its time."""

    __slots__ = ("fn", "op", "scopes", "tracer")

    def __init__(self, fn, op, scopes, tracer):
        self.fn = fn
        self.op = op
        self.scopes = scopes
        self.tracer = tracer

    def __call__(self, g):
        t0 = perf_counter()
        grads = self.fn(g)
        dt = perf_counter() - t0
        tr = self.tracer
        tr.op_bwd[self.op] += dt
        for name in self.scopes:
            tr.bwd[name] += dt
        if self.scopes:
            tr.bwd_self[self.scopes[-1]] += dt
        return grads


class Tracer:
    """Spans, per-op and per-span aggregates, and counters, all in memory."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent index]
        self._open = []                 # indices of the open spans
        self._child = []                # child-span time of each open span
        self.scopes = ()                # names of the open spans, outermost first
        self.calls = defaultdict(int)   # span name -> calls
        self.time = defaultdict(float)  # span name -> inclusive seconds
        self.self_time = defaultdict(float)
        self.bwd = defaultdict(float)   # span name -> backward seconds, inclusive
        self.bwd_self = defaultdict(float)
        self.op_calls = defaultdict(int)
        self.op_fwd = defaultdict(float)
        self.op_bwd = defaultdict(float)
        self.counters = defaultdict(float)
        self._undo = []

    # -- spans -----------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self._child.append(0.0)
        self.scopes = self.scopes + (name,)
        self.spans.append([name, perf_counter(), 0.0, parent])

    def exit(self) -> None:
        end = perf_counter()
        span = self.spans[self._open.pop()]
        span[2] = end
        dur = end - span[1]
        child = self._child.pop()
        self.scopes = self.scopes[:-1]
        name = span[0]
        self.calls[name] += 1
        self.time[name] += dur
        self.self_time[name] += dur - child
        if self._child:
            self._child[-1] += dur

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; `after(tracer, args, result)` adds counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, out)
            return out

        return traced

    def op(self, name: str, fn):
        """Wrap an engine primitive: count it, time it, time its tape node."""
        tracer = self
        key = name if name in REPORTED_OPS else "other"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            tracer.op_calls[key] += 1
            tracer.op_fwd[key] += dt
            size = out.data.size
            c = tracer.counters
            c["ops"] += 1
            if size < SMALL_OP_ELEMS:
                c["small_ops"] += 1
            if key == "bilinear_gather":
                c["gather_taps"] += size
            elif key == "softmax" and any(s in tracer.scopes for s in ATTENTION_SPANS):
                c["softmax_elems"] += size
            node = out.node
            if node is not None and node.out is out and not isinstance(node.backward_fn, _TimedBackward):
                node.backward_fn = _TimedBackward(node.backward_fn, key, tracer.scopes, tracer)
            return out

        return traced

    # -- installing ----------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every module-level name in tecnet that holds `original` at `replacement`."""
        for mod in [m for n, m in sys.modules.items() if n == "tecnet" or n.startswith("tecnet.")]:
            names = [k for k, v in vars(mod).items() if v is original]
            for attr in names:
                setattr(mod, attr, replacement)
                self._undo.append((mod, attr, original))

    def _replace_attr(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from tecnet import attention, blocks, ddconv, engine, metrics, model, nn, synth, tensorio, training

        for name in list(engine.__all__) + ["getitem"]:
            if name not in NOT_OPS:
                fn = getattr(engine, name)
                self._rebind(fn, self.op(name, fn))
        self._rebind(engine.backward, self.span("engine.backward", engine.backward, _count_tape))
        for mod, name, after in ((training, "train", None), (training, "total_loss", None),
                                 (training, "predict_probs", None), (training, "load_model", None),
                                 (metrics, "all_metrics", _count_scores),
                                 (metrics, "border_pixels", _count_border),
                                 (synth, "make_dataset", None),
                                 (tensorio, "save_checkpoint", None),
                                 (tensorio, "load_checkpoint", None)):
            fn = getattr(mod, name)
            self._rebind(fn, self.span(f"{mod.__name__[7:]}.{name}", fn, after))
        self._replace_attr(training.Adam, "step",
                           self.span("training.Adam.step", training.Adam.step))
        for mod in (nn, attention, ddconv, blocks, model):
            for cls in list(vars(mod).values()):
                if (isinstance(cls, type) and issubclass(cls, nn.Module)
                        and cls.__module__ == mod.__name__ and "forward" in cls.__dict__):
                    name = f"{mod.__name__[7:]}.{cls.__name__}"
                    after = _count_window_tokens if name in ATTENTION_SPANS else None
                    self._replace_attr(cls, "forward", self.span(name, cls.forward, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self ms, forward and backward."""
        return {name: {"calls": self.calls[name],
                       "ms": round(self.time[name] * 1e3, 3),
                       "self_ms": round(self.self_time[name] * 1e3, 3),
                       "bwd_ms": round(self.bwd[name] * 1e3, 3),
                       "bwd_self_ms": round(self.bwd_self[name] * 1e3, 3)}
                for name in sorted(self.calls)}

    def span_rows(self, origin: float) -> list:
        """Spans as [name, start_us, end_us, parent], times from `origin`."""
        return [[name, round((s - origin) * 1e6, 1), round((e - origin) * 1e6, 1), parent]
                for name, s, e, parent in self.spans]


def write_trace(path, header: dict, tracers: dict) -> None:
    """Write each tracer's spans and summary, keyed by phase, as one JSON file."""
    origin = min((t.spans[0][1] for t in tracers.values() if t.spans), default=0.0)
    blob = dict(header)
    blob["phases"] = {phase: {"summary": t.summary(), "spans": t.span_rows(origin)}
                      for phase, t in tracers.items()}
    with open(path, "w") as fh:
        json.dump(blob, fh, separators=(",", ":"))


# -- counters read at layer boundaries ----------------------------------------

def _count_tape(tracer, args, _out) -> None:
    tape = args[0].node.tape
    c = tracer.counters
    c["tapes"] += 1
    c["tape_nodes"] += len(tape.nodes)
    c["tape_bytes"] += sum(node.out.data.nbytes for node in tape.nodes)


def _count_window_tokens(tracer, args, _out) -> None:
    layer, x = args[0], args[1]
    h, w = x.shape[1], x.shape[2]
    m = layer.window
    tracer.counters["tokens_useful"] += h * w
    tracer.counters["tokens_processed"] += (-(-h // m) * m) * (-(-w // m) * m)


def _count_scores(tracer, _args, out) -> None:
    tracer.counters["scores"] += len(out)
    tracer.counters["scores_undefined"] += sum(v != v for v in out.values())


def _count_border(tracer, _args, out) -> None:
    tracer.counters["border_px"] += len(out)
