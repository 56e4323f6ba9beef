"""Span tracer that times mvgen's layers from outside the package.

`Tracer.install()` replaces every binding of a target function in the loaded
`mvgen` modules (module attributes, re-exports and class methods) with a
timing wrapper; `uninstall()` puts the originals back, so an untraced call
runs exactly the program's own code. Nothing in the package is edited.

Two kinds of boundary are recorded:

* layer calls (a module's public functions and model methods) become spans
  `(id, name, start, end, parent, request, self)` kept in memory and written
  out by `write_spans`. A span's self time is its duration minus the time of
  its child layer spans; numerics ops do not count as children, so an op's
  time stays in the self time of the layer that called it.
* numerics ops (the functions that build graph nodes) are too many to keep one
  by one (thousands per request), so each is aggregated per request and kind:
  call count, forward time and, for matmul and conv, FLOP and bytes computed
  from the operand shapes. An op called from inside another op (softmax calls
  log_softmax and exp) is timed as part of the outer op only.
"""

from __future__ import annotations

import collections
import json
import os
import sys
import time

import numpy as np

# (span name, module, attribute); "Class.method" patches the class.
LAYER_TARGETS = (
    ("numerics.backward", "mvgen.numerics.tensor", "Tensor.backward"),
    ("numerics.adamw", "mvgen.numerics.optim", "adamw_update"),
    ("numerics.clip", "mvgen.numerics.optim", "clip_grad_norm"),
    ("datagen.phantom", "mvgen.datagen", "make_phantom"),
    ("datagen.preprocess", "mvgen.datagen", "preprocess"),
    ("tokenizer.train_step", "mvgen.tokenizer", "train_tokenizer"),
    ("tokenizer.training_graph", "mvgen.tokenizer", "training_graph"),
    ("tokenizer.init_codebook", "mvgen.tokenizer", "init_codebook_from_data"),
    ("tokenizer.encode_batch", "mvgen.tokenizer", "encode_batch"),
    ("tokenizer.decode_batch", "mvgen.tokenizer", "decode_batch"),
    ("tokenizer.encoder", "mvgen.tokenizer", "TokenizerModel.encoder_forward"),
    ("tokenizer.decoder", "mvgen.tokenizer", "TokenizerModel.decoder_forward"),
    ("tokenizer.phi", "mvgen.tokenizer", "TokenizerModel.phi"),
    ("prior.train_step", "mvgen.prior", "train_prior"),
    ("prior.batch_loss", "mvgen.prior", "batch_loss"),
    ("prior.forward_batch", "mvgen.prior", "PriorModel.forward_batch"),
    ("prior.next_scale_logits", "mvgen.prior", "PriorModel.next_scale_logits"),
    ("prior.embed", "mvgen.prior", "PriorModel.embed_inputs"),
    ("sampler.generate", "mvgen.sampler", "generate"),
    ("sampler.sample_scale", "mvgen.sampler", "sample_scale"),
    ("sampler.cfg_combine", "mvgen.sampler", "cfg_combine"),
    ("sampler.top_k", "mvgen.sampler", "top_k_filter"),
    ("sampler.top_p", "mvgen.sampler", "top_p_filter"),
    ("sampler.draw", "mvgen.sampler", "categorical_draw"),
    ("metrics.embed", "mvgen.metrics", "FeatureEmbedder.embed"),
    ("metrics.frechet", "mvgen.metrics", "frechet_distance"),
    ("metrics.kid", "mvgen.metrics", "kid"),
    ("checkpoint.write", "mvgen.checkpoint", "write_checkpoint"),
    ("checkpoint.read", "mvgen.checkpoint", "read_checkpoint"),
    ("io.write_pgm", "mvgen.pgmio", "write_pgm"),
    ("io.write_mvtk", "mvgen.tokenizer", "write_token_stream"),
)

# op kind -> defining module; the kind is the function name
OP_TARGETS = {
    **{name: "mvgen.numerics.tensor" for name in (
        "add", "mul", "power", "exp", "log", "tanh", "relu", "gelu", "reshape",
        "transpose", "concat", "index", "take", "take_along_last", "reduce_sum",
        "reduce_mean", "matmul", "layernorm", "log_softmax", "softmax", "l2_normalize")},
    **{name: "mvgen.numerics.conv" for name in (
        "conv2d", "conv_transpose2d", "resize_bilinear")},
}


def _values(x):
    return x.values if hasattr(x, "values") and isinstance(x.values, np.ndarray) else np.asarray(x)


def _matmul_cost(args, out) -> tuple[float, float]:
    a, b = _values(args[0]), _values(args[1])
    o = out.values
    flop = 2.0 * o.size * a.shape[-1]
    return flop, float(a.nbytes + b.nbytes + o.nbytes)


def _conv2d_cost(args, out) -> tuple[float, float]:
    w = _values(args[1])
    return 2.0 * out.values.size * (w.size // w.shape[0]), 0.0


def _conv_t_cost(args, out) -> tuple[float, float]:
    x, w = _values(args[0]), _values(args[1])
    return 2.0 * x.size * (w.size // w.shape[0]), 0.0


_OP_COST = {"matmul": _matmul_cost, "conv2d": _conv2d_cost, "conv_transpose2d": _conv_t_cost}


class Tracer:
    """Records spans and per-request op aggregates while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stats: dict = collections.defaultdict(lambda: collections.defaultdict(float))
        self.request = "none"
        self.tag = ""
        self._stack: list[list] = []
        self._op_active = False
        self._patches: list[tuple] = []
        self._next_id = 0

    # -- request context --------------------------------------------------

    def begin(self, request, tag: str = "") -> None:
        """Attribute the following calls to `request` (an iteration id or phase)."""
        self.request = request
        self.tag = tag

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for span, module, attr in LAYER_TARGETS:
            self._wrap(module, attr, self._layer_wrapper(span, self._resolve(module, attr)))
        for kind, module in OP_TARGETS.items():
            self._wrap(module, kind, self._op_wrapper(kind, self._resolve(module, kind)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _resolve(module: str, attr: str):
        owner = sys.modules[module]
        if "." in attr:
            cls, meth = attr.split(".")
            return vars(getattr(owner, cls))[meth]
        return getattr(owner, attr)

    def _wrap(self, module: str, attr: str, wrapper) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[module], cls_name)
            self._patches.append((cls, meth, vars(cls)[meth]))
            setattr(cls, meth, wrapper)
            return
        original = getattr(sys.modules[module], attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "mvgen" or name.startswith("mvgen.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _layer_wrapper(self, span: str, fn):
        tracer = self
        name_id = self._name_id(span)
        hook = _HOOKS.get(span)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                tracer.spans.append((sid, name_id, start, end, parent, tracer.request, own))
                stats = tracer.stats[tracer.request]
                stats["incl." + span] += duration
                stats["self." + span] += own
                stats["calls." + span] += 1
            if hook is not None:
                hook(tracer.stats[tracer.request], tracer.tag, args, result)
            return result

        return wrapper

    def _op_wrapper(self, kind: str, fn):
        tracer = self
        cost = _OP_COST.get(kind)
        count_key, time_key = "op.count." + kind, "op.ms." + kind

        def wrapper(*args, **kwargs):
            if tracer._op_active:
                return fn(*args, **kwargs)
            tracer._op_active = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._op_active = False
            stats = tracer.stats[tracer.request]
            stats[count_key] += 1
            stats[time_key] += elapsed * 1e3
            if cost is not None:
                flop, nbytes = cost(args, out)
                stats["flop." + kind] += flop
                stats["bytes." + kind] += nbytes
            return out

        return wrapper

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write one JSON array per span: id, name, start_us, end_us, parent, request, self_us."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_us", "end_us", "parent",
                                            "request", "self_us"]}) + "\n")
            for sid, name_id, start, end, parent, request, own in self.spans:
                fh.write(json.dumps([sid, self.names[name_id], round((start - origin) * 1e6, 1),
                                     round((end - origin) * 1e6, 1), parent, request,
                                     round(own * 1e6, 1)]) + "\n")
        return len(self.spans)


# -- counters recorded at the boundaries -------------------------------------------


def _on_next_scale_logits(stats, tag, args, result):
    model, prefix = args[0], args[1]
    sizes = model.schedule.sizes
    k = len(prefix)
    length = sum(n * n for n in sizes[:k + 1])
    stats[f"prior.passes.{tag}"] += 1
    stats[f"prior.positions.{tag}"] += length
    stats[f"prior.consumed.{tag}"] += sizes[k] ** 2
    stats[f"prior.qk_pairs.{tag}"] += length * length


def _on_forward_batch(stats, tag, args, result):
    model, labels = args[0], args[2]
    b = len(labels)
    length = model.schedule.token_count
    stats[f"prior.images.{tag}"] += b
    stats[f"prior.passes.{tag}"] += b
    stats[f"prior.positions.{tag}"] += b * length
    stats[f"prior.consumed.{tag}"] += b * length
    stats[f"prior.qk_pairs.{tag}"] += b * length * length


def _on_generate(stats, tag, args, result):
    stats[f"prior.images.{tag}"] += 1


def _on_top_p(stats, tag, args, result):
    stats["sampler.kept"] += int(np.count_nonzero(result))
    stats["sampler.filtered"] += 1


def _on_clip(stats, tag, args, result):
    stats["numerics.clipped"] += float(result < 1.0)


def _on_preprocess(stats, tag, args, result):
    stats["datagen.accepted"] += float(result is not None)


def _on_write_checkpoint(stats, tag, args, result):
    stats["checkpoint.bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "prior.next_scale_logits": _on_next_scale_logits,
    "prior.forward_batch": _on_forward_batch,
    "sampler.generate": _on_generate,
    "sampler.top_p": _on_top_p,
    "numerics.clip": _on_clip,
    "datagen.preprocess": _on_preprocess,
    "checkpoint.write": _on_write_checkpoint,
}


def median_over(stats_by_request: list[dict], key: str) -> float:
    """Median over requests of one aggregated value (0 for an absent key)."""
    values = [s.get(key, 0.0) for s in stats_by_request]
    return float(np.median(values)) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

