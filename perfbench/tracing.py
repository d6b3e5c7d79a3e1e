"""Spans, self times and tracemalloc peaks recorded from outside the program.

``Tracer`` keeps a stack of open spans. Each span records its name, start,
end and parent; a span's self time is its duration minus the time its child
spans cover. With ``memory=True`` each span also records its tracemalloc peak
above the traced bytes at entry; nested spans share tracemalloc's single peak
counter, so every span folds the peak it saw into its parent's before the
counter is reset.

``layer_wrappers`` patches each public entry point where its caller
looks it up, so that the program's own code is not edited.
"""

import contextlib
import time
import tracemalloc

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []  # [name, start, end, parent index]
        self.stats = {}  # name -> [calls, self seconds, peak bytes]
        self.counters = {}
        self._stack = []  # [span index, start, child seconds, entry bytes, running max bytes]

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def enter(self, name):
        base = run_max = 0
        if self.memory:
            base, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][4] = max(self._stack[-1][4], peak)
            run_max = base
            tracemalloc.reset_peak()
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        start = perf_counter()
        self.spans.append([name, start, None, parent])
        self._stack.append([index, start, 0.0, base, run_max])

    def exit(self):
        """Close the innermost span; returns its peak bytes above entry."""
        end = perf_counter()
        index, start, child, base, run_max = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - start
        peak_above = 0
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            run_max = max(run_max, peak)
            peak_above = run_max - base
            if self._stack:
                self._stack[-1][4] = max(self._stack[-1][4], run_max)
            tracemalloc.reset_peak()
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats.setdefault(span[0], [0, 0.0, 0])
        stat[0] += 1
        stat[1] += duration - child
        stat[2] = max(stat[2], peak_above)
        return peak_above

    def inside(self, names):
        """Whether any open span has one of ``names``."""
        return any(self.spans[entry[0]][0] in names for entry in self._stack)

    def wrap(self, name, fn, on_call=None):
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("index\tname\tstart_s\tend_s\tparent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, attr, value):
        had_own = attr in vars(obj)
        self._undo.append((obj, attr, vars(obj).get(attr), had_own))
        setattr(obj, attr, value)

    def restore(self):
        for obj, attr, old, had_own in reversed(self._undo):
            if had_own:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)
        self._undo.clear()


def _state_key(state, token):
    parts = [] if token is None else [int(token).to_bytes(4, "little")]
    for cell_state in state:
        parts.append(cell_state.h.tobytes())
        if cell_state.c is not None:
            parts.append(cell_state.c.tobytes())
    return (token is None, b"".join(parts))


@contextlib.contextmanager
def layer_wrappers(tracer, model=None):
    """Install span wrappers on every layer entry point for the duration.

    Module functions are patched in the module that calls them; methods on
    their class; the encoder network, its time and depth cells and the
    prediction network on the ``model`` instance, so that encoder and
    prediction spans stay apart.
    """
    from transducerkit import decode, joint, loss, tensor, train
    from transducerkit import model as model_mod

    patches = _Patches()
    decoder = {"seen": set()}

    def fn(module, attr, name, on_call=None):
        patches.set(module, attr, tracer.wrap(name, getattr(module, attr), on_call))

    def method(cls, attr, name, on_call=None):
        patches.set(cls, attr, tracer.wrap(name, vars(cls)[attr], on_call))

    def count_cell_step(*args, **kwargs):
        tracer.count("networks.encoder.cell_steps")

    def count_rows(self, enc_outputs, pre_outputs, *args, **kwargs):
        tracer.count("joint.rows", sum(e.shape[0] * p.shape[0] for e, p in zip(enc_outputs, pre_outputs)))

    def start_decoder(model, enc_outputs, *args, **kwargs):
        tracer.count("decode.frames", enc_outputs.shape[0])
        decoder["seen"] = set()

    def count_pop(*args, **kwargs):
        if decoder_open():
            tracer.count("decode.pops")

    def count_pred_step(state, token=None):
        if decoder_open():
            tracer.count("decode.pred_steps")
            key = _state_key(state, token)
            if key in decoder["seen"]:
                tracer.count("decode.pred_step_repeats")
            decoder["seen"].add(key)

    def decoder_open():
        return tracer.inside(("decode.greedy_decode", "decode.beam_decode"))

    try:
        fn(train, "fit", "train.fit")
        fn(train, "make_batches", "data.make_batches")
        fn(model_mod, "softmax_inplace", "tensor.softmax_inplace")
        fn(tensor, "softmax_inplace", "tensor.softmax_inplace")
        fn(loss, "forward_backward", "loss.forward_backward")
        fn(loss, "grad_logits_merged", "loss.grad_logits_merged")
        fn(decode, "greedy_decode", "decode.greedy_decode", start_decoder)
        fn(decode, "beam_decode", "decode.beam_decode", start_decoder)
        method(joint.JointNetwork, "combine_packed", "joint.combine_packed", count_rows)
        method(joint.JointNetwork, "project_logits", "joint.project_logits")
        method(joint.JointNetwork, "backward", "joint.backward")
        method(tensor.ParamRegistry, "clip_grad_norm", "tensor.clip_grad_norm")
        method(train.Adam, "step", "train.optimizer_step")
        method(train.Sgd, "step", "train.optimizer_step")
        for attr in ("batch_loss_and_grad", "batch_loss", "forward_batch", "encode", "backprop_to_networks"):
            method(model_mod.TransducerModel, attr, f"model.{attr}")
        method(model_mod.TransducerModel, "joint_log_probs_row", "model.joint_log_probs_row", count_pop)
        if model is not None:
            enc = model.encoder
            for attr in ("forward", "backward"):
                patches.set(enc, attr, tracer.wrap("networks.encoder.glue", getattr(enc, attr)))
            for kind in ("time", "depth"):
                for cell in getattr(enc, f"{kind}_cells", []):
                    patches.set(cell, "step", tracer.wrap(f"networks.encoder.{kind}.fwd", cell.step, count_cell_step))
                    patches.set(cell, "backward", tracer.wrap(f"networks.encoder.{kind}.bwd", cell.backward))
            pre = model.prediction
            patches.set(pre, "forward", tracer.wrap("networks.prediction.fwd", pre.forward))
            patches.set(pre, "backward", tracer.wrap("networks.prediction.bwd", pre.backward))
            patches.set(pre, "step", tracer.wrap("networks.prediction.step", pre.step, count_pred_step))
        yield tracer
    finally:
        patches.restore()


MODULES = ("data", "networks", "joint", "tensor", "loss", "model", "train", "decode")


def layer_metrics(tracer, wall_s, untraced_wall_s, mem_tracer):
    """Per-layer metric values from a timed trace and a memory trace."""
    stats = tracer.stats
    counters = tracer.counters

    def self_s(name):
        return stats.get(name, [0, 0.0, 0])[1]

    def calls(name):
        return stats.get(name, [0, 0.0, 0])[0]

    def peak_mb(name):
        return mem_tracer.stats.get(name, [0, 0.0, 0])[2] / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for kind in ("time", "depth"):
        for direction in ("fwd", "bwd"):
            m[f"networks.encoder.{kind}.{direction}_s"] = self_s(f"networks.encoder.{kind}.{direction}")
    m["networks.encoder.glue_s"] = self_s("networks.encoder.glue")
    m["networks.encoder.cell_steps"] = counters.get("networks.encoder.cell_steps", 0)
    m["networks.prediction.fwd_s"] = self_s("networks.prediction.fwd")
    m["networks.prediction.bwd_s"] = self_s("networks.prediction.bwd")
    m["networks.prediction.step_s"] = self_s("networks.prediction.step")
    m["networks.prediction.step_calls"] = calls("networks.prediction.step")
    for name in ("joint.combine_packed", "joint.project_logits", "joint.backward",
                 "tensor.softmax_inplace", "loss.forward_backward", "loss.grad_logits_merged"):
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.peak_mb"] = peak_mb(name)
    m["joint.rows"] = counters.get("joint.rows", 0)
    m["tensor.clip_grad_norm.self_s"] = self_s("tensor.clip_grad_norm")
    m["train.optimizer_step.self_s"] = self_s("train.optimizer_step")
    m["train.fit.self_s"] = self_s("train.fit")
    m["data.make_batches.self_s"] = self_s("data.make_batches")
    m["model.joint_log_probs_row.calls"] = calls("model.joint_log_probs_row")
    m["model.joint_log_probs_row.self_s"] = self_s("model.joint_log_probs_row")
    m["model.glue_s"] = sum(s[1] for n, s in stats.items()
                            if n.startswith("model.") and n != "model.joint_log_probs_row")
    m["decode.greedy_decode.self_s"] = self_s("decode.greedy_decode")
    m["decode.beam_decode.self_s"] = self_s("decode.beam_decode")
    frames = counters.get("decode.frames", 0)
    pred_steps = counters.get("decode.pred_steps", 0)
    m["decode.pops_per_frame"] = ratio(counters.get("decode.pops", 0), frames)
    m["decode.pred_steps_per_frame"] = ratio(pred_steps, frames)
    m["decode.pred_step_repeat_frac"] = ratio(counters.get("decode.pred_step_repeats", 0), pred_steps)
    traced = 0.0
    for module in MODULES:
        names = [n for n in stats if n.split(".", 1)[0] == module]
        module_self = sum(stats[n][1] for n in names)
        traced += module_self
        m[f"{module}.calls"] = sum(stats[n][0] for n in names)
        m[f"{module}.self_s"] = module_self
        m[f"{module}.share"] = ratio(module_self, wall_s)
    m["trace.wall_s"] = wall_s
    m["trace.untraced_s"] = wall_s - traced
    m["trace.untraced.share"] = ratio(wall_s - traced, wall_s)
    m["trace.overhead_frac"] = ratio(wall_s - untraced_wall_s, untraced_wall_s)
    m["trace.spans"] = len(tracer.spans)
    return m
