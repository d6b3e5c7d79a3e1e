"""The benchmark's workloads, their correctness checks and memory probes.

Every workload is built from ``--seed`` alone: the synthetic generator, or
random arrays for the loss stage, produce the inputs, and model weights come
from the shipped configs. A workload object is its own set-up: building one
is what ``setup_s`` times.

Each workload runs a closed loop of operations through ``run(ops, stop)``,
calling ``ops.begin`` before an operation, ``ops.end`` after it and
``ops.fail`` if it raised; ``stop()`` is asked before each operation starts.
"""

import collections
import dataclasses
import glob
import hashlib
import itertools
import os

import numpy as np

from transducerkit import config as tk_config
from transducerkit import data as tk_data
from transducerkit import decode as tk_decode
from transducerkit import joint as tk_joint
from transducerkit import loss as tk_loss
from transducerkit import tensor as tk_tensor
from transducerkit import train as tk_train
from transducerkit.model import TransducerModel

import checks

TRAIN_SUBSET = 40  # utterances per training round
TRAIN_EPOCHS = 2  # epochs per training round
DECODE_TRAIN_STEPS = 150  # training steps behind the decode model
DECODE_UTTS = 224  # test utterances decoded in a loop: 8 per (token count, duration) pair
LOSS_POOL = 9  # minibatches in the loss-stage pool; odd, so the median operation is one pool entry
LOSS_SEQS = 2  # sequences per loss-stage minibatch
LOSS_T = (80, 400)
LOSS_U = (4, 40)
LOSS_K = 256
LOSS_D = 64
MEMORY_OPS = 2  # longest utterances in the decode memory pass
MEMORY_STEPS = 6  # training steps in the memory pass

TINY = {"TRAIN_SUBSET": 6, "TRAIN_EPOCHS": 1, "DECODE_UTTS": 3, "DECODE_TRAIN_STEPS": 2, "LOSS_POOL": 2,
        "LOSS_SEQS": 2, "LOSS_T": (6, 12), "LOSS_U": (1, 4), "LOSS_K": 16, "MEMORY_OPS": 1,
        "MEMORY_STEPS": 1}


class Stop(Exception):
    """Raised inside a training step hook to end ``fit`` early."""


def derive_seed(seed, stream):
    """Independent seed for one input stream of one run."""
    return int(np.random.SeedSequence([seed & (2**63 - 1), stream]).generate_state(1)[0])


def _quiet(msg):
    pass


def _load_cfg(root, name, schema=tk_config.RUN_KEYS):
    return tk_config.RunConfig.load(os.path.join(root, "configs", name), schema=schema)


def _task_split(root, seed, split, size):
    """``size`` utterances of the default synthetic task drawn from ``seed``,
    stratified so that every seed gives the same input sizes: each
    utterance takes one (token count, token duration) pair of the task, the
    pairs spread evenly over the task's ranges in a fixed order, and tokens
    and noise vary with the seed."""
    spec = tk_config.task_spec_from(_load_cfg(root, "default-task.cfg", tk_config.TASK_KEYS))
    lengths = range(spec.utt_len_range[0], spec.utt_len_range[1] + 1)
    durations = range(spec.dur_range[0], spec.dur_range[1] + 1)
    strata = [(u_len, dur) for u_len in lengths for dur in durations]
    plan = [strata[i * len(strata) // size] for i in range(size)]
    drawn = {}
    for u_len, dur in set(plan):
        sizes = {"train_size": 0, "dev_size": 0, "test_size": 0, f"{split}_size": plan.count((u_len, dur))}
        spec_s = dataclasses.replace(spec, seed=derive_seed(seed, 16 * u_len + dur),
                                     utt_len_range=(u_len, u_len), dur_range=(dur, dur), **sizes)
        drawn[u_len, dur] = tk_data.gen_synthetic(spec_s)[split]
    return [dataclasses.replace(drawn[key].pop(0), utt_id=f"{split}-{i:05d}")
            for i, key in enumerate(plan)]


def _frames(features, frame_stack):
    """Encoder frames of one utterance after frame stacking."""
    return -(-features.shape[0] // frame_stack)


def _cells(features, labels, frame_stack):
    """Lattice cells T*(U+1) of one utterance."""
    return _frames(features, frame_stack) * (len(labels) + 1)


def run_indices(ops, stop, indices, size_of, op, record):
    """Closed loop over ``indices``, one operation each, until ``stop()``:
    ``size_of(i)`` gives its (utterances, cells), ``op(i)`` does the work and
    ``record(i, result)`` keeps the result of an operation that did not raise."""
    for index in indices:
        if stop():
            return
        ops.begin(*size_of(index))
        try:
            result = op(index)
        except Exception as exc:
            ops.fail(exc)
            continue
        ops.end()
        record(index, result)


class _NoOps:
    """Operation sink for a round run outside the measured loops."""

    count = 0

    def begin(self, utts, cells):
        pass

    def end(self):
        pass

    def fail(self, exc):
        raise exc


class _StepHook:
    """Instance hook on ``model.batch_loss_and_grad``: marks training-step
    boundaries inside ``fit`` and records each step's loss and batch."""

    def __init__(self, model, before_step):
        self.model = model
        self.before_step = before_step
        self.steps = []  # (loss, utterances, frames, batch)
        model.batch_loss_and_grad = self

    def __call__(self, batch):
        self.before_step(batch)
        loss = type(self.model).batch_loss_and_grad(self.model, batch)
        frames = sum(_frames(f, self.model.cfg.frame_stack) for f, _ in batch)
        self.steps.append((loss, len(batch), frames, batch))
        return loss

    def remove(self):
        del self.model.batch_loss_and_grad


class TrainWorkload:
    """Closed loop of ``train.fit`` rounds: each round trains a freshly
    initialised model for TRAIN_EPOCHS epochs over the same seeded subset, so
    every round repeats the same steps and losses. One operation is one
    training step."""

    def __init__(self, root, seed, config_name, size):
        cfg = _load_cfg(root, config_name)
        self.utts = _task_split(root, derive_seed(seed, 1), "train", size["TRAIN_SUBSET"])
        self.model = TransducerModel(tk_config.model_config_from(cfg))
        self.frame_stack = self.model.cfg.frame_stack
        self.init = [p.value.copy() for p in self.model.registry]
        self.train_cfg = dataclasses.replace(tk_config.train_config_from(cfg), epochs=size["TRAIN_EPOCHS"])
        self.memory_steps = size["MEMORY_STEPS"]
        self.rounds = []  # (complete, step losses, loss_end or None)
        self.first_batch = None

    def _reset(self):
        for p, value in zip(self.model.registry, self.init):
            p.value[...] = value
            p.grad[...] = 0.0

    def run(self, ops, stop):
        while not stop():
            self._round(ops, stop)

    def _round(self, ops, stop):
        self._reset()
        state = {"open": False, "last_epoch_from": 0}

        def before_step(batch):
            if state["open"]:
                ops.end()
                state["open"] = False
            if stop():
                raise Stop
            ops.begin(len(batch), sum(_cells(f, l, self.frame_stack) for f, l in batch))
            state["open"] = True

        def on_epoch(epoch):
            if epoch + 1 < self.train_cfg.epochs:
                state["last_epoch_from"] = len(hook.steps)

        hook = _StepHook(self.model, before_step)
        complete = False
        try:
            tk_train.fit(self.model, self.utts, self.train_cfg, log=_quiet, on_epoch=on_epoch)
            complete = True
        except Stop:
            pass
        except Exception as exc:  # a failed step ends the round
            state["open"] = False
            ops.fail(exc)
        finally:
            hook.remove()
        if state["open"]:
            ops.end()
        if self.first_batch is None and hook.steps:
            self.first_batch = hook.steps[0][3]
        losses = [s[0] for s in hook.steps]
        loss_end = None
        if complete:
            tail = hook.steps[state["last_epoch_from"]:]
            loss_end = sum(s[0] * s[1] for s in tail) / sum(s[2] for s in tail)
        self.rounds.append((complete, losses, loss_end))

    def memory_run(self, ops):
        self._round(ops, lambda: ops.count >= self.memory_steps)

    def check(self, failures):
        """Rounds repeat bitwise; the merged logit gradient matches the chain
        rule on the first minibatch. Returns loss_end."""
        if not any(r[0] for r in self.rounds):
            self._round(_NoOps(), lambda: False)
        reference = next(r for r in self.rounds if r[0])
        for complete, losses, _ in self.rounds:
            checks.same_sequence("round losses", reference[1], losses, failures, prefix=not complete)
        if not all(np.isfinite(reference[1])):
            failures.append("non-finite training loss")
        self._reset()
        batch = self.first_batch or [(u.features, u.labels) for u in self.utts[:2]]
        logits, caches = self.model.forward_batch(batch)
        checks.merged_vs_chain(logits, caches[3], failures)
        return reference[2]

    def claims_inputs(self):
        self._reset()
        batch = self.first_batch or [(u.features, u.labels) for u in self.utts[:2]]
        enc = [self.model.encode(f)[0] for f, _ in batch]
        pre = [self.model.prediction.forward(l)[0] for _, l in batch]
        return self.model.joint, enc, pre, [list(l) for _, l in batch]


def loss_pool_shapes(size):
    """Fixed (T, U) lattice shapes of the loss-stage pool, spanning LOSS_T x
    LOSS_U evenly, so that every seed measures the same amount of work."""
    n = size["LOSS_POOL"] * size["LOSS_SEQS"]
    (t_lo, t_hi), (u_lo, u_hi) = size["LOSS_T"], size["LOSS_U"]
    ts = [t_lo + (t_hi - t_lo) * j // (n - 1) for j in range(n)]
    us = [u_lo + (u_hi - u_lo) * ((7 * j) % n) // (n - 1) for j in range(n)]
    pairs = list(zip(ts, us))
    seqs = size["LOSS_SEQS"]
    return [pairs[i * seqs:(i + 1) * seqs] for i in range(size["LOSS_POOL"])]


_Minibatch = collections.namedtuple("_Minibatch", "enc pre labels cells frames")


class LossWorkload:
    """The loss stage alone on a pool of long variable-length minibatches with
    random encoder and prediction outputs. One operation is one minibatch
    through combine, projection, softmax, recursions, merged gradient and
    joint backward."""

    def __init__(self, root, seed, size):
        rng = np.random.default_rng(derive_seed(seed, 2))
        k, d = size["LOSS_K"], LOSS_D
        self.joint = tk_joint.JointNetwork(
            tk_tensor.ParamRegistry(), "joint", d, d, d, k, np.random.default_rng(0))
        self.pool = []
        for shapes in loss_pool_shapes(size):
            enc = [rng.standard_normal((t, d)) for t, _ in shapes]
            pre = [rng.standard_normal((u + 1, d)) for _, u in shapes]
            labels = [rng.integers(1, k, size=u).tolist() for _, u in shapes]
            cells = sum(t * (u + 1) for t, u in shapes)
            self.pool.append(_Minibatch(enc, pre, labels, cells, sum(t for t, _ in shapes)))
        rng.shuffle(self.pool)
        self.losses = {}  # pool index -> per-sequence losses
        self.failures = []

    def _op(self, index):
        mb = self.pool[index]
        z, cache = self.joint.combine_packed(mb.enc, mb.pre)
        logits = self.joint.project_logits(z)
        tk_tensor.softmax_inplace(logits.data)
        ws = tk_loss.forward_backward(logits, mb.labels)
        d_logits = tk_loss.grad_logits_merged(ws)
        self.joint.backward(d_logits, cache)
        return ws.losses

    def _run_indices(self, ops, stop, indices):
        def size_of(index):
            return len(self.pool[index].enc), self.pool[index].cells

        run_indices(ops, stop, indices, size_of, self._op, self._record)

    def _record(self, index, losses):
        if index not in self.losses:
            self.losses[index] = losses
        else:
            checks.same_sequence(f"minibatch {index} losses", self.losses[index], losses, self.failures)

    def run(self, ops, stop):
        self._run_indices(ops, stop, itertools.cycle(range(len(self.pool))))

    def memory_run(self, ops):
        by_size = sorted(range(len(self.pool)), key=lambda i: -self.pool[i].cells)
        self._run_indices(ops, lambda: False, by_size[:2])

    def check(self, failures):
        failures.extend(self.failures)
        for index in range(len(self.pool)):
            if index not in self.losses:
                self._record(index, self._op(index))
        losses = np.concatenate([self.losses[i] for i in range(len(self.pool))])
        if not np.all(np.isfinite(losses)):
            failures.append("non-finite loss-stage loss")
        first = self.pool[0]
        z, _ = self.joint.combine_packed(first.enc, first.pre)
        checks.merged_vs_chain(self.joint.project_logits(z), first.labels, failures)
        return float(losses.sum()) / sum(mb.frames for mb in self.pool)

    def claims_inputs(self):
        first = self.pool[0]
        return self.joint, first.enc, first.pre, first.labels


def _source_digest(root, steps):
    h = hashlib.sha256(f"steps={steps}".encode())
    files = sorted(glob.glob(os.path.join(root, "src", "transducerkit", "*.py")))
    files += [os.path.join(root, "configs", n) for n in ("quickstart.cfg", "default-task.cfg")]
    for path in files:
        with open(path, "rb") as f:
            h.update(os.path.basename(path).encode() + f.read())
    return h.hexdigest()[:16]


def decode_model_path(root, steps):
    return os.path.join(root, ".bench_build", "perfbench", f"decode-{_source_digest(root, steps)}.tkc")


def build_decode_model(root, steps):
    """Train the quickstart model for a fixed step count on the default
    task's fixed-seed training split and save it; a build product, redone
    whenever the program sources or configs change."""
    path = decode_model_path(root, steps)
    if os.path.exists(path):
        return path, False
    cfg = _load_cfg(root, "quickstart.cfg")
    task = tk_config.task_spec_from(_load_cfg(root, "default-task.cfg", tk_config.TASK_KEYS))
    utts = tk_data.gen_synthetic(task)["train"]
    model = TransducerModel(tk_config.model_config_from(cfg))

    def before_step(batch):
        if len(hook.steps) >= steps:
            raise Stop

    hook = _StepHook(model, before_step)
    try:
        tk_train.fit(model, utts, tk_config.train_config_from(cfg), log=_quiet)
    except Stop:
        pass
    hook.remove()
    if len(hook.steps) != steps:
        raise RuntimeError(f"decode model trained {len(hook.steps)} steps, expected {steps}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    tk_train.save_checkpoint(tmp, model, step=steps)
    os.replace(tmp, path)
    return path, True


class DecodeWorkload:
    """Decoding of seeded test utterances with the decode model, greedy or
    beam. One operation is one utterance: encoder forward plus search."""

    NBEST_CHECKED = 3  # utterances whose whole n-best list is bounded

    def __init__(self, root, seed, mode, size):
        self.model, _ = tk_train.load_checkpoint(decode_model_path(root, size["DECODE_TRAIN_STEPS"]))
        self.cfg = dataclasses.replace(tk_config.decode_config_from(_load_cfg(root, "quickstart.cfg")), mode=mode)
        utts = _task_split(root, derive_seed(seed, 3), "test", size["DECODE_UTTS"])
        # a fixed interleaving of the (token count, duration) pairs, so that a
        # pass cut short by the deadline still decodes a balanced mix
        self.utts = [utts[i] for i in np.random.default_rng(0).permutation(len(utts))]
        self.memory_ops = size["MEMORY_OPS"]
        self.first = {}  # utterance index -> n-best [(tokens, frames, log_prob)]
        self.failures = []

    def _decode(self, utt):
        enc, _ = self.model.encode(utt.features)
        if self.cfg.mode == "greedy":
            return [tk_decode.greedy_decode(self.model, enc, self.cfg.max_symbols_per_frame)]
        return tk_decode.beam_decode(self.model, enc, self.cfg)[1]

    def _run_indices(self, ops, stop, indices):
        def size_of(index):
            utt = self.utts[index]
            return 1, _cells(utt.features, utt.labels, self.model.cfg.frame_stack)

        run_indices(ops, stop, indices, size_of, lambda i: self._decode(self.utts[i]), self._record)

    def _record(self, index, nbest):
        entries = [(tuple(h.tokens), tuple(h.emit_frames), h.log_prob) for h in nbest]
        if index not in self.first:
            self.first[index] = entries
        elif entries != self.first[index]:
            self.failures.append(f"utterance {index}: repeated decode differs")

    def run(self, ops, stop):
        self._run_indices(ops, stop, itertools.cycle(range(len(self.utts))))

    def memory_run(self, ops):
        longest = sorted(range(len(self.utts)), key=lambda i: -self.utts[i].features.shape[0])
        self._run_indices(ops, lambda: False, longest[: self.memory_ops])

    def check(self, failures):
        """Every checked hypothesis scores at most its lattice likelihood;
        decoding repeats exactly. Returns the reference loss per frame."""
        repeat = sorted(self.first)[: self.NBEST_CHECKED]
        for index in repeat:
            self._record(index, self._decode(self.utts[index]))
        failures.extend(self.failures)
        for index, nbest in sorted(self.first.items()):
            utt = self.utts[index]
            for tokens, _, log_prob in nbest if index in repeat else nbest[:1]:
                lattice_ll = -self.model.batch_loss([(utt.features, list(tokens))])
                checks.score_bound(log_prob, lattice_ll, f"utterance {index} {tokens}", failures)
        batch = [(u.features, u.labels) for u in self.utts]
        total = self.model.batch_loss(batch) * len(batch)
        return total / sum(_frames(u.features, self.model.cfg.frame_stack) for u in self.utts)

    def digest(self):
        h = hashlib.sha256()
        for index, nbest in sorted(self.first.items()):
            tokens, frames, _ = nbest[0]
            h.update(repr((index, tokens, frames)).encode())
        return h.hexdigest()[:16]

    def token_error(self):
        errors = refs = 0
        for index, nbest in self.first.items():
            s, i, d, _ = tk_decode.edit_distance_wer(list(nbest[0][0]), self.utts[index].labels)
            errors += s + i + d
            refs += len(self.utts[index].labels)
        return errors / refs if refs else 0.0

    def claims_inputs(self):
        utts = self.utts[:4]
        enc = [self.model.encode(u.features)[0] for u in utts]
        pre = [self.model.prediction.forward(u.labels)[0] for u in utts]
        return self.model.joint, enc, pre, [list(u.labels) for u in utts]


WORKLOADS = {
    "train-quickstart": lambda root, seed, size: TrainWorkload(root, seed, "quickstart.cfg", size),
    "train-ecltgru": lambda root, seed, size: TrainWorkload(root, seed, "ecltgru-tau4.cfg", size),
    "loss-long": LossWorkload,
    "decode-greedy": lambda root, seed, size: DecodeWorkload(root, seed, "greedy", size),
    "decode-beam": lambda root, seed, size: DecodeWorkload(root, seed, "beam", size),
}


def sizes(tiny):
    size = {name: value for name, value in globals().items() if name in TINY}
    if tiny:
        size.update(TINY)
    return size
