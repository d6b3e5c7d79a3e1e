"""Optimization loop, optimizers, checkpointing, and evaluation driver."""

import json
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .data import make_batches
from .decode import DecodeConfig, decode, edit_distance_wer
from .model import ModelConfig, TransducerModel
from .tensor import _read_exact, read_tensor, write_tensor

CHECKPOINT_MAGIC = b"TKC1"
# 2: fused gate parameters (one stacked wx/wh/b/ln_gain/ln_bias per cell);
# 1 held one parameter set per gate.
CHECKPOINT_VERSION = 2


@dataclass
class TrainConfig:
    optimizer: str = "adam"
    lr: float = 1e-3
    lr_decay: float = 1.0  # per-epoch learning-rate multiplier
    clip_norm: float = 5.0
    epochs: int = 10
    batch_budget: int = 1500  # max sum of T_enc*(U+1) lattice cells per batch
    shuffle: str = "random"
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr < 0 or self.clip_norm <= 0 or self.epochs < 0:
            raise ValueError("lr must be >= 0, clip_norm > 0, epochs >= 0")
        if not 0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.shuffle not in ("random", "sorted"):
            raise ValueError(f"unknown shuffle mode {self.shuffle!r}")


class Sgd:
    def __init__(self, registry, lr):
        self.registry = registry
        self.lr = lr

    def step(self):
        for p in self.registry:
            p.value -= self.lr * p.grad


class Adam:
    def __init__(self, registry, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.registry = registry
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in registry}
        self.v = {p.name: np.zeros_like(p.value) for p in registry}

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p in self.registry:
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            p.value -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def make_optimizer(registry, cfg):
    if cfg.optimizer == "sgd":
        return Sgd(registry, cfg.lr)
    return Adam(registry, cfg.lr)


def fit(model, train_utts, cfg, dev_utts=None, log=None, eval_decode=None, on_epoch=None):
    """Train in place; returns a history of per-step and per-epoch records.

    Deterministic for fixed seeds and configs (single worker, fixed batch
    order per epoch seed). Aborts on a non-finite loss, naming the batch.
    ``on_epoch(epoch)`` runs after each epoch (checkpointing hook).
    """
    log = log or (lambda msg: print(msg, file=sys.stderr))
    opt = make_optimizer(model.registry, cfg)
    eval_decode = eval_decode or DecodeConfig(mode="greedy")
    history = {"steps": [], "epochs": []}
    step = 0
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr * cfg.lr_decay**epoch
        batches = make_batches(
            train_utts,
            cfg.batch_budget,
            mode=cfg.shuffle,
            seed=cfg.seed + epoch,
            frame_stack=model.cfg.frame_stack,
        )
        epoch_losses = []
        for batch in batches:
            model.registry.zero_grad()
            loss = model.batch_loss_and_grad([(u.features, u.labels) for u in batch])
            if not np.isfinite(loss):
                ids = ",".join(u.utt_id for u in batch)
                raise RuntimeError(f"non-finite loss {loss} at step {step} on batch [{ids}]")
            model.registry.clip_grad_norm(cfg.clip_norm)
            opt.step()
            history["steps"].append({"step": step, "epoch": epoch, "loss": loss})
            epoch_losses.append(loss)
            step += 1
        record = {"epoch": epoch, "mean_loss": float(np.mean(epoch_losses))}
        if dev_utts:
            record["dev_token_error"] = evaluate_token_error(model, dev_utts, eval_decode)[0]
        history["epochs"].append(record)
        log(f"epoch {epoch}: mean_loss={record['mean_loss']:.4f}"
            + (f" dev_err={record['dev_token_error']:.4f}" if dev_utts else ""))
        if on_epoch is not None:
            on_epoch(epoch)
    return history


def evaluate_token_error(model, utts, decode_cfg):
    """Corpus token error rate: (S+I+D) summed over utterances / total ref
    tokens. Returns (rate, {utt_id: Hypothesis})."""
    errors = 0
    ref_tokens = 0
    hyps = {}
    for utt in utts:
        enc, _ = model.encode(utt.features)
        hyp = decode(model, enc, decode_cfg)
        hyps[utt.utt_id] = hyp
        s, i, d, _ = edit_distance_wer(list(hyp.tokens), utt.labels)
        errors += s + i + d
        ref_tokens += len(utt.labels)
    return (errors / ref_tokens if ref_tokens else 0.0), hyps


def save_checkpoint(path, model, step=0, rng_state=None, extra=None):
    """Single-file checkpoint: magic, JSON header, then all parameters in
    tensor format. Round-trips bitwise."""
    header = {
        "version": CHECKPOINT_VERSION,
        "step": int(step),
        "model": model.cfg.to_dict(),
        "rng_state": rng_state,
        "extra": extra or {},
        "params": [name for name, _ in model.registry.state_items()],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for name, value in model.registry.state_items():
            f.write(struct.pack("<I", len(name.encode())))
            f.write(name.encode())
            write_tensor(f, value)


def load_checkpoint(path):
    """Rebuild the model and restore every tensor bitwise.

    Returns (model, header dict)."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "checkpoint magic")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, "checkpoint header length"))
        header = json.loads(_read_exact(f, hlen, "checkpoint header").decode("utf-8"))
        version = header.get("version")
        if version == 1:
            raise ValueError(f"{path}: checkpoint version 1 is the pre-fusion format (one parameter "
                             f"set per gate); this version reads only version {CHECKPOINT_VERSION}")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        cfg = ModelConfig(**header["model"])
        model = TransducerModel(cfg)
        for _ in header["params"]:
            (nlen,) = struct.unpack("<I", _read_exact(f, 4, "parameter name length"))
            name = _read_exact(f, nlen, "parameter name").decode()
            value = read_tensor(f)
            if name not in model.registry:
                raise ValueError(f"checkpoint parameter {name} not in model")
            p = model.registry[name]
            if p.value.shape != value.shape:
                raise ValueError(f"checkpoint parameter {name} has shape {value.shape}, "
                                 f"model expects {p.value.shape}")
            p.value[...] = value
    return model, header
