"""Optimization loop, optimizers, checkpointing, and evaluation driver."""

import json
import struct
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .data import make_batches
from .decode import DecodeConfig, corpus_token_errors, decode_corpus
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
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr < 0 or self.clip_norm <= 0 or self.epochs < 0:
            raise ValueError("lr must be >= 0, clip_norm > 0, epochs >= 0")
        if not 0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")


class Sgd:
    def __init__(self, registry, lr):
        self.registry = registry
        self.lr = lr

    def step(self):
        for p in self.registry:
            p.value -= self.lr * p.grad


class Adam:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, registry, lr):
        self.registry = registry
        self.lr = lr
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in registry}
        self.v = {p.name: np.zeros_like(p.value) for p in registry}

    def step(self):
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for p in self.registry:
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * p.grad
            v *= self.BETA2
            v += (1.0 - self.BETA2) * p.grad * p.grad
            p.value -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)


def make_optimizer(registry, cfg):
    if cfg.optimizer == "sgd":
        return Sgd(registry, cfg.lr)
    return Adam(registry, cfg.lr)


def fit(model, train_utts, cfg, dev_utts=None, log=None, on_epoch=None):
    """Train in place; returns a history of per-step and per-epoch records.

    Deterministic for fixed seeds and configs (single worker, fixed batch
    order per epoch seed). Aborts on a non-finite loss, naming the batch.
    Scores ``dev_utts`` by greedy decoding. ``on_epoch(epoch)`` runs after
    each epoch (checkpointing hook).
    """
    log = log or (lambda msg: print(msg, file=sys.stderr))
    opt = make_optimizer(model.registry, cfg)
    dev_decode = DecodeConfig(mode="greedy")
    history = {"steps": [], "epochs": []}
    step = 0
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr * cfg.lr_decay**epoch
        batches = make_batches(
            train_utts,
            cfg.batch_budget,
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
            record["dev_token_error"] = evaluate_token_error(model, dev_utts, dev_decode)[0]
        history["epochs"].append(record)
        log(f"epoch {epoch}: mean_loss={record['mean_loss']:.4f}"
            + (f" dev_err={record['dev_token_error']:.4f}" if dev_utts else ""))
        if on_epoch is not None:
            on_epoch(epoch)
    return history


def evaluate_token_error(model, utts, decode_cfg):
    """Corpus token error rate: (S+I+D) summed over utterances / total ref
    tokens. Returns (rate, {utt_id: Hypothesis})."""
    hyps = decode_corpus(model, utts, decode_cfg)
    rate = corpus_token_errors((hyps[u.utt_id].tokens, u.labels) for u in utts)[-1]
    return rate, hyps


def save_checkpoint(path, model, step=0):
    """Single-file checkpoint: magic, JSON header, then all parameters in
    tensor format. Round-trips bitwise."""
    header = {
        "version": CHECKPOINT_VERSION,
        "step": int(step),
        "model": asdict(model.cfg),
        "params": [p.name for p in model.registry],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for p in model.registry:
            f.write(struct.pack("<I", len(p.name.encode())))
            f.write(p.name.encode())
            write_tensor(f, p.value)


def load_checkpoint(path):
    """Rebuild the model and restore every tensor bitwise, each exactly once.

    Older model headers carry "joint_psi": "tanh", which is dropped. Returns (model, header dict)."""
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
        psi = header["model"].pop("joint_psi", "tanh")
        if psi != "tanh":
            raise ValueError(f"{path}: joint_psi {psi!r} is not supported; the joint is tanh only")
        cfg = ModelConfig(**header["model"])
        model = TransducerModel(cfg)
        loaded = set()
        for _ in header["params"]:
            (nlen,) = struct.unpack("<I", _read_exact(f, 4, "parameter name length"))
            name = _read_exact(f, nlen, "parameter name").decode()
            value = read_tensor(f)
            if name not in model.registry:
                raise ValueError(f"{path}: checkpoint parameter {name} not in model")
            if name in loaded:
                raise ValueError(f"{path}: parameter {name} appears more than once")
            loaded.add(name)
            p = model.registry[name]
            if p.value.shape != value.shape:
                raise ValueError(f"{path}: checkpoint parameter {name} has shape {value.shape}, "
                                 f"model expects {p.value.shape}")
            p.value[...] = value
        missing = [p.name for p in model.registry if p.name not in loaded]
        if missing:
            raise ValueError(f"{path}: parameter {missing[0]} is missing")
        if f.read(1):
            raise ValueError(f"{path}: unexpected bytes after the last parameter")
    return model, header
