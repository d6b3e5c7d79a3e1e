"""Line-oriented "key = value" run configuration with typed, closed schemas.

Plain text keeps experiment configs diffable and zero-dependency. Unknown
keys are rejected; values are parsed against the declared type. Flag
overrides use the same "key=value" syntax.
"""

import os
from dataclasses import fields

from .data import SyntheticTaskSpec
from .decode import DecodeConfig
from .model import ModelConfig
from .networks import NetConfig
from .train import TrainConfig


class ConfigError(ValueError):
    """Bad key, bad value, or missing referenced path (a usage error)."""


def _section_keys(prefix, cls):  # a dataclass's seed is the run-level "seed" key
    return {f"{prefix}.{f.name}": (f.type, f.default) for f in fields(cls) if f.name != "seed"}


# key -> (type, default); None default means the key must be set before use.
RUN_KEYS = {
    "seed": (int, 0),
    "data.dir": (str, None),
    "model.feature_dim": (int, 20),
    "model.frame_stack": (int, 3),
    "model.num_labels": (int, 21),
    "model.joint_dim": (int, 64),
    "model.encoder.cell_kind": (str, "lt_gru"),
    "model.encoder.layers": (int, 2),
    "model.encoder.hidden": (int, 64),
    "model.encoder.projection": (int, 0),
    "model.encoder.tau": (int, 0),
    "model.prediction.cell_kind": (str, "ln_gru"),
    "model.prediction.layers": (int, 1),
    "model.prediction.hidden": (int, 64),
    "model.prediction.projection": (int, 0),
    "model.prediction.embed_dim": (int, 16),
    **_section_keys("train", TrainConfig),
    **_section_keys("decode", DecodeConfig),
}

TASK_KEYS = {
    "task.num_labels": (int, 21),
    "task.utt_len_min": (int, 2),
    "task.utt_len_max": (int, 8),
    "task.dur_min": (int, 2),
    "task.dur_max": (int, 5),
    "task.noise_sigma": (float, 0.1),
    "task.train_size": (int, 800),
    "task.dev_size": (int, 60),
    "task.test_size": (int, 120),
    "task.seed": (int, 0),
    "task.render_stride": (int, 3),
}


def parse_kv_lines(lines, schema, source="<config>"):
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in schema:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        typ, _ = schema[key]
        try:
            values[key] = typ(text)
        except ValueError as e:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {e}") from None
    return values


class RunConfig:
    """Effective run configuration: file values + overrides + defaults."""

    def __init__(self, schema=RUN_KEYS):
        self.schema = schema
        self.values = {k: default for k, (_, default) in schema.items()}

    @classmethod
    def load(cls, path=None, overrides=(), schema=RUN_KEYS):
        cfg = cls(schema)
        if path is not None:
            if not os.path.exists(path):
                raise ConfigError(f"config file not found: {path}")
            with open(path) as f:
                cfg.values.update(parse_kv_lines(f, schema, source=path))
        if overrides:
            cfg.values.update(parse_kv_lines(list(overrides), schema, source="--set"))
        return cfg

    def __getitem__(self, key):
        if key not in self.schema:
            raise ConfigError(f"unknown key {key!r}")
        val = self.values[key]
        if val is None:
            raise ConfigError(f"required key {key!r} is not set")
        return val

    def require_dir(self, key):
        path = self[key]
        if not os.path.isdir(path):
            raise ConfigError(f"{key} = {path!r}: directory does not exist")
        return path

    def dump(self, path):
        with open(path, "w") as f:
            for key in sorted(self.values):
                val = self.values[key]
                if val is not None:
                    f.write(f"{key} = {val}\n")


def _build(make):
    """``make()``, a dataclass's validation error raised as a ConfigError."""
    try:
        return make()
    except ValueError as e:
        raise ConfigError(str(e)) from None


def model_config_from(cfg):
    enc = _build(lambda: NetConfig(
        cell_kind=cfg["model.encoder.cell_kind"],
        num_layers=cfg["model.encoder.layers"],
        hidden=cfg["model.encoder.hidden"],
        input_dim=cfg["model.feature_dim"] * cfg["model.frame_stack"],
        projection=cfg["model.encoder.projection"],
        tau=cfg["model.encoder.tau"],
    ))
    pre = _build(lambda: NetConfig(
        cell_kind=cfg["model.prediction.cell_kind"],
        num_layers=cfg["model.prediction.layers"],
        hidden=cfg["model.prediction.hidden"],
        input_dim=cfg["model.prediction.embed_dim"],
        projection=cfg["model.prediction.projection"],
    ))
    return _build(lambda: ModelConfig(
        feature_dim=cfg["model.feature_dim"],
        num_labels=cfg["model.num_labels"],
        joint_dim=cfg["model.joint_dim"],
        encoder=enc,
        prediction=pre,
        frame_stack=cfg["model.frame_stack"],
        seed=cfg["seed"],
    ))


def _section_values(cfg, prefix, cls):
    return {f.name: cfg[f"{prefix}.{f.name}"] for f in fields(cls) if f.name != "seed"}


def train_config_from(cfg):
    return _build(lambda: TrainConfig(seed=cfg["seed"], **_section_values(cfg, "train", TrainConfig)))


def decode_config_from(cfg):
    return _build(lambda: DecodeConfig(**_section_values(cfg, "decode", DecodeConfig)))


def task_spec_from(cfg):
    return _build(lambda: SyntheticTaskSpec(
        num_labels=cfg["task.num_labels"],
        utt_len_range=(cfg["task.utt_len_min"], cfg["task.utt_len_max"]),
        dur_range=(cfg["task.dur_min"], cfg["task.dur_max"]),
        noise_sigma=cfg["task.noise_sigma"],
        train_size=cfg["task.train_size"],
        dev_size=cfg["task.dev_size"],
        test_size=cfg["task.test_size"],
        seed=cfg["task.seed"],
        render_stride=cfg["task.render_stride"],
    ))
