import json
import math
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from transducerkit.data import SyntheticTaskSpec, Utterance, gen_synthetic, make_batches
from transducerkit.decode import DecodeConfig, greedy_decode
from transducerkit.model import ModelConfig, TransducerModel
from transducerkit.networks import NetConfig
from transducerkit.train import (
    TrainConfig,
    evaluate_token_error,
    fit,
    load_checkpoint,
    save_checkpoint,
)


def small_model(seed=0, num_labels=6, feature_dim=5):
    cfg = ModelConfig(
        feature_dim=feature_dim,
        num_labels=num_labels,
        joint_dim=8,
        encoder=NetConfig(cell_kind="lt_gru", num_layers=1, hidden=8, input_dim=feature_dim * 3),
        prediction=NetConfig(cell_kind="ln_gru", num_layers=1, hidden=8, input_dim=4),
        frame_stack=3,
        seed=seed,
    )
    return TransducerModel(cfg)


def small_corpus(n=8, seed=0):
    spec = SyntheticTaskSpec(
        num_labels=6, utt_len_range=(1, 3), dur_range=(2, 4), noise_sigma=0.05,
        train_size=n, dev_size=2, test_size=2, seed=seed,
    )
    return gen_synthetic(spec)


def snapshot(model):
    return {p.name: p.value.copy() for p in model.registry}


def split_checkpoint(raw):
    """(header dict, raw bytes of each parameter record) of a checkpoint."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    records, pos = [], 8 + hlen
    for _ in header["params"]:
        (nlen,) = struct.unpack("<I", raw[pos : pos + 4])
        tensor = pos + 4 + nlen
        (rank,) = struct.unpack("<I", raw[tensor + 4 : tensor + 8])
        shape = struct.unpack(f"<{rank}Q", raw[tensor + 8 : tensor + 8 + 8 * rank])
        end = tensor + 8 + 8 * rank + 8 * math.prod(shape)
        records.append(raw[pos:end])
        pos = end
    assert pos == len(raw)
    return header, records


def join_checkpoint(header, records):
    blob = json.dumps(header).encode()
    return b"TKC1" + struct.pack("<I", len(blob)) + blob + b"".join(records)


class TestFit:
    def test_zero_lr_leaves_params_bitwise_unchanged(self):
        for opt in ("sgd", "adam"):
            model = small_model()
            corpus = small_corpus()
            before = snapshot(model)
            cfg = TrainConfig(optimizer=opt, lr=0.0, epochs=1, batch_budget=200, seed=0)
            fit(model, corpus["train"], cfg, log=lambda m: None)
            for p in model.registry:
                npt.assert_array_equal(p.value, before[p.name])

    def test_single_utterance_overfit(self):
        # canonical smoke test: loss on one T_enc=6, U=2 utterance falls
        # below 0.01 nats within 500 steps
        model = small_model(seed=1)
        rng = np.random.default_rng(2)
        feats = np.zeros((18, 5))
        feats[:9, 1] = 1.0
        feats[9:, 3] = 1.0
        feats += rng.normal(0, 0.05, feats.shape)
        utt = Utterance("solo", feats, [2, 4], [9, 18])
        cfg = TrainConfig(lr=1.5e-2, epochs=500, batch_budget=200, seed=0)
        history = fit(model, [utt], cfg, log=lambda m: None)
        losses = [r["loss"] for r in history["steps"]]
        assert min(losses) < 0.01
        assert losses[-1] < 0.01

    def test_untrained_loss_magnitude(self):
        # near-uniform logits: per-utterance loss is on the order of
        # (T_enc + U) * ln K
        model = small_model(seed=3)
        corpus = small_corpus(n=6, seed=4)
        k = model.num_labels
        for utt in corpus["train"]:
            t_enc = (utt.features.shape[0] + 2) // 3
            scale = (t_enc + len(utt.labels)) * math.log(k)
            loss = model.batch_loss([(utt.features, utt.labels)])
            assert 0.2 * scale < loss < 2.0 * scale

    def test_deterministic_loss_curves(self):
        corpus = small_corpus()
        histories = []
        for _ in range(2):
            model = small_model(seed=5)
            cfg = TrainConfig(lr=1e-3, epochs=2, batch_budget=150, seed=9)
            histories.append(fit(model, corpus["train"], cfg, log=lambda m: None))
        a = [r["loss"] for r in histories[0]["steps"]]
        b = [r["loss"] for r in histories[1]["steps"]]
        assert a == b

    def test_training_reduces_loss(self):
        model = small_model(seed=6)
        corpus = small_corpus(n=12, seed=7)
        cfg = TrainConfig(lr=3e-3, epochs=2, batch_budget=150, seed=0)
        history = fit(model, corpus["train"], cfg, log=lambda m: None)
        assert history["epochs"][1]["mean_loss"] < history["epochs"][0]["mean_loss"]

    def test_clip_bounds_update_norm(self):
        model = small_model(seed=8)
        corpus = small_corpus(n=4, seed=9)
        batch = [(u.features, u.labels) for u in corpus["train"]]
        model.registry.zero_grad()
        model.batch_loss_and_grad(batch)
        clip = 0.5
        model.registry.clip_grad_norm(clip)
        assert model.registry.grad_global_norm() <= clip + 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_batch_id(self):
        model = small_model(seed=10)
        corpus = small_corpus(n=3, seed=11)
        model.joint.b_out.value[0] = -np.inf  # blank prob 0 -> infinite loss
        cfg = TrainConfig(lr=1e-3, epochs=1, batch_budget=500, seed=0)
        first = make_batches(corpus["train"], cfg.batch_budget, seed=cfg.seed)[0]
        ids = ",".join(u.utt_id for u in first)
        # the loss is checked before any backward pass, so no NaN arithmetic runs
        with pytest.raises(RuntimeError, match=re.escape(f"on batch [{ids}]")):
            fit(model, corpus["train"], cfg, log=lambda m: None)


class TestEvaluate:
    def test_perfect_model_scores_zero(self):
        # rig a model? cheaper: score a corpus against itself via hyps from
        # greedy decode of a trained-enough model is slow; instead check the
        # error of an empty decode equals 1 (all deletions)
        model = small_model(seed=12)
        model.joint.b_out.value[0] = 50.0  # blank always wins
        corpus = small_corpus(n=4, seed=13)
        err, hyps = evaluate_token_error(model, corpus["train"], DecodeConfig(mode="greedy"))
        assert err == 1.0
        assert all(len(h.tokens) == 0 for h in hyps.values())


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = small_model(seed=14)
        path = tmp_path / "m.tkc"
        save_checkpoint(path, model, step=17)
        loaded, header = load_checkpoint(path)
        assert header["step"] == 17
        for p in model.registry:
            npt.assert_array_equal(loaded.registry[p.name].value, p.value)

    def test_header_with_rng_state_and_extra_loads(self, tmp_path):
        # older version-2 writers stored these two header keys; the loader
        # never read them
        model = small_model(seed=19)
        path = tmp_path / "old.tkc"
        save_checkpoint(path, model, step=4)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8 : 8 + hlen])
        header.update(rng_state={"x": 1}, extra={"note": "a"})
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + hlen :])
        loaded, got = load_checkpoint(path)
        assert got["rng_state"] == {"x": 1} and got["step"] == 4
        for p in model.registry:
            assert loaded.registry[p.name].value.tobytes() == p.value.tobytes()

    def test_parent_joint_psi_header(self, tmp_path):
        # headers written while the joint had a psi option carry its value;
        # "tanh" is today's joint, anything else names the file
        model = small_model(seed=21)
        path = tmp_path / "psi.tkc"
        save_checkpoint(path, model)
        header, records = split_checkpoint(path.read_bytes())
        header["model"]["joint_psi"] = "tanh"
        path.write_bytes(join_checkpoint(header, records))
        loaded, _ = load_checkpoint(path)
        for p in model.registry:
            assert loaded.registry[p.name].value.tobytes() == p.value.tobytes()
        header["model"]["joint_psi"] = "relu"
        path.write_bytes(join_checkpoint(header, records))
        with pytest.raises(ValueError, match="psi.tkc: joint_psi 'relu'"):
            load_checkpoint(path)

    def test_missing_parameter_named(self, tmp_path):
        path = tmp_path / "short.tkc"
        save_checkpoint(path, small_model(seed=22))
        header, records = split_checkpoint(path.read_bytes())
        assert header["params"][-1] == "joint.b_out"
        header["params"].pop()
        path.write_bytes(join_checkpoint(header, records[:-1]))
        with pytest.raises(ValueError, match="short.tkc: parameter joint.b_out is missing"):
            load_checkpoint(path)

    def test_repeated_parameter_named(self, tmp_path):
        path = tmp_path / "twice.tkc"
        save_checkpoint(path, small_model(seed=23))
        header, records = split_checkpoint(path.read_bytes())
        header["params"].append(header["params"][0])
        path.write_bytes(join_checkpoint(header, records + records[:1]))
        with pytest.raises(ValueError, match=f"twice.tkc: parameter {header['params'][0]} appears more than once"):
            load_checkpoint(path)

    def test_unknown_parameter_named_with_path(self, tmp_path):
        path = tmp_path / "renamed.tkc"
        save_checkpoint(path, small_model(seed=24))
        header, records = split_checkpoint(path.read_bytes())
        old = header["params"][-1].encode()
        header["params"][-1] = "joint.b_new"
        records[-1] = struct.pack("<I", len(b"joint.b_new")) + b"joint.b_new" + records[-1][4 + len(old):]
        path.write_bytes(join_checkpoint(header, records))
        with pytest.raises(ValueError, match="renamed.tkc: checkpoint parameter joint.b_new not in model"):
            load_checkpoint(path)

    def test_shape_mismatch_named_with_path(self, tmp_path):
        # the header's model config no longer matches the stored tensors
        path = tmp_path / "reshaped.tkc"
        save_checkpoint(path, small_model(seed=25))
        header, records = split_checkpoint(path.read_bytes())
        header["model"]["joint_dim"] = 9
        path.write_bytes(join_checkpoint(header, records))
        with pytest.raises(ValueError, match=r"reshaped.tkc: checkpoint parameter joint.u_mat has shape "
                                             r"\(8, 8\), model expects \(8, 9\)"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.tkc"
        save_checkpoint(path, small_model(seed=20))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="long.tkc: unexpected bytes after the last parameter"):
            load_checkpoint(path)

    def test_save_load_save_identical_bytes(self, tmp_path):
        model = small_model(seed=15)
        p1 = tmp_path / "a.tkc"
        p2 = tmp_path / "b.tkc"
        save_checkpoint(p1, model, step=3)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(p2, loaded, step=3)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tkc"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_pre_fusion_version_rejected(self, tmp_path):
        path = tmp_path / "old.tkc"
        blob = json.dumps({"version": 1, "model": {}, "params": []}).encode()
        path.write_bytes(b"TKC1" + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(ValueError, match="old.tkc.*pre-fusion"):
            load_checkpoint(path)

    # cut inside the magic, inside the JSON header, and 3 bytes short of the
    # last tensor's payload
    @pytest.mark.parametrize("cut", ["magic", "header", "payload"])
    def test_truncated_file_names_path_and_bytes(self, tmp_path, cut):
        model = small_model(seed=18)
        path = tmp_path / "cut.tkc"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        last = 8 * list(model.registry)[-1].value.size
        keep, expected, got = {
            "magic": (3, 4, 3),
            "header": (18, struct.unpack("<I", raw[4:8])[0], 10),
            "payload": (len(raw) - 3, last, last - 3),
        }[cut]
        path.write_bytes(raw[:keep])
        with pytest.raises(ValueError, match=f"cut.tkc.*expected {expected} bytes, got {got}"):
            load_checkpoint(path)

    def test_decode_matches_after_reload(self, tmp_path):
        model = small_model(seed=16)
        corpus = small_corpus(n=6, seed=17)
        cfg = TrainConfig(lr=2e-3, epochs=1, batch_budget=200, seed=0)
        fit(model, corpus["train"], cfg, log=lambda m: None)
        path = tmp_path / "m.tkc"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        for utt in corpus["test"]:
            enc_a, _ = model.encode(utt.features)
            enc_b, _ = loaded.encode(utt.features)
            npt.assert_array_equal(enc_a, enc_b)
            ha = greedy_decode(model, enc_a)
            hb = greedy_decode(loaded, enc_b)
            assert ha.tokens == hb.tokens
            assert ha.log_prob == hb.log_prob
