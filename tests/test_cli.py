import os

import numpy as np
import pytest

from transducerkit import decode as decode_mod
from transducerkit.cli import main
from transducerkit.config import RUN_KEYS, RunConfig, decode_config_from, train_config_from
from transducerkit.data import load_split
from transducerkit.decode import DecodeConfig, alignment_delay, greedy_decode
from transducerkit.tensor import save_tensor
from transducerkit.train import TrainConfig

TASK_SPEC = """
task.num_labels = 6
task.utt_len_min = 1
task.utt_len_max = 3
task.dur_min = 1
task.dur_max = 2
task.noise_sigma = 0.05
task.train_size = 12
task.dev_size = 3
task.test_size = 4
task.seed = 11
"""

RUN_CONFIG = """
seed = 0
data.dir = {data_dir}
model.feature_dim = 5
model.frame_stack = 3
model.num_labels = 6
model.joint_dim = 8
model.encoder.cell_kind = lt_gru
model.encoder.layers = 1
model.encoder.hidden = 8
model.prediction.cell_kind = ln_gru
model.prediction.layers = 1
model.prediction.hidden = 8
model.prediction.embed_dim = 4
train.epochs = 1
train.lr = 0.002
train.batch_budget = 300
decode.mode = greedy
"""


# (command and flags, stderr fragment) of each usage or config error; the test
# adds the flags the command requires
USAGE_ERRORS = [
    ("train --set train.lr_decay=2", "lr_decay must be in (0, 1]"),
    ("train --set train.optimizer=sgd", "unknown key 'train.optimizer'"),
    ("train --set model.encoder.cell_kind=foo", "unknown cell kind 'foo'"),
    ("train --set model.prediction.cell_kind=lt_gru", "prediction cell kind 'lt_gru'"),
    ("gen --spec {bad_spec}", "bad duration range"),
    ("decode --beam-width 0", "--beam-width: expected int >= 1, got '0'"),
    ("decode --max-symbols 0", "--max-symbols"),
    ("align-delay --frame-divisor 0", "--frame-divisor"),
    ("sweep-tau --tau x", "--tau: expected int >= 0, got 'x'"),
    ("sweep-tau --tau 0,-2", "--tau"),
    ("sweep-tau --seeds 0", "--seeds"),
    ("sweep-tau --set model.encoder.cell_kind=ln_gru --tau 0,2", "tau must be 0"),
    ("bench-mem --k abc", "--k"),
    ("bench-mem --k 1", "--k: expected int >= 2, got '1'"),
    ("bench-mem --layout packed", "unrecognized arguments"),
    ("bench-mem --budget-bytes -5", "--budget-bytes: expected float >= 1, got '-5'"),
]


@pytest.fixture
def corpus_dir(tmp_path):
    spec = tmp_path / "task.cfg"
    spec.write_text(TASK_SPEC)
    out = tmp_path / "corpus"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def run_config(tmp_path, corpus_dir, extra=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CONFIG.format(data_dir=corpus_dir) + extra)
    return cfg


class TestGen:
    def test_generates_splits(self, tmp_path, capsys):
        spec = tmp_path / "task.cfg"
        spec.write_text(TASK_SPEC)
        out_dir = tmp_path / "corpus"
        assert main(["gen", "--spec", str(spec), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# schema: v1")
        assert "train\t12" in out
        for split in ("train", "dev", "test"):
            assert (out_dir / split / "labels.tsv").exists()

    def test_deterministic(self, tmp_path, corpus_dir):
        spec = tmp_path / "task.cfg"
        out2 = tmp_path / "corpus2"
        assert main(["gen", "--spec", str(spec), "--out", str(out2)]) == 0
        a = (corpus_dir / "train" / "labels.tsv").read_bytes()
        b = (out2 / "train" / "labels.tsv").read_bytes()
        assert a == b


class TestTrainDecodeScore:
    def test_pipeline(self, tmp_path, corpus_dir, capsys):
        cfg = run_config(tmp_path, corpus_dir)
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "final.tkc").exists()
        assert (out_dir / "ckpt-e000.tkc").exists()
        assert (out_dir / "metrics.tsv").exists()
        assert (out_dir / "config.effective.cfg").exists()

        rc = main(
            [
                "decode",
                "--ckpt",
                str(out_dir / "final.tkc"),
                "--data",
                str(corpus_dir / "test"),
                "--mode",
                "greedy",
            ]
        )
        assert rc == 0
        decoded = capsys.readouterr().out
        assert decoded.startswith("# schema: v1")
        lines = [l for l in decoded.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 4
        assert all(len(l.split("\t")) == 3 for l in lines)

        hyp_path = tmp_path / "hyp.tsv"
        hyp_path.write_text(decoded)
        rc = main(
            ["score", "--hyp", str(hyp_path), "--ref", str(corpus_dir / "test" / "labels.tsv")]
        )
        assert rc == 0
        scored = capsys.readouterr().out
        assert "WER\t" in scored

        rc = main(
            [
                "align-delay",
                "--hyp-with-frames",
                str(hyp_path),
                "--ref-frames",
                str(corpus_dir / "test" / "labels.tsv"),
                "--frame-divisor",
                "3",
            ]
        )
        # untrained-ish model may share no matched tokens; both outcomes legal
        assert rc in (0, 2)

    def test_score_sums_errors_over_utterances(self, tmp_path, capsys):
        ref = tmp_path / "ref.tsv"
        ref.write_text("u1\t1 2 3\t1 2 3\nu2\t4\t5\n")
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text("# schema: v1\nu1\t1 9\t1 2\nu2\t4 4\t5 6\n")
        assert main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["tokens\t4", "sub\t1", "ins\t1", "del\t1", "WER\t0.7500"]

    def test_score_identical_files_zero(self, corpus_dir, capsys):
        ref = corpus_dir / "test" / "labels.tsv"
        assert main(["score", "--hyp", str(ref), "--ref", str(ref)]) == 0
        out = capsys.readouterr().out
        assert "WER\t0.0000" in out

    def test_config_roundtrip_reproduces(self, tmp_path, corpus_dir, capsys):
        cfg = run_config(tmp_path, corpus_dir)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        dumped = out1 / "config.effective.cfg"
        assert main(["train", "--config", str(dumped), "--out", str(out2)]) == 0
        capsys.readouterr()
        m1 = (out1 / "metrics.tsv").read_text()
        m2 = (out2 / "metrics.tsv").read_text()
        assert m1 == m2
        assert (out1 / "final.tkc").read_bytes() == (out2 / "final.tkc").read_bytes()


class TestBenchMem:
    def test_equal_length_dist_layouts_match(self, tmp_path, capsys):
        dist = tmp_path / "dist.tsv"
        dist.write_text("".join("100\t10\n" for _ in range(32)))
        rc = main(
            ["bench-mem", "--k", "4096", "--budget-bytes", "1e9", "--dist", str(dist)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        rows = {}
        for line in out.splitlines():
            if line.startswith("#") or line.startswith("layout"):
                continue
            layout, variant, k, n = line.split("\t")
            rows[(layout, variant)] = int(n)
        assert rows[("packed", "merged")] == rows[("broadcast", "merged")]
        assert rows[("packed", "chain_rule")] == rows[("broadcast", "chain_rule")]
        assert rows[("packed", "merged")] > rows[("packed", "chain_rule")]

    def test_builtin_dist_and_column_order(self, capsys):
        rc = main(["bench-mem", "--dist", "builtin:mixed", "--k", "4096,36000"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# schema: v1"
        assert out[1] == "layout\tloss_variant\tk\tmax_n"
        first = out[2].split("\t")
        assert first[0] == "broadcast" and first[1] == "chain_rule" and first[2] == "4096"

    def test_unknown_builtin_is_usage_error(self, capsys):
        assert main(["bench-mem", "--dist", "builtin:nope"]) == 1

    @pytest.mark.parametrize("line,message", [
        ("100", "expected two integers 'T<TAB>U', got '100'"),
        ("100\t10\t3", "expected two integers"),
        ("100\tten", "expected two integers"),
        ("-3\t2", "invalid sequence lengths (T=-3, U=2)"),
        ("5\t-1", "invalid sequence lengths (T=5, U=-1)"),
    ])
    def test_dist_file_errors_name_file_and_line(self, tmp_path, capsys, line, message):
        dist = tmp_path / "dist.tsv"
        dist.write_text(f"# T<TAB>U\n100\t10\n{line}\n")
        assert main(["bench-mem", "--dist", str(dist)]) == 1
        assert f"config error: {dist}:3: {message}" in capsys.readouterr().err

    # max_n per (layout, loss variant, k) row, in output order, with the
    # default budget (16e9 bytes) and joint width (640)
    @pytest.mark.parametrize("dist,max_n", [
        ("mixed", [3, 0, 8, 1, 10, 1, 28, 3]),
    ])
    def test_builtin_dist_output_pinned(self, capsys, dist, max_n):
        assert main(["bench-mem", "--dist", f"builtin:{dist}"]) == 0
        rows = [
            f"{layout}\t{variant}\t{k}"
            for layout in ("broadcast", "packed")
            for variant in ("chain_rule", "merged")
            for k in (4096, 36000)
        ]
        expected = ["# schema: v1", "layout\tloss_variant\tk\tmax_n"]
        expected += [f"{row}\t{n}" for row, n in zip(rows, max_n)]
        assert capsys.readouterr().out.splitlines() == expected


DEFAULT_EFFECTIVE_CONFIG = """\
decode.beam_width = 10
decode.max_symbols_per_frame = 10
decode.mode = greedy
model.encoder.cell_kind = lt_gru
model.encoder.hidden = 64
model.encoder.layers = 2
model.encoder.projection = 0
model.encoder.tau = 0
model.feature_dim = 20
model.frame_stack = 3
model.joint_dim = 64
model.num_labels = 21
model.prediction.cell_kind = ln_gru
model.prediction.embed_dim = 16
model.prediction.hidden = 64
model.prediction.layers = 1
model.prediction.projection = 0
seed = 0
train.batch_budget = 1500
train.clip_norm = 5.0
train.epochs = 10
train.lr = 0.001
train.lr_decay = 1.0
"""


class TestConfigSchema:
    # the train.* and decode.* keys come from the TrainConfig and
    # DecodeConfig fields; the dump and the value types must not move
    def test_default_dump_pinned(self, tmp_path):
        RunConfig().dump(tmp_path / "c.cfg")
        assert (tmp_path / "c.cfg").read_text() == DEFAULT_EFFECTIVE_CONFIG

    def test_section_types_pinned(self):
        types = {key: typ for key, (typ, _) in RUN_KEYS.items() if key.startswith(("train.", "decode."))}
        assert types == {
            "train.lr": float, "train.lr_decay": float, "train.clip_norm": float,
            "train.epochs": int, "train.batch_budget": int,
            "decode.mode": str, "decode.beam_width": int, "decode.max_symbols_per_frame": int,
        }

    def test_builders_read_every_section_key(self):
        cfg = RunConfig.load(overrides=["seed=4", "train.lr=0.5", "train.lr_decay=0.5",
                                        "train.clip_norm=2", "train.epochs=3", "train.batch_budget=7",
                                        "decode.mode=beam", "decode.beam_width=3",
                                        "decode.max_symbols_per_frame=2"])
        assert train_config_from(cfg) == TrainConfig(0.5, 0.5, 2.0, 3, 7, seed=4)
        assert decode_config_from(cfg) == DecodeConfig("beam", 3, 2)


class TestErrors:
    def test_unknown_config_key(self, tmp_path, corpus_dir, capsys):
        cfg = run_config(tmp_path, corpus_dir, extra="model.frobnicate = 3\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_missing_data_dir(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG.format(data_dir=tmp_path / "absent"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    def test_usage_error_exit_code(self, capsys):
        assert main(["decode"]) == 1  # missing required flags

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.tkc"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        rc = main(["decode", "--ckpt", str(bad), "--data", str(tmp_path)])
        assert rc == 2

    def test_decode_malformed_feature_file_names_file(self, tmp_path, corpus_dir, capsys):
        cfg = run_config(tmp_path, corpus_dir)
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out_dir), "--set", "train.epochs=0"]) == 0
        split = corpus_dir / "test"
        tkt = sorted(split.glob("*.tkt"))[1]
        for shape in ((7,), (9, 7)):  # rank 1; 7 features where the model reads 5
            save_tensor(tkt, np.zeros(shape))
            for mode in ("greedy", "beam"):
                capsys.readouterr()
                assert main(["decode", "--ckpt", str(out_dir / "final.tkc"), "--data", str(split),
                             "--mode", mode]) == 2
                err = capsys.readouterr().err
                assert f"error: {tkt}: expected a (frames, features) tensor" in err
                assert f"5 features, got shape {shape}" in err

    @pytest.mark.parametrize("argv,message", USAGE_ERRORS, ids=[argv for argv, _ in USAGE_ERRORS])
    def test_usage_and_config_errors_exit_1_before_any_work(self, tmp_path, corpus_dir, capsys, argv, message):
        # a missing checkpoint or label file would exit 2, so 1 means the
        # arguments were rejected first
        cfg = run_config(tmp_path, corpus_dir)
        bad_spec = tmp_path / "bad-task.cfg"
        bad_spec.write_text(TASK_SPEC.replace("task.dur_min = 1", "task.dur_min = 0"))
        out = tmp_path / "out"
        absent = str(tmp_path / "absent")
        required = {
            "train": ["--config", str(cfg), "--out", str(out)],
            "gen": ["--out", str(out)],
            "decode": ["--ckpt", absent, "--data", str(corpus_dir / "test")],
            "align-delay": ["--hyp-with-frames", absent, "--ref-frames", absent],
            "sweep-tau": ["--config", str(cfg)],
            "bench-mem": [],
        }
        command, *flags = argv.format(bad_spec=bad_spec).split()
        capsys.readouterr()
        assert main([command, *required[command], *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_score_malformed_label_file_names_file_and_line(self, tmp_path, capsys):
        ref = tmp_path / "ref.tsv"
        ref.write_text("u1\t1 2\t3 5\n")
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text("# schema: v1\nu1\t1 2\t3\t5\n")
        assert main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 2
        assert f"{hyp}:2: expected 2 or 3 columns, got 4" in capsys.readouterr().err

    def test_align_delay_without_shared_ids(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text("test_0\t1 2\t3 5\n")
        ref = tmp_path / "ref.tsv"
        ref.write_text("train_0\t1 2\t4 6\ntrain_1\t3\t2\n")
        rc = main(["align-delay", "--hyp-with-frames", str(hyp), "--ref-frames", str(ref)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "share no utterance id" in err
        assert "train_0" in err and "matched tokens" not in err

    def test_set_override(self, tmp_path, corpus_dir, capsys):
        cfg = run_config(tmp_path, corpus_dir)
        out_dir = tmp_path / "ovr"
        rc = main(
            ["train", "--config", str(cfg), "--out", str(out_dir), "--set", "train.epochs=0"]
        )
        assert rc == 0
        dumped = (out_dir / "config.effective.cfg").read_text()
        assert "train.epochs = 0" in dumped



class TestSweepTau:
    def test_decodes_each_test_utterance_once(self, tmp_path, corpus_dir, capsys, monkeypatch):
        calls = []

        def counting_decode(model, enc, max_symbols_per_frame=10):
            hyp = greedy_decode(model, enc, max_symbols_per_frame)
            calls.append((model, enc, max_symbols_per_frame, hyp))
            return hyp

        monkeypatch.setattr(decode_mod, "greedy_decode", counting_decode)
        cfg = run_config(tmp_path, corpus_dir, "train.epochs = 3\n")
        assert main(["sweep-tau", "--config", str(cfg), "--tau", "0", "--seeds", "1"]) == 0
        mean_delay = capsys.readouterr().out.splitlines()[-1].split("\t")[2]
        test_utts = load_split(str(corpus_dir / "test"), 5)
        assert len(calls) == len(test_utts)

        # the delay as sweep-tau computed it before, from a second decode
        delays = []
        for utt, (model, enc, max_symbols, hyp) in zip(test_utts, calls):
            again = greedy_decode(model, enc, max_symbols)
            assert (again.tokens, again.emit_frames) == (hyp.tokens, hyp.emit_frames)
            scaled_ref = [(f + 2) // 3 for f in utt.ref_frames]
            try:
                delays.append(
                    alignment_delay(list(again.tokens), list(again.emit_frames), utt.labels, scaled_ref)
                )
            except ValueError:
                continue
        assert mean_delay == f"{float(np.mean(delays)):.4f}"
