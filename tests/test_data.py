import re

import numpy as np
import numpy.testing as npt
import pytest

from transducerkit.data import (
    SyntheticTaskSpec,
    Utterance,
    gen_synthetic,
    lattice_cells,
    load_split,
    make_batches,
    read_label_file,
    save_split,
)


class TestGenSynthetic:
    def test_clean_unit_durations_are_exact_one_hots(self):
        spec = SyntheticTaskSpec(
            num_labels=6, utt_len_range=(3, 3), dur_range=(1, 1), noise_sigma=0.0,
            train_size=5, dev_size=1, test_size=1, seed=1, render_stride=1,
        )
        corpus = gen_synthetic(spec)
        for utt in corpus["train"]:
            assert utt.features.shape == (3, 5)
            for row, tok in zip(utt.features, utt.labels):
                expect = np.zeros(5)
                expect[tok - 1] = 1.0
                npt.assert_array_equal(row, expect)
            assert utt.ref_frames == [1, 2, 3]

    def test_deterministic_for_seed(self):
        spec = SyntheticTaskSpec(train_size=10, dev_size=2, test_size=2, seed=7)
        c1 = gen_synthetic(spec)
        c2 = gen_synthetic(spec)
        for split in ("train", "dev", "test"):
            for a, b in zip(c1[split], c2[split]):
                assert a.utt_id == b.utt_id
                assert a.labels == b.labels
                assert a.ref_frames == b.ref_frames
                npt.assert_array_equal(a.features, b.features)

    def test_seed_changes_corpus(self):
        base = SyntheticTaskSpec(train_size=10, dev_size=1, test_size=1, seed=0)
        other = SyntheticTaskSpec(train_size=10, dev_size=1, test_size=1, seed=1)
        a = gen_synthetic(base)["train"]
        b = gen_synthetic(other)["train"]
        assert any(x.labels != y.labels for x, y in zip(a, b))

    def test_ref_frames_mark_span_ends(self):
        spec = SyntheticTaskSpec(train_size=20, dev_size=1, test_size=1, seed=3)
        for utt in gen_synthetic(spec)["train"]:
            assert len(utt.ref_frames) == len(utt.labels)
            assert utt.ref_frames[-1] == utt.features.shape[0]
            diffs = np.diff([0] + utt.ref_frames)
            lo, hi = spec.dur_range[0] * spec.render_stride, spec.dur_range[1] * spec.render_stride
            assert ((diffs >= lo) & (diffs <= hi)).all()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(num_labels=2)
        with pytest.raises(ValueError):
            SyntheticTaskSpec(dur_range=(3, 2))


class TestCorpusDisk:
    def test_round_trip(self, tmp_path):
        spec = SyntheticTaskSpec(train_size=4, dev_size=1, test_size=1, seed=5)
        utts = gen_synthetic(spec)["train"]
        save_split(tmp_path / "train", utts)
        back = load_split(tmp_path / "train")
        assert [u.utt_id for u in back] == [u.utt_id for u in utts]
        for a, b in zip(utts, back):
            npt.assert_array_equal(a.features, b.features)
            assert a.labels == b.labels
            assert a.ref_frames == b.ref_frames

    def test_label_file_reader(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("# schema: v1\nutt-1\t3 4 5\t2 4 9\nutt-2\t\t\n")
        table = read_label_file(path)
        assert table["utt-1"] == ([3, 4, 5], [2, 4, 9])
        assert table["utt-2"] == ([], [])

    @pytest.mark.parametrize("line,message", [
        ("utt-2\t1 2\t3 4\t5\n", "expected 2 or 3 columns, got 4"),
        ("utt-2\n", "expected 2 or 3 columns, got 1"),
        ("utt-2\t1 x\t3 4\n", "non-integer token or frame"),
        ("utt-2\t1 2\t3 4.5\n", "non-integer token or frame"),
        ("utt-1\t1\t3\n", "duplicate utterance id 'utt-1'"),
    ], ids=["columns", "one-column", "token", "frame", "duplicate"])
    def test_label_file_errors_name_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "labels.tsv"
        path.write_text("# schema: v1\nutt-1\t3 4\t2 4\n" + line)
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
            read_label_file(path)

    def test_split_token_frame_mismatch_names_file_and_utterance(self, tmp_path):
        spec = SyntheticTaskSpec(train_size=2, dev_size=1, test_size=1, seed=5)
        utts = gen_synthetic(spec)["train"]
        utts[1].ref_frames = utts[1].ref_frames[:-1]
        save_split(tmp_path, utts)
        with pytest.raises(ValueError, match=re.escape(f"labels.tsv: utterance {utts[1].utt_id} has")):
            load_split(tmp_path)

    def test_two_column_split_line_rejected(self, tmp_path):
        spec = SyntheticTaskSpec(train_size=1, dev_size=1, test_size=1, seed=5)
        utt = gen_synthetic(spec)["train"][0]
        save_split(tmp_path, [utt])
        (tmp_path / "labels.tsv").write_text(f"{utt.utt_id}\t{' '.join(map(str, utt.labels))}\n")
        with pytest.raises(ValueError, match=re.escape(f"labels.tsv: utterance {utt.utt_id} has")):
            load_split(tmp_path)


class TestMakeBatches:
    def make_corpus(self, sizes):
        return [
            Utterance(f"u{i:03d}", np.zeros((t, 2)), [1] * u, list(range(1, u + 1)))
            for i, (t, u) in enumerate(sizes)
        ]

    def test_budget_covers_all_gives_one_batch(self):
        utts = self.make_corpus([(6, 2), (9, 3), (3, 1)])
        batches = make_batches(utts, budget_cells=10_000, frame_stack=3)
        assert len(batches) == 1
        assert len(batches[0]) == 3

    def test_batches_respect_budget(self):
        rng = np.random.default_rng(6)
        utts = self.make_corpus(
            [(int(rng.integers(3, 40)), int(rng.integers(1, 8))) for _ in range(50)]
        )
        budget = 150
        for batch in make_batches(utts, budget, frame_stack=3):
            assert sum(lattice_cells(u, 3) for u in batch) <= budget

    def test_random_mode_seeds_differ(self):
        utts = self.make_corpus([(9, 2)] * 30)
        a = make_batches(utts, 50, seed=0)
        b = make_batches(utts, 50, seed=1)
        ids_a = [[u.utt_id for u in batch] for batch in a]
        ids_b = [[u.utt_id for u in batch] for batch in b]
        assert ids_a != ids_b

    def test_random_mode_deterministic_per_seed(self):
        utts = self.make_corpus([(9, 2)] * 20)
        a = make_batches(utts, 50, seed=3)
        b = make_batches(utts, 50, seed=3)
        assert [[u.utt_id for u in x] for x in a] == [[u.utt_id for u in x] for x in b]

    def test_oversized_utterance_named(self):
        utts = self.make_corpus([(300, 7)])
        with pytest.raises(ValueError, match="u000"):
            make_batches(utts, budget_cells=10, frame_stack=3)

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            make_batches([], 10)
