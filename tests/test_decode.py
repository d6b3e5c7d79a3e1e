import heapq
import itertools
import math
import types
from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest

from transducerkit import decode as decode_mod
from transducerkit.decode import (
    BLANK,
    DecodeConfig,
    Hypothesis,
    alignment_delay,
    beam_decode,
    decode_corpus,
    edit_align,
    edit_distance_wer,
    greedy_decode,
    reported_latency_ms,
)
from transducerkit.data import Utterance
from transducerkit.model import ModelConfig, TransducerModel
from transducerkit.networks import NetConfig


def tiny_model(num_labels=4, seed=0, joint_dim=5):
    cfg = ModelConfig(
        feature_dim=3,
        num_labels=num_labels,
        joint_dim=joint_dim,
        encoder=NetConfig(cell_kind="ln_gru", num_layers=1, hidden=4, input_dim=9),
        prediction=NetConfig(cell_kind="ln_gru", num_layers=1, hidden=4, input_dim=3),
        frame_stack=3,
        seed=seed,
    )
    return TransducerModel(cfg)


class RiggedModel:
    """Decoder stub with a scripted logit table.

    Table maps (frame, prefix tuple) -> logits; the prediction "state" is
    the prefix itself, which also keeps prefix-merged states exact.
    """

    class _Pred:
        def __init__(self, outer):
            self.outer = outer

        def initial_state(self):
            return ()

        def step(self, state, token=None):
            new = state if token is None else state + (int(token),)
            return new, new

    def __init__(self, num_labels, table, default=None):
        self.num_labels = num_labels
        self.table = table
        self.default = default if default is not None else np.zeros(num_labels)
        self.prediction = self._Pred(self)
        self._frame = None

    def joint_log_probs_row(self, enc_vec, pred_out):
        t = int(enc_vec[0])
        logits = np.asarray(self.table.get((t, tuple(pred_out)), self.default), dtype=float)
        m = logits.max()
        return logits - (m + np.log(np.exp(logits - m).sum()))


def frames(t):
    """Encoder outputs whose first component encodes the frame index."""
    out = np.zeros((t, 1))
    out[:, 0] = np.arange(t)
    return out


@dataclass
class _RefHyp:
    """The oracle's beam entry: a hypothesis that carries its own prediction
    network state and output."""

    tokens: tuple = ()
    log_prob: float = 0.0
    pred_state: object = None
    pred_out: object = None
    emit_frames: tuple = ()
    frame_emissions: int = 0


def _ref_merge(pool, hyp):
    old = pool.get(hyp.tokens)
    if old is None:
        pool[hyp.tokens] = hyp
        return
    merged_score = float(np.logaddexp(old.log_prob, hyp.log_prob))
    keep = old if old.log_prob >= hyp.log_prob else hyp
    pool[hyp.tokens] = _RefHyp(
        tokens=keep.tokens,
        log_prob=merged_score,
        pred_state=keep.pred_state,
        pred_out=keep.pred_out,
        emit_frames=keep.emit_frames,
        frame_emissions=keep.frame_emissions,
    )


def _ref_best(pool):
    # lower token ids win exact score ties, so decoding is deterministic
    return max(pool.values(), key=lambda h: (h.log_prob, tuple(-t for t in h.tokens)))


def reference_beam_decode(model, enc_outputs, cfg):
    """The eager beam search beam_decode replaced, kept as its oracle: every
    popped hypothesis steps the prediction network for all beam_k children,
    and the best active hypothesis is found by a linear scan."""
    beam_k = min(cfg.beam_width, model.num_labels - 1)
    state, out = model.prediction.step(model.prediction.initial_state(), None)
    kept = {(): _RefHyp(pred_state=state, pred_out=out)}
    for t in range(enc_outputs.shape[0]):
        active = {
            toks: _RefHyp(
                tokens=h.tokens,
                log_prob=h.log_prob,
                pred_state=h.pred_state,
                pred_out=h.pred_out,
                emit_frames=h.emit_frames,
                frame_emissions=0,
            )
            for toks, h in kept.items()
        }
        finished = {}
        pops = 0
        max_pops = cfg.beam_width * cfg.max_symbols_per_frame + len(active)
        while active and pops < max_pops:
            if len(finished) >= cfg.beam_width:
                bar = sorted(h.log_prob for h in finished.values())[-cfg.beam_width]
                if bar >= _ref_best(active).log_prob:
                    break
            hyp = _ref_best(active)
            del active[hyp.tokens]
            pops += 1
            logp = model.joint_log_probs_row(enc_outputs[t], hyp.pred_out)
            blank_child = _RefHyp(
                tokens=hyp.tokens,
                log_prob=hyp.log_prob + float(logp[BLANK]),
                pred_state=hyp.pred_state,
                pred_out=hyp.pred_out,
                emit_frames=hyp.emit_frames,
            )
            _ref_merge(finished, blank_child)
            if hyp.frame_emissions >= cfg.max_symbols_per_frame:
                continue
            order = np.argsort(-logp[1:], kind="stable")[:beam_k] + 1
            for k in order:
                k = int(k)
                state, out = model.prediction.step(hyp.pred_state, k)
                child = _RefHyp(
                    tokens=hyp.tokens + (k,),
                    log_prob=hyp.log_prob + float(logp[k]),
                    pred_state=state,
                    pred_out=out,
                    emit_frames=hyp.emit_frames + (t + 1,),
                    frame_emissions=hyp.frame_emissions + 1,
                )
                _ref_merge(active, child)
        ranked = sorted(
            finished.values(), key=lambda h: (-h.log_prob, h.tokens)
        )[: cfg.beam_width]
        kept = {h.tokens: h for h in ranked}
    nbest = sorted(kept.values(), key=lambda h: (-h.log_prob, h.tokens))
    return nbest[0], nbest


def assert_same_nbest(got, want):
    """Equal token lists, emission frames and bitwise scores. Every kept
    hypothesis ends in a blank read from a joint row of its own prefix, so
    its bitwise score also checks the prediction output it was scored with."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tokens == w.tokens
        assert g.emit_frames == w.emit_frames
        assert g.log_prob.hex() == w.log_prob.hex()


def random_rigged_case(rng):
    """A tie-heavy logit table over prefixes up to length 3."""
    k = int(rng.integers(2, 5))
    t_len = int(rng.integers(1, 4))
    values = np.array([0.0, 0.0, 1.0, -60.0, 60.0, -0.5])
    prefixes = [p for n in range(4) for p in itertools.product(range(1, k), repeat=n)]
    table = {(t, p): rng.choice(values, size=k) for t in range(t_len) for p in prefixes}
    cfg = DecodeConfig(
        mode="beam",
        beam_width=int(rng.integers(1, 5)),
        max_symbols_per_frame=int(rng.integers(1, 3)),
    )
    return RiggedModel(k, table), frames(t_len), cfg


class TestGreedy:
    def test_blank_maximizer_emits_nothing(self):
        model = RiggedModel(3, {}, default=np.array([5.0, 0.0, 0.0]))
        hyp = greedy_decode(model, frames(4))
        assert hyp.tokens == ()
        assert hyp.emit_frames == ()

    def test_single_frame_rigged_emission(self):
        # at frame 0: label 1 wins, then blank wins -> tokens [1], frame number 1
        table = {
            (0, ()): np.array([0.0, 3.0, 0.0]),
            (0, (1,)): np.array([3.0, 0.0, 0.0]),
        }
        model = RiggedModel(3, table)
        hyp = greedy_decode(model, frames(1))
        assert hyp.tokens == (1,)
        assert hyp.emit_frames == (1,)

    def test_max_symbols_cap_terminates(self):
        # non-blank always wins: cap must force frame advance
        model = RiggedModel(3, {}, default=np.array([0.0, 4.0, 0.0]))
        hyp = greedy_decode(model, frames(3), max_symbols_per_frame=5)
        assert len(hyp.tokens) == 15
        assert hyp.emit_frames == (1,) * 5 + (2,) * 5 + (3,) * 5

    def test_tie_breaks_to_lower_id(self):
        model = RiggedModel(4, {}, default=np.array([0.0, 2.0, 2.0, 2.0]))
        hyp = greedy_decode(model, frames(1), max_symbols_per_frame=2)
        assert hyp.tokens == (1, 1)

    def test_log_prob_is_path_score(self):
        table = {
            (0, ()): np.array([0.0, 3.0, 0.0]),
            (0, (1,)): np.array([3.0, 0.0, 0.0]),
        }
        model = RiggedModel(3, table)
        hyp = greedy_decode(model, frames(1))
        lp = model.joint_log_probs_row(np.array([0.0]), ())
        lp2 = model.joint_log_probs_row(np.array([0.0]), (1,))
        assert abs(hyp.log_prob - (lp[1] + lp2[0])) < 1e-12


class TestBeam:
    def test_width_one_matches_greedy(self):
        # greedy follows local argmax; width-1 search compares whole-frame
        # blank-terminated scores. They coincide when each argmax move is
        # dominant (confident models), which these rigged tables guarantee.
        rng = np.random.default_rng(42)
        for trial in range(10):
            t_len, k = 4, 4
            table = {}
            script = {(): None}
            prefixes = [()]
            for t in range(t_len):
                new_prefixes = []
                for prefix in prefixes:
                    choice = int(rng.integers(0, k))  # 0 = advance, else emit
                    logits = np.full(k, -4.0)
                    logits[choice] = 4.0  # ~99.9% mass on the scripted move
                    table[(t, prefix)] = logits
                    if choice != 0:
                        ext = prefix + (choice,)
                        table[(t, ext)] = np.array([4.0] + [-4.0] * (k - 1))
                        new_prefixes.append(ext)
                    new_prefixes.append(prefix)
                prefixes = new_prefixes
            model = RiggedModel(k, table, default=np.array([4.0] + [-4.0] * (k - 1)))
            g = greedy_decode(model, frames(t_len))
            b, _ = beam_decode(model, frames(t_len), DecodeConfig(mode="beam", beam_width=1))
            assert b.tokens == g.tokens

    def test_beam_finds_delayed_emission(self):
        # greedy emits 1 at frame 0 (local argmax) and then pays a uniform
        # blank; delaying the emission to frame 1 is cheaper in total, and
        # the delayed branch dominates the merged hypothesis
        table = {
            (0, ()): np.array([1.0, 1.2, -9.0]),   # emit 1 narrowly beats blank
            (0, (1,)): np.array([0.0, 0.0, 0.0]),  # early emission pays ln 3 here
            (1, ()): np.array([-9.0, 5.0, -9.0]),  # late path emits almost freely
            (1, (1,)): np.array([4.0, -4.0, -4.0]),
        }
        model = RiggedModel(3, table)
        g = greedy_decode(model, frames(2))
        b, _ = beam_decode(model, frames(2), DecodeConfig(mode="beam", beam_width=4))
        assert g.tokens == (1,) and g.emit_frames == (1,)
        assert b.tokens == (1,) and b.emit_frames == (2,)
        assert b.log_prob > g.log_prob

    def test_beam_score_at_least_greedy(self):
        for seed in range(6):
            model = tiny_model(num_labels=5, seed=seed + 10)
            rng = np.random.default_rng(seed)
            enc, _ = model.encode(rng.normal(size=(12, 3)))
            g = greedy_decode(model, enc)
            for width in (1, 2, 4, 10):
                b, _ = beam_decode(model, enc, DecodeConfig(mode="beam", beam_width=width))
                assert b.log_prob >= g.log_prob - 1e-12

    def test_merging_uses_logsumexp(self):
        # two paths produce the same single-token sequence; the kept score
        # must be the logsumexp of both path scores
        table = {
            (0, ()): np.array([math.log(0.5), math.log(0.5), -60.0]),
            (0, (1,)): np.array([math.log(0.8), math.log(0.2 / 2), math.log(0.2 / 2)]),
            (1, ()): np.array([math.log(0.3), math.log(0.7), -60.0]),
            (1, (1,)): np.array([math.log(0.9), math.log(0.05), math.log(0.05)]),
        }
        model = RiggedModel(3, table)
        b, _ = beam_decode(model, frames(2), DecodeConfig(mode="beam", beam_width=8))
        # path A: emit@0 (0.5) -> blank@0 (0.8) -> blank@1 (0.9)
        # path B: blank@0 (0.5) -> emit@1 (0.7) -> blank@1 (0.9)
        pa = 0.5 * 0.8 * 0.9
        pb = 0.5 * 0.7 * 0.9
        assert b.tokens == (1,)
        assert abs(b.log_prob - math.log(pa + pb)) < 1e-12

    def test_nbest_sorted(self):
        model = tiny_model(seed=3)
        enc, _ = model.encode(np.random.default_rng(4).normal(size=(6, 3)))
        _, nbest = beam_decode(model, enc, DecodeConfig(mode="beam", beam_width=4))
        scores = [h.log_prob for h in nbest]
        assert scores == sorted(scores, reverse=True)

    def test_determinism(self):
        model = tiny_model(seed=5)
        enc, _ = model.encode(np.random.default_rng(6).normal(size=(9, 3)))
        cfg = DecodeConfig(mode="beam", beam_width=3)
        a, _ = beam_decode(model, enc, cfg)
        b, _ = beam_decode(model, enc, cfg)
        assert a.tokens == b.tokens and a.log_prob == b.log_prob

    def test_decode_dispatch(self):
        model = tiny_model(seed=7)
        rng = np.random.default_rng(8)
        utts = [Utterance(name, rng.normal(size=(6, 3)), [], []) for name in ("b", "c", "a")]
        greedy = decode_corpus(model, utts, DecodeConfig(mode="greedy"))
        beam_cfg = DecodeConfig(mode="beam", beam_width=2)
        beam = decode_corpus(model, utts, beam_cfg)
        assert list(greedy) == list(beam) == ["b", "c", "a"]  # input order
        for utt in utts:
            enc, _ = model.encode(utt.features)
            g, b = greedy[utt.utt_id], beam[utt.utt_id]
            assert isinstance(g, Hypothesis) and isinstance(b, Hypothesis)
            for got, want in ((g, greedy_decode(model, enc)), (b, beam_decode(model, enc, beam_cfg)[0])):
                assert (got.tokens, got.log_prob, got.emit_frames) == (want.tokens, want.log_prob, want.emit_frames)

    def test_matches_eager_oracle_on_tiny_model(self):
        for seed in range(3):
            model = tiny_model(num_labels=6, seed=seed + 20)
            enc, _ = model.encode(np.random.default_rng(seed).normal(size=(15, 3)))
            for width in (1, 3, 10):
                for max_symbols in (1, 3):
                    cfg = DecodeConfig(mode="beam", beam_width=width, max_symbols_per_frame=max_symbols)
                    best, nbest = beam_decode(model, enc, cfg)
                    _, want = reference_beam_decode(model, enc, cfg)
                    assert_same_nbest(nbest, want)
                    assert best is nbest[0]

    def test_matches_eager_oracle_on_rigged_fuzz(self, monkeypatch):
        # A merge that leaves a score unchanged leaves a stale heap entry
        # whose (score, tokens) key a later, different hypothesis can repeat;
        # only the entry counter keeps heapq from comparing the two. Count
        # such pushes: the fuzz must reach them.
        equal_keys = []

        def checking_push(heap, entry):
            if any(e[:2] == entry[:2] and e[-1] != entry[-1] for e in heap):
                equal_keys.append(entry[1])
            heapq.heappush(heap, entry)

        monkeypatch.setattr(
            decode_mod, "heapq", types.SimpleNamespace(heappush=checking_push, heappop=heapq.heappop)
        )
        rng = np.random.default_rng(9)
        for _ in range(3000):
            model, enc, cfg = random_rigged_case(rng)
            _, nbest = beam_decode(model, enc, cfg)
            _, want = reference_beam_decode(model, enc, cfg)
            assert_same_nbest(nbest, want)
        assert equal_keys

    def test_steps_each_prefix_once(self):
        model = tiny_model(num_labels=6, seed=31)
        enc, _ = model.encode(np.random.default_rng(32).normal(size=(15, 3)))
        cfg = DecodeConfig(mode="beam", beam_width=10, max_symbols_per_frame=3)
        step, joint_row = model.prediction.step, model.joint_log_probs_row

        def run(decoder):
            prefix_of = {}  # id(state) -> token prefix it encodes
            states, stepped, pops = [], [], []

            def counting_step(state, token=None):
                prefix = () if token is None else prefix_of[id(state)] + (int(token),)
                new_state, out = step(state, token)
                states.append(new_state)  # keeps ids unique
                prefix_of[id(new_state)] = prefix
                stepped.append(prefix)
                return new_state, out

            def counting_row(enc_vec, pred_out):
                pops.append(1)
                return joint_row(enc_vec, pred_out)

            model.prediction.step = counting_step
            model.joint_log_probs_row = counting_row
            try:
                decoder(model, enc, cfg)
            finally:
                del model.prediction.step, model.joint_log_probs_row
            return stepped, len(pops)

        stepped, pops = run(beam_decode)
        assert len(set(stepped)) == len(stepped)
        assert len(stepped) <= pops + 1
        eager, _ = run(reference_beam_decode)  # the check can tell eager stepping
        assert len(set(eager)) < len(eager)


class TestWer:
    def test_identical(self):
        assert edit_distance_wer([1, 2, 3], [1, 2, 3]) == (0, 0, 0, 0.0)

    def test_empty_hyp(self):
        s, i, d, rate = edit_distance_wer([], [1, 2, 3, 4])
        assert (s, i, d) == (0, 0, 4)
        assert rate == 1.0

    def test_substitution(self):
        s, i, d, rate = edit_distance_wer([1, 9, 3], [1, 2, 3])
        assert (s, i, d) == (1, 0, 0)
        assert abs(rate - 1 / 3) < 1e-12

    def test_empty_reference(self):
        assert edit_distance_wer([], [])[3] == 0.0
        assert edit_distance_wer([1], [])[3] == math.inf

    def test_counts_consistent(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            ref = rng.integers(1, 5, size=rng.integers(0, 8)).tolist()
            hyp = rng.integers(1, 5, size=rng.integers(0, 8)).tolist()
            s, i, d, _ = edit_distance_wer(hyp, ref)
            _, _, _, matches = edit_align(hyp, ref)
            assert s + d + len(matches) == len(ref)
            assert s + i + len(matches) == len(hyp)


class TestAlignmentDelay:
    def test_exact_alignment_zero_delay(self):
        assert alignment_delay([1, 2], [4, 9], [1, 2], [4, 9]) == 0.0

    def test_constant_lateness(self):
        assert alignment_delay([1, 2, 3], [5, 8, 12], [1, 2, 3], [3, 6, 10]) == 2.0

    def test_negative_delay_allowed(self):
        assert alignment_delay([1], [2], [1], [5]) == -3.0

    def test_only_matched_tokens_count(self):
        # token 9 is a substitution and must not contribute
        d = alignment_delay([1, 9, 3], [4, 6, 9], [1, 2, 3], [4, 6, 7])
        assert d == 1.0

    def test_no_matches_raises(self):
        with pytest.raises(ValueError):
            alignment_delay([1], [3], [2], [5])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            alignment_delay([1, 2], [3], [1], [4])


class TestLatencyFormula:
    def test_lookahead_heavy_configuration(self):
        assert reported_latency_ms(6, 4, 2.0) == 780.0

    def test_no_lookahead_configuration(self):
        assert reported_latency_ms(6, 0, 10.0) == 300.0
