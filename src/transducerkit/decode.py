"""Greedy and beam decoding, token error scoring, alignment-delay analysis.

Frame indices recorded by the decoders are 1-based frame numbers, matching
the ground-truth emission frames written by the data generator.
"""

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

BLANK = 0


@dataclass
class DecodeConfig:
    mode: str = "greedy"
    beam_width: int = 10
    max_symbols_per_frame: int = 10

    def __post_init__(self):
        if self.mode not in ("greedy", "beam"):
            raise ValueError(f"unknown decode mode {self.mode!r}")
        if self.beam_width < 1 or self.max_symbols_per_frame < 1:
            raise ValueError("beam_width and max_symbols_per_frame must be >= 1")


@dataclass
class Hypothesis:
    """One decoded token sequence with its score and emission frames."""

    tokens: tuple
    log_prob: float
    emit_frames: tuple


def greedy_decode(model, enc_outputs, max_symbols_per_frame=10):
    """Emit the argmax token per step; blank advances to the next frame.

    Ties break toward the lowest token id. A frame force-advances (taking
    the blank transition) after max_symbols_per_frame emissions, so decoding
    always terminates within T*max_symbols_per_frame prediction steps.
    """
    state, pred_out = model.prediction.step(model.prediction.initial_state(), None)
    tokens, frames = [], []
    log_prob = 0.0
    for t in range(enc_outputs.shape[0]):
        emitted = 0
        while True:
            logp = model.joint_log_probs_row(enc_outputs[t], pred_out)
            k = int(np.argmax(logp))
            if k == BLANK or emitted >= max_symbols_per_frame:
                log_prob += float(logp[BLANK])
                break
            tokens.append(k)
            frames.append(t + 1)
            log_prob += float(logp[k])
            state, pred_out = model.prediction.step(state, k)
            emitted += 1
    return Hypothesis(tokens=tuple(tokens), log_prob=log_prob, emit_frames=tuple(frames))


def _merge(pool, tokens, score, frames):
    """Store (score, frames) under tokens in a dict of entries: scores merge
    by logsumexp, the higher-scoring branch keeps its emission frames (a tie
    keeps the stored one). Returns the entry now stored under tokens."""
    old = pool.get(tokens)
    if old is not None:
        frames = old[1] if old[0] >= score else frames
        score = float(np.logaddexp(old[0], score))
    entry = pool[tokens] = (score, frames)
    return entry


def beam_decode(model, enc_outputs, cfg):
    """Frame-synchronous beam search with prefix merging.

    Hypotheses with identical token sequences merge by logsumexp. Within a
    frame, expansion continues until the beam's blank-terminated hypotheses
    cannot be beaten by anything left to expand (with a
    max_symbols_per_frame guard). The prediction network runs once per
    distinct prefix, when a hypothesis with that prefix is first popped.
    Returns (best, nbest list).
    """
    beam_k = min(cfg.beam_width, model.num_labels - 1)
    # token prefix -> (prediction state, output); a popped hypothesis's
    # parent was popped before it, so its state is always here
    cache = {(): model.prediction.step(model.prediction.initial_state(), None)}
    kept = [((), (0.0, ()))]
    sentinel = (model.num_labels,)
    seq = itertools.count()
    for t in range(enc_outputs.shape[0]):
        active, heap = {}, []

        def push(tokens, score, frames):
            entry = _merge(active, tokens, score, frames)
            # pop order: higher score, then lower token ids, with an
            # extension ahead of its own prefix (the sentinel num_labels
            # exceeds every token id); seq keeps entries out of equal keys
            heapq.heappush(heap, (-entry[0], tokens + sentinel, next(seq), tokens, entry))

        for tokens, entry in kept:
            push(tokens, *entry)
        finished = {}
        for _ in range(cfg.beam_width * cfg.max_symbols_per_frame + len(active)):  # max pops
            if not active:
                break
            # skip stale entries: a merge replaced their entry, or popped it
            while active.get(heap[0][3]) is not heap[0][4]:
                heapq.heappop(heap)
            tokens, (score, frames) = heapq.heappop(heap)[3:]
            if len(finished) >= cfg.beam_width:
                bar = sorted(s for s, _ in finished.values())[-cfg.beam_width]
                if bar >= score:
                    break
            del active[tokens]
            if tokens not in cache:
                cache[tokens] = model.prediction.step(cache[tokens[:-1]][0], tokens[-1])
            logp = model.joint_log_probs_row(enc_outputs[t], cache[tokens][1])
            lp = logp.tolist()
            _merge(finished, tokens, score + lp[BLANK], frames)
            # the emissions within frame t, each of which recorded t + 1
            if frames.count(t + 1) >= cfg.max_symbols_per_frame:
                continue
            order = np.argsort(-logp[1:], kind="stable")[:beam_k] + 1
            for k in order.tolist():
                push(tokens + (k,), score + lp[k], frames + (t + 1,))
        kept = sorted(finished.items(), key=lambda item: (-item[1][0], item[0]))[: cfg.beam_width]
    nbest = [Hypothesis(tokens, score, frames) for tokens, (score, frames) in kept]
    return nbest[0], nbest


def decode_corpus(model, utts, cfg):
    """Encode and decode every utterance with ``cfg``'s search.

    Returns {utt_id: best Hypothesis} in input order.
    """
    hyps = {}
    for utt in utts:
        enc, _ = model.encode(utt.features)
        if cfg.mode == "greedy":
            hyps[utt.utt_id] = greedy_decode(model, enc, cfg.max_symbols_per_frame)
        else:
            hyps[utt.utt_id] = beam_decode(model, enc, cfg)[0]
    return hyps


def edit_align(hyp, ref):
    """Levenshtein alignment. Returns (subs, ins, dels, matches) where
    matches is a list of (ref_index, hyp_index) pairs with equal tokens.
    Backtrace prefers diagonal moves, then deletion, then insertion."""
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            same = ref[i - 1] == hyp[j - 1]
            dist[i, j] = min(
                dist[i - 1, j - 1] + (0 if same else 1),
                dist[i - 1, j] + 1,
                dist[i, j - 1] + 1,
            )
    subs = ins = dels = 0
    matches = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (
            0 if ref[i - 1] == hyp[j - 1] else 1
        ):
            if ref[i - 1] == hyp[j - 1]:
                matches.append((i - 1, j - 1))
            else:
                subs += 1
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    matches.reverse()
    return subs, ins, dels, matches


def edit_distance_wer(hyp, ref):
    """(substitutions, insertions, deletions, error rate).

    Empty reference: rate is 0.0 for an empty hypothesis, inf otherwise.
    """
    subs, ins, dels, _ = edit_align(hyp, ref)
    if len(ref) == 0:
        rate = 0.0 if len(hyp) == 0 else float("inf")
    else:
        rate = (subs + ins + dels) / len(ref)
    return subs, ins, dels, rate


def alignment_delay(hyp_tokens, hyp_frames, ref_tokens, ref_frames):
    """Mean (emission frame - ground-truth frame) over edit-matched tokens.

    May be negative (emission before the ground-truth boundary). Raises if
    the alignment matches no tokens.
    """
    if len(hyp_tokens) != len(hyp_frames) or len(ref_tokens) != len(ref_frames):
        raise ValueError("token and frame lists must have equal lengths")
    _, _, _, matches = edit_align(hyp_tokens, ref_tokens)
    if not matches:
        raise ValueError("no matched tokens to measure delay on")
    gaps = [hyp_frames[j] - ref_frames[i] for i, j in matches]
    return float(np.mean(gaps))


def corpus_delay(items, frame_divisor=1):
    """Mean alignment delay over a corpus, in encoder frames.

    ``items`` yields (utt_id, hyp_tokens, hyp_frames, ref_tokens, ref_frames)
    with reference frames counted in raw frames; each maps onto encoder frame
    ceil(f / frame_divisor). Utterances with no matched token are skipped,
    and RuntimeError is raised if none is left. Returns (mean, [(utt_id,
    delay), ...] in input order).
    """
    delays = []
    for utt_id, hyp_tokens, hyp_frames, ref_tokens, ref_frames in items:
        scaled_ref = [(f + frame_divisor - 1) // frame_divisor for f in ref_frames]
        try:
            delays.append((utt_id, alignment_delay(hyp_tokens, hyp_frames, ref_tokens, scaled_ref)))
        except ValueError:
            continue
    if not delays:
        raise RuntimeError("no utterances with matched tokens")
    return float(np.mean([d for _, d in delays])), delays


def corpus_token_errors(pairs):
    """Corpus token errors over (hyp_tokens, ref_tokens) pairs: (subs, ins,
    dels, ref_tokens, rate), rate = (S+I+D) / ref_tokens or 0.0 if none."""
    subs = ins = dels = ref_tokens = 0
    for hyp, ref in pairs:
        s, i, d, _ = edit_align(hyp, ref)
        subs += s
        ins += i
        dels += d
        ref_tokens += len(ref)
    rate = (subs + ins + dels) / ref_tokens if ref_tokens else 0.0
    return subs, ins, dels, ref_tokens, rate


def reported_latency_ms(num_layers, tau, mean_delay_frames):
    """User-perceived latency: encoder lookahead plus emission delay.

    (num_layers*tau lookahead frames + mean alignment delay) * 30ms, the
    span of one encoder frame (3 stacked 10ms features).
    """
    return (num_layers * tau + mean_delay_frames) * 30.0
