"""Synthetic transduction tasks, corpus disk format, and minibatch assembly.

The synthetic task is a desk-scale stand-in for a speech corpus: each
utterance is a uniform random token sequence, each token rendered as its
one-hot feature row repeated for a random duration, with Gaussian noise on
top. The last raw frame of each token's span is kept as the ground-truth
emission frame for alignment-delay analysis.

On disk a corpus is one directory per split: one "TKT1" tensor file per
utterance plus a labels.tsv with lines "utt-id<TAB>tok tok ...<TAB>frame
frame ...".
"""

import os
from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE, load_tensor, save_tensor


@dataclass
class SyntheticTaskSpec:
    """Task parameters. ``dur_range`` counts *encoder* frames per token;
    each token is rendered for a raw-feature duration drawn uniformly from
    [lo*render_stride, hi*render_stride] rows, so tokens span the intended
    number of frames after the ingestion pipeline stacks render_stride raw
    rows per encoder frame (boundaries stay unaligned to the stride)."""

    num_labels: int = 21  # blank + 20 tokens
    utt_len_range: tuple = (2, 8)
    dur_range: tuple = (2, 5)
    noise_sigma: float = 0.1
    train_size: int = 800
    dev_size: int = 60
    test_size: int = 120
    seed: int = 0
    render_stride: int = 3

    def __post_init__(self):
        if self.num_labels < 3:
            raise ValueError("need blank plus at least two labels")
        if self.utt_len_range[0] < 1 or self.utt_len_range[0] > self.utt_len_range[1]:
            raise ValueError("bad utterance length range")
        if self.dur_range[0] < 1 or self.dur_range[0] > self.dur_range[1]:
            raise ValueError("bad duration range")
        if self.render_stride < 1:
            raise ValueError("render_stride must be >= 1")

    @property
    def feature_dim(self):
        return self.num_labels - 1


@dataclass
class Utterance:
    utt_id: str
    features: np.ndarray  # (T_raw, feature_dim)
    labels: list  # token ids in [1, K-1]
    ref_frames: list  # 1-based raw frame number where each token ends


def _render_utterance(spec, rng, utt_id):
    u_len = int(rng.integers(spec.utt_len_range[0], spec.utt_len_range[1] + 1))
    labels = rng.integers(1, spec.num_labels, size=u_len).tolist()
    durs = rng.integers(
        spec.dur_range[0] * spec.render_stride,
        spec.dur_range[1] * spec.render_stride + 1,
        size=u_len,
    )
    total = int(durs.sum())
    feats = np.zeros((total, spec.feature_dim), dtype=DTYPE)
    ref_frames = []
    row = 0
    for tok, dur in zip(labels, durs):
        feats[row : row + dur, tok - 1] = 1.0
        row += int(dur)
        ref_frames.append(row)  # 1-based last frame of the span
    if spec.noise_sigma > 0:
        feats += rng.normal(0.0, spec.noise_sigma, feats.shape)
    return Utterance(utt_id, feats, labels, ref_frames)


def gen_synthetic(spec):
    """Generate train/dev/test splits; bitwise reproducible for a fixed seed."""
    rng = np.random.default_rng(spec.seed)
    corpus = {}
    for split, size in (("train", spec.train_size), ("dev", spec.dev_size), ("test", spec.test_size)):
        corpus[split] = [
            _render_utterance(spec, rng, f"{split}-{i:05d}") for i in range(size)
        ]
    return corpus


def save_split(dirpath, utterances):
    os.makedirs(dirpath, exist_ok=True)
    lines = []
    for utt in utterances:
        save_tensor(os.path.join(dirpath, utt.utt_id + ".tkt"), utt.features)
        toks = " ".join(str(t) for t in utt.labels)
        frames = " ".join(str(f) for f in utt.ref_frames)
        lines.append(f"{utt.utt_id}\t{toks}\t{frames}\n")
    with open(os.path.join(dirpath, "labels.tsv"), "w") as f:
        f.writelines(lines)


def save_corpus(root, corpus):
    for split, utts in corpus.items():
        save_split(os.path.join(root, split), utts)


def load_split(dirpath):
    path = os.path.join(dirpath, "labels.tsv")
    utts = []
    for utt_id, (labels, ref_frames) in read_label_file(path).items():
        if len(ref_frames) != len(labels):
            raise ValueError(
                f"{path}: utterance {utt_id} has {len(labels)} tokens but {len(ref_frames)} frames"
            )
        features = load_tensor(os.path.join(dirpath, utt_id + ".tkt"))
        utts.append(Utterance(utt_id, features, labels, ref_frames))
    return utts


def read_label_file(path):
    """labels.tsv / decode-output reader: {utt_id: (tokens, frames)}.

    The frames column is optional (score files may carry tokens only). A
    bad column count, a non-integer value or a repeated utterance id raises a
    ValueError naming the file and line; "#" lines are comments.
    """
    table = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 2 or 3 columns, got {len(parts)}")
            utt_id = parts[0]
            if utt_id in table:
                raise ValueError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
            frames = parts[2] if len(parts) == 3 else ""
            try:
                table[utt_id] = ([int(t) for t in parts[1].split()], [int(x) for x in frames.split()])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer token or frame in {line!r}") from None
    return table


def lattice_cells(utt, frame_stack=3):
    """Modeled lattice size of one utterance: T_enc * (U+1)."""
    t_enc = (utt.features.shape[0] + frame_stack - 1) // frame_stack
    return t_enc * (len(utt.labels) + 1)


def make_batches(utterances, budget_cells, seed=0, frame_stack=3):
    """Split a corpus into minibatches bounded by a lattice-cell budget.

    Utterances are shuffled (seeded) before packing. Batches fill greedily
    until the next utterance would exceed the budget. A single utterance over
    budget is an error naming the utterance.
    """
    if not utterances:
        raise ValueError("empty corpus")
    order = list(utterances)
    rng = np.random.default_rng(seed)
    rng.shuffle(order)
    batches = []
    cur, cur_cells = [], 0
    for utt in order:
        cells = lattice_cells(utt, frame_stack)
        if cells > budget_cells:
            raise ValueError(
                f"utterance {utt.utt_id} needs {cells} lattice cells, over the budget {budget_cells}"
            )
        if cur and cur_cells + cells > budget_cells:
            batches.append(cur)
            cur, cur_cells = [], 0
        cur.append(utt)
        cur_cells += cells
    if cur:
        batches.append(cur)
    return batches
