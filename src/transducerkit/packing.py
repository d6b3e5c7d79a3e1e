"""Packed, length-sorted layout of a minibatch of sequences.

The recurrent networks run a whole minibatch as one array of rows, batched
across sequences as in Appleyard, Kocisky and Blunsom (arXiv 1604.01946) and
laid out as PyTorch's ``PackedSequence``: time step t of a recurrence
advances one contiguous block of rows, one per sequence still running, with
no padding and no mask.
"""

import functools

import numpy as np


def _block(start, n):
    """Rows start:start+n; one row as an int index, so that it reads as a vector.

    The int is for speed only: plain slices give bitwise the same results,
    but made N=1 ``encode`` slower, by a median 7% (60 utterances, best of 7
    passes, slower in 7 of 8 alternating process pairs, on a 2-vCPU host
    with numpy 2.4.6)."""
    return start if n == 1 else slice(start, start + n)


class Packing:
    """Row layout of a minibatch of sequences, as PyTorch's PackedSequence.

    Sequences are sorted longest first. Time step t has one row for each of
    the ``sizes[t]`` sequences still running, at rows
    ``offsets[t]:offsets[t+1]`` of one ``(sum of lengths, .)`` array: a step
    is a contiguous block, and a sequence that has ended drops off its end,
    with no padding. One sequence's rows are the sequence itself.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.intp)
        if not lengths.all():
            raise ValueError(f"utterance {np.argmin(lengths)} of the minibatch is empty")
        rank = np.argsort(np.argsort(-lengths, kind="stable"))
        self.sizes = np.count_nonzero(lengths[:, None] > np.arange(lengths.max()), axis=0)
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        self.rows = np.concatenate([self.offsets[:T] + r for T, r in zip(lengths, rank)])
        self.splits = np.cumsum(lengths)[:-1]
        # For cells.py: state arrays put the n0 zero initial states before the
        # packed rows. Step t reads its previous states at rows ``prev`` and
        # writes rows ``cur`` of those, and is packed row block ``row``;
        # ``prev_rows`` holds every packed row's previous-state row.
        n0 = int(self.sizes[0])
        self.steps, prev = [], 0
        for start, n in zip(self.offsets[:-1].tolist(), self.sizes.tolist()):
            self.steps.append((_block(prev, n), _block(n0 + start, n), _block(start, n)))
            prev = n0 + start
        self.prev_rows = np.arange(self.offsets[-1]) + np.repeat(n0 - np.append(n0, self.sizes[:-1]), self.sizes)
        self._shifts = {0: (slice(None), slice(None))}

    def pack(self, seqs):
        """Per-sequence ``(T_n, .)`` arrays in batch order -> packed rows."""
        flat = np.concatenate(seqs)
        out = np.empty_like(flat)
        out[self.rows] = flat
        return out

    def unpack(self, rows):
        """Packed rows -> per-sequence ``(T_n, .)`` arrays in batch order."""
        return np.split(rows[self.rows], self.splits)

    def shift(self, d):
        """(dst, src) rows pairing (t, n) with (t+d, n) wherever t+d < T_n,
        so that a shift never reaches into another sequence."""
        if d not in self._shifts:
            keep = self.sizes[d:]
            start = self.offsets[: len(keep)]
            dst = np.repeat(start - (np.cumsum(keep) - keep), keep) + np.arange(keep.sum())
            self._shifts[d] = dst, dst + np.repeat(self.offsets[d : d + len(keep)] - start, keep)
        return self._shifts[d]


@functools.lru_cache(maxsize=1024)
def single(length):
    """The Packing of one sequence of ``length`` rows (shared, built once)."""
    return Packing([length])
