"""Sequence-transduction toolkit with memory-lean training.

Core pieces: a packed (per-sequence exact-size) joint lattice, a transducer
loss whose logit gradient is computed in place over the posterior buffer,
six layer-normalized recurrent encoder wirings and a plain ``ln_lstm`` or
``ln_gru`` prediction stack, greedy and beam decoding, a synthetic-task
training harness, and an accounting model for comparing lattice memory
layouts.
"""

from .cells import CellState, LnGruCell, LnLstmCell
from .data import SyntheticTaskSpec, Utterance, gen_synthetic, make_batches
from .decode import (
    DecodeConfig,
    Hypothesis,
    alignment_delay,
    beam_decode,
    corpus_delay,
    decode_corpus,
    edit_distance_wer,
    greedy_decode,
    reported_latency_ms,
)
from .joint import BatchSpec, JointNetwork, PackedLattice, footprint, max_batch
from .loss import (
    LossWorkspace,
    brute_force_loss,
    forward_backward,
    grad_logits_chain,
    grad_logits_merged,
    grad_posterior,
)
from .model import ModelConfig, TransducerModel
from .networks import NetConfig, PredictionNet, SequenceNet, stack_frames
from .tensor import (
    ParamRegistry,
    grad_check,
    load_tensor,
    save_tensor,
    sigmoid,
    softmax,
)
from .train import TrainConfig, evaluate_token_error, fit, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
