"""Full transducer model: encoder + prediction + joint + loss plumbing.

The training path runs: stack frames -> encoder -> prediction -> packed joint
combination -> in-place softmax -> lattice recursions -> merged logit
gradient (overwriting the posterior buffer) -> joint backward -> network
backwards. One lattice-sized K-width tensor exists through the whole loss
stage.
"""

from dataclasses import dataclass

import numpy as np

from . import loss as loss_mod
from .joint import JointNetwork
from .networks import NetConfig, PredictionNet, SequenceNet, stack_frames
from .packing import Packing
from .tensor import ParamRegistry, softmax_inplace


@dataclass
class ModelConfig:
    """Everything needed to rebuild a model (seed included)."""

    feature_dim: int
    num_labels: int
    joint_dim: int
    encoder: NetConfig
    prediction: NetConfig
    frame_stack: int = 3
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.encoder, dict):
            self.encoder = NetConfig(**self.encoder)
        if isinstance(self.prediction, dict):
            self.prediction = NetConfig(**self.prediction)
        expected = self.feature_dim * self.frame_stack
        if self.encoder.input_dim != expected:
            raise ValueError(
                f"encoder input_dim {self.encoder.input_dim} != "
                f"feature_dim*frame_stack = {expected}"
            )
        if self.prediction.is_trajectory:
            raise ValueError(f"prediction cell kind {self.prediction.cell_kind!r}: "
                             "trajectory and contextual kinds are only valid for the encoder")


class TransducerModel:
    """Owns the parameter registry and wires the three networks together."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.registry = ParamRegistry()
        rng = np.random.default_rng(cfg.seed)
        self.encoder = SequenceNet(self.registry, "enc", cfg.encoder, rng)
        self.prediction = PredictionNet(self.registry, "pre", cfg.prediction, cfg.num_labels, rng)
        self.joint = JointNetwork(
            self.registry,
            "joint",
            self.encoder.out_dim,
            self.prediction.out_dim,
            cfg.joint_dim,
            cfg.num_labels,
            rng,
        )

    @property
    def num_labels(self):
        return self.cfg.num_labels

    # ----- forward -----

    def encode(self, features):
        """Raw features (T_raw, feature_dim) -> encoder outputs (T_enc, F)."""
        stacked = stack_frames(features, self.cfg.frame_stack)
        outs, cache = self.encoder.forward(stacked)
        return outs, cache

    def forward_batch(self, batch):
        """batch: list of (features, labels). Returns (logits lattice, caches).

        Each network runs once over the whole minibatch in a packed,
        length-sorted layout; the joint gets per-utterance blocks in batch
        order."""
        feats = [stack_frames(features, self.cfg.frame_stack) for features, _ in batch]
        labels_list = [list(labels) for _, labels in batch]
        enc_pack = Packing([len(x) for x in feats])
        pre_pack = Packing([len(labels) + 1 for labels in labels_list])
        enc_outs, enc_cache = self.encoder.forward(enc_pack.pack(feats), enc_pack)
        pre_outs, pre_cache = self.prediction.forward(labels_list, pre_pack)
        z, joint_cache = self.joint.combine_packed(enc_pack.unpack(enc_outs), pre_pack.unpack(pre_outs))
        logits = self.joint.project_logits(z)
        return logits, ((enc_pack, enc_cache), (pre_pack, pre_cache), joint_cache, labels_list)

    def batch_loss(self, batch):
        """Mean per-utterance loss, no gradients."""
        logits, caches = self.forward_batch(batch)
        softmax_inplace(logits.data)
        ws = loss_mod.forward_backward(logits, caches[3])
        return ws.loss_mean

    def batch_loss_and_grad(self, batch):
        """Mean per-utterance loss with merged backward into all parameters.

        Gradients accumulate into the registry (call registry.zero_grad()
        between steps). A non-finite loss is returned before any backward
        pass runs, leaving the gradients untouched.
        """
        logits, caches = self.forward_batch(batch)
        enc_cache, pre_cache, joint_cache, labels_list = caches
        softmax_inplace(logits.data)
        ws = loss_mod.forward_backward(logits, labels_list)
        loss = ws.loss_mean
        if not np.isfinite(loss):
            return loss
        d_logits = loss_mod.grad_logits_merged(ws)
        d_logits.data *= 1.0 / len(batch)  # mean over utterances, still in place
        self.backprop_to_networks(d_logits, (enc_cache, pre_cache, joint_cache))
        return loss

    def backprop_to_networks(self, d_logits, caches):
        """Route packed logit gradients into joint, encoder, and prediction
        parameters. Encoder gradients at each frame sum over label positions
        and vice versa (done inside the joint backward)."""
        (enc_pack, enc_cache), (pre_pack, pre_cache), joint_cache = caches
        d_enc_list, d_pre_list = self.joint.backward(d_logits, joint_cache)
        self.encoder.backward(enc_pack.pack(d_enc_list), enc_cache)
        self.prediction.backward(pre_pack.pack(d_pre_list), pre_cache)

    # ----- decoding support -----

    def joint_log_probs_row(self, enc_vec, pred_vec):
        """Output log-probabilities for one (frame, label-position) cell."""
        j = self.joint
        z = enc_vec @ j.u_mat.value + pred_vec @ j.v_mat.value + j.b_z.value
        np.tanh(z, out=z)
        logits = z @ j.w_out.value + j.b_out.value
        m = logits.max()
        return logits - (m + np.log(np.exp(logits - m).sum()))
