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
        if self.prediction.is_contextual:
            raise ValueError("contextual cell kinds are only valid for the encoder")


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
        """batch: list of (features, labels). Returns (logits lattice, caches)."""
        enc_outs, enc_caches = [], []
        pre_outs, pre_caches = [], []
        labels_list = []
        for features, labels in batch:
            eo, ec = self.encode(features)
            po, pc = self.prediction.forward(labels)
            enc_outs.append(eo)
            enc_caches.append(ec)
            pre_outs.append(po)
            pre_caches.append(pc)
            labels_list.append(list(labels))
        z, joint_cache = self.joint.combine_packed(enc_outs, pre_outs)
        logits = self.joint.project_logits(z)
        return logits, (enc_caches, pre_caches, joint_cache, labels_list)

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
        enc_caches, pre_caches, joint_cache, labels_list = caches
        softmax_inplace(logits.data)
        ws = loss_mod.forward_backward(logits, labels_list)
        loss = ws.loss_mean
        if not np.isfinite(loss):
            return loss
        d_logits = loss_mod.grad_logits_merged(ws)
        d_logits.data *= 1.0 / len(batch)  # mean over utterances, still in place
        self.backprop_to_networks(d_logits, (enc_caches, pre_caches, joint_cache))
        return loss

    def backprop_to_networks(self, d_logits, caches):
        """Route packed logit gradients into joint, encoder, and prediction
        parameters. Encoder gradients at each frame sum over label positions
        and vice versa (done inside the joint backward)."""
        enc_caches, pre_caches, joint_cache = caches
        d_enc_list, d_pre_list = self.joint.backward(d_logits, joint_cache)
        for d_enc, cache in zip(d_enc_list, enc_caches):
            self.encoder.backward(d_enc, cache)
        for d_pre, cache in zip(d_pre_list, pre_caches):
            self.prediction.backward(d_pre, cache)

    # ----- decoding support -----

    def joint_log_probs_row(self, enc_vec, pred_vec):
        """Output log-probabilities for one (frame, label-position) cell."""
        j = self.joint
        z = enc_vec @ j.u_mat.value + pred_vec @ j.v_mat.value + j.b_z.value
        np.tanh(z, out=z)
        logits = z @ j.w_out.value + j.b_out.value
        m = logits.max()
        return logits - (m + np.log(np.exp(logits - m).sum()))
