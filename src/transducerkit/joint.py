"""Joint network over the (frame, label-position) lattice, packed layout.

A broadcast combination of encoder and prediction outputs materializes an
(N, max_T, max_U+1, width) tensor and pays for every padded cell. Here the
combination is done sequence by sequence and the per-sequence blocks of
exact size T_n*(U_n+1) are concatenated into one 2-D buffer, with an offset
index carrying the lattice geometry to later stages. ``footprint`` and
``max_batch`` model the memory cost of both layouts so the saving can be
quantified without a GPU.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE, uniform_init


class PackedLattice:
    """Concatenated per-sequence (T_n, U_n+1, width) blocks.

    Row (n, t, u) lives at offsets[n] + t*(U_n+1) + u. ``dims`` holds
    (T_n, U_n+1) pairs.
    """

    def __init__(self, data, dims):
        self.data = data
        self.dims = [(int(t), int(u1)) for t, u1 in dims]
        self.offsets = []
        row = 0
        for t, u1 in self.dims:
            if t < 1 or u1 < 1:
                raise ValueError(f"lattice dims must be >= 1, got ({t}, {u1})")
            self.offsets.append(row)
            row += t * u1
        if data.shape[0] != row:
            raise ValueError(f"packed data has {data.shape[0]} rows, dims imply {row}")

    @property
    def width(self):
        return self.data.shape[1]

    def block(self, n):
        """View of sequence n, shaped (T_n, U_n+1, width)."""
        t_n, u1_n = self.dims[n]
        start = self.offsets[n]
        return self.data[start : start + t_n * u1_n].reshape(t_n, u1_n, self.width)

    @classmethod
    def from_blocks(cls, blocks):
        blocks = [np.asarray(b, dtype=DTYPE) for b in blocks]
        dims = [(b.shape[0], b.shape[1]) for b in blocks]
        data = np.concatenate([b.reshape(-1, b.shape[2]) for b in blocks], axis=0)
        return cls(data, dims)


class JointNetwork:
    """z = tanh(enc_proj + pre_proj + bias), then a linear output layer.

    Weights are stored input-major: u_mat (F_enc, D), v_mat (F_pre, D),
    w_out (D, K).
    """

    def __init__(self, reg, prefix, enc_dim, pre_dim, joint_dim, num_labels, rng):
        if num_labels < 2:
            raise ValueError("need at least blank plus one label")
        if joint_dim < 1:
            raise ValueError("joint width must be positive")
        self.enc_dim = enc_dim
        self.pre_dim = pre_dim
        self.joint_dim = joint_dim
        self.num_labels = num_labels
        self.u_mat = reg.add(prefix + ".u_mat", uniform_init(rng, (enc_dim, joint_dim), enc_dim))
        self.v_mat = reg.add(prefix + ".v_mat", uniform_init(rng, (pre_dim, joint_dim), pre_dim))
        self.b_z = reg.add(prefix + ".b_z", np.zeros(joint_dim, dtype=DTYPE))
        self.w_out = reg.add(prefix + ".w_out", uniform_init(rng, (joint_dim, num_labels), joint_dim))
        self.b_out = reg.add(prefix + ".b_out", np.zeros(num_labels, dtype=DTYPE))

    def combine_packed(self, enc_outputs, pre_outputs):
        """Combine per-sequence encoder/prediction outputs into a packed lattice.

        enc_outputs: list of (T_n, F_enc); pre_outputs: list of (U_n+1, F_pre).
        The projections are computed once per frame and once per label
        position; only exact-size per-sequence blocks are ever materialized.
        Returns (PackedLattice of width D, cache for backward).
        """
        if len(enc_outputs) != len(pre_outputs):
            raise ValueError("sequence count mismatch between encoder and prediction outputs")
        dims = []
        for enc, pre in zip(enc_outputs, pre_outputs):
            if enc.shape[1] != self.enc_dim or pre.shape[1] != self.pre_dim:
                raise ValueError("encoder/prediction width mismatch with joint weights")
            dims.append((enc.shape[0], pre.shape[0]))
        rows = sum(t * u1 for t, u1 in dims)
        data = np.empty((rows, self.joint_dim), dtype=DTYPE)
        lattice = PackedLattice(data, dims)
        for n, (enc, pre) in enumerate(zip(enc_outputs, pre_outputs)):
            a = enc @ self.u_mat.value  # (T, D), one projection per frame
            b = pre @ self.v_mat.value  # (U+1, D), one per label position
            block = lattice.block(n)
            np.add(a[:, None, :], b[None, :, :], out=block)
            block += self.b_z.value
            np.tanh(block, out=block)
        return lattice, (enc_outputs, pre_outputs, lattice)

    def project_logits(self, z):
        """Row-wise linear output layer; same packing, width K."""
        if z.width != self.joint_dim:
            raise ValueError(f"z width {z.width} != joint width {self.joint_dim}")
        data = z.data @ self.w_out.value
        data += self.b_out.value
        return PackedLattice(data, z.dims)

    def backward(self, d_logits, cache):
        """From packed logit gradients to per-sequence input gradients.

        Accumulates all joint parameter gradients; returns
        (d_enc list of (T_n, F_enc), d_pre list of (U_n+1, F_pre)).
        """
        enc_outputs, pre_outputs, z = cache
        self.w_out.grad += z.data.T @ d_logits.data
        self.b_out.grad += d_logits.data.sum(axis=0)
        d_z = d_logits.data @ self.w_out.value.T
        d_z *= 1.0 - z.data * z.data
        d_enc_list, d_pre_list = [], []
        for n, (enc, pre) in enumerate(zip(enc_outputs, pre_outputs)):
            t_n, u1_n = z.dims[n]
            start = z.offsets[n]
            d_block = d_z[start : start + t_n * u1_n].reshape(t_n, u1_n, self.joint_dim)
            d_a = d_block.sum(axis=1)  # (T, D)
            d_b = d_block.sum(axis=0)  # (U+1, D)
            self.u_mat.grad += enc.T @ d_a
            self.v_mat.grad += pre.T @ d_b
            self.b_z.grad += d_a.sum(axis=0)
            d_enc_list.append(d_a @ self.u_mat.value.T)
            d_pre_list.append(d_b @ self.v_mat.value.T)
        return d_enc_list, d_pre_list


def combine_broadcast_reference(joint, enc_outputs, pre_outputs):
    """Broadcast-layout reference: pad to max lengths, combine with numpy
    broadcasting, and return the (N, maxT, maxU+1, D) tensor. Test oracle for
    the packed path; allocates the full padded tensor on purpose."""
    n = len(enc_outputs)
    max_t = max(e.shape[0] for e in enc_outputs)
    max_u1 = max(p.shape[0] for p in pre_outputs)
    enc_pad = np.zeros((n, max_t, joint.enc_dim), dtype=DTYPE)
    pre_pad = np.zeros((n, max_u1, joint.pre_dim), dtype=DTYPE)
    for i, (e, p) in enumerate(zip(enc_outputs, pre_outputs)):
        enc_pad[i, : e.shape[0]] = e
        pre_pad[i, : p.shape[0]] = p
    a = enc_pad @ joint.u_mat.value
    b = pre_pad @ joint.v_mat.value
    z = a[:, :, None, :] + b[:, None, :, :] + joint.b_z.value
    return np.tanh(z)


@dataclass
class BatchSpec:
    """Lengths and widths that determine lattice memory."""

    lengths: list  # (T_n, U_n) pairs
    joint_dim: int
    num_labels: int

    def __post_init__(self):
        for t, u in self.lengths:
            if t < 1 or u < 0:
                raise ValueError(f"invalid sequence lengths (T={t}, U={u})")


def footprint(spec, layout, stage):
    """Modeled bytes of one lattice tensor.

    Both layouts are charged U_n+1 label positions (the start state is a row
    either way, so the comparison stays fair). stage "z" uses the joint
    width, stage "logits" the output width.
    """
    if layout not in ("broadcast", "packed"):
        raise ValueError(f"unknown layout {layout!r}")
    if stage not in ("z", "logits"):
        raise ValueError(f"unknown stage {stage!r}")
    width = spec.joint_dim if stage == "z" else spec.num_labels
    if layout == "packed":
        cells = sum(t * (u + 1) for t, u in spec.lengths)
    else:
        cells = (
            len(spec.lengths)
            * max(t for t, _ in spec.lengths)
            * max(u + 1 for _, u in spec.lengths)
        )
    return cells * width * np.dtype(DTYPE).itemsize


LOSS_STAGE_TENSORS = {"merged": 1, "chain_rule": 3}


def sample_length_pairs(t_range, u_range):
    """Draw 2048 (T, U) pairs uniformly from inclusive ranges, deterministically."""
    rng = np.random.default_rng(0)
    ts = rng.integers(t_range[0], t_range[1] + 1, size=2048)
    us = rng.integers(u_range[0], u_range[1] + 1, size=2048)
    return list(zip(ts.tolist(), us.tolist()))


BUILTIN_DISTS = {"mixed": lambda: sample_length_pairs((80, 800), (4, 60))}


def max_batch(length_pairs, memory_budget, layout, loss_variant, joint_dim, num_labels):
    """Largest modeled minibatch size under a byte budget.

    Directional accounting model, not a GPU simulator: the peak charges the
    z-stage lattice plus the loss-stage logit-width tensors (one for the
    merged gradient, three for the chain rule), and nothing else. The
    ``footprint`` of the given length pairs, divided by their count, is the
    per-sequence cost: the mean packed lattice size, or the padded maximum
    for the broadcast layout, so the modeled peak is linear in N.
    """
    if memory_budget <= 0:
        raise ValueError("memory budget must be positive")
    if loss_variant not in LOSS_STAGE_TENSORS:
        raise ValueError(f"unknown loss variant {loss_variant!r}")
    spec = BatchSpec(list(length_pairs), joint_dim, num_labels)
    n_loss = LOSS_STAGE_TENSORS[loss_variant]
    peak = footprint(spec, layout, "z") + n_loss * footprint(spec, layout, "logits")
    return int(memory_budget * len(spec.lengths) // peak)
