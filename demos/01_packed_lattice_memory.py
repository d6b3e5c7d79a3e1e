#!/usr/bin/env python3
"""Why the joint lattice is stored packed instead of broadcast.

Combining a per-frame encoder output with a per-label-position prediction
output produces one vector per (frame, position) cell. Padding every
sequence to the batch maximum makes that a 4-D tensor whose padded cells
are pure waste; packing concatenates exact-size per-sequence blocks
instead. This script measures both layouts and prints the modeled
max-minibatch table that the bench-mem command produces.
"""

import tracemalloc

import numpy as np

from transducerkit.joint import (
    BatchSpec,
    JointNetwork,
    combine_broadcast_reference,
    footprint,
    max_batch,
    sample_length_pairs,
)
from transducerkit.tensor import ParamRegistry

rng = np.random.default_rng(0)

print("=== packed vs broadcast on a toy batch ===")
lengths = [(3, 2), (5, 4)]  # (frames, labels); every lattice has labels+1 positions
reg = ParamRegistry()
joint = JointNetwork(reg, "joint", enc_dim=6, pre_dim=6, joint_dim=4, num_labels=5, rng=rng)
enc = [rng.normal(size=(t, 6)) for t, _ in lengths]
pre = [rng.normal(size=(u + 1, 6)) for _, u in lengths]

tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
z, _ = joint.combine_packed(enc, pre)
held = tracemalloc.get_traced_memory()[0] - before
tracemalloc.stop()
ref = combine_broadcast_reference(joint, enc, pre)

print(f"sequence dims (T, U+1): {z.dims}")
print(f"packed rows: {z.data.shape[0]} = 3*3 + 5*5, scalars {z.data.size}")
print(f"broadcast tensor shape: {ref.shape}, scalars {ref.size}")
worst = max(
    np.abs(z.block(n) - ref[n, :t, : u + 1]).max() for n, (t, u) in enumerate(lengths)
)
print(f"max |packed - broadcast| over valid cells: {worst:.2e}")
print(f"measured (tracemalloc): combine_packed leaves {held} B allocated, the "
      f"{z.data.nbytes} B packed buffer plus {held - z.data.nbytes} B of lattice index objects")

spec = BatchSpec(lengths, joint_dim=4, num_labels=5)
print(f"footprint model: packed {footprint(spec, 'packed', 'z')} B, "
      f"broadcast {footprint(spec, 'broadcast', 'z')} B")

print()
print("=== modeled max minibatch under a 16 GB budget ===")
print("(speech-like length distribution; merged vs chain-rule loss gradient)")
pairs = sample_length_pairs((80, 800), (4, 60))
print("layout    \tloss_variant\tK=4096\tK=36000")
for layout in ("broadcast", "packed"):
    for variant in ("chain_rule", "merged"):
        ns = [max_batch(pairs, 16e9, layout, variant, 640, k) for k in (4096, 36000)]
        print(f"{layout:10s}\t{variant}\t{ns[0]}\t{ns[1]}")
print()
print("packed layout + merged gradient admits the largest minibatch, and the")
print("advantage grows with the output vocabulary size.")
