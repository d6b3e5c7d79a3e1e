"""Dense numeric core: activations, layer norm, parameter registry, gradient checking.

Everything downstream works on contiguous row-major float64 numpy arrays, so
finite-difference gradient checks can be run at tight tolerances.
"""

import functools
import struct

import numpy as np

DTYPE = np.float64

TENSOR_MAGIC = b"TKT1"


def sigmoid(x):
    # 0.5 * (1 + tanh(x/2)): exact identity, never overflows, one transcendental.
    out = np.tanh(np.multiply(x, 0.5))
    out += 1.0
    out *= 0.5
    return out


def softmax(logits):
    """Numerically stable softmax over the last axis, into a new array.

    Raises ValueError on NaN input; the output of each row sums to 1.
    """
    return softmax_inplace(np.array(logits, dtype=DTYPE))


def softmax_inplace(buf):
    """Softmax over the last axis written back into ``buf``.

    Used on the packed logits lattice so the posterior takes the storage of
    the logits and no second lattice-sized tensor exists.
    """
    peak = np.max(buf, axis=-1, keepdims=True)
    if np.isnan(peak).any():  # np.max propagates NaN: no second pass over buf
        raise ValueError("softmax: NaN in logits")
    buf -= peak
    np.exp(buf, out=buf)
    buf /= np.sum(buf, axis=-1, keepdims=True)
    return buf


@functools.lru_cache(maxsize=None)
def _mean_column(n):
    """Read-only (n, 1) column of 1/n: ``v @ col`` is the last-axis mean
    with kept dims, as one matrix-vector product."""
    col = np.full((n, 1), 1.0 / n, dtype=DTYPE)
    col.flags.writeable = False
    return col


def fill_uniform(rng, out, fanin):
    """Fill ``out`` with the values ``rng.uniform(-1/sqrt(fanin), 1/sqrt(fanin))``
    would return for its shape (same draws, same rounding), without a copy."""
    limit = 1.0 / np.sqrt(fanin)
    rng.random(out=out)
    out *= 2.0 * limit
    out -= limit
    return out


def uniform_init(rng, shape, fanin):
    return fill_uniform(rng, np.empty(shape, dtype=DTYPE), fanin)


def layer_norm_fwd(v, gain, bias, epsilon):
    """Forward pass returning (output, cache) for the hand-written backward.

    Statistics are taken over the last axis, so ``v`` may carry any leading
    axes (frames, gates); ``gain`` and ``bias`` broadcast against it.
    """
    col = _mean_column(v.shape[-1])
    vhat = v - v @ col
    inv_sigma = 1.0 / np.sqrt((vhat * vhat) @ col + epsilon)
    vhat *= inv_sigma
    out = vhat * gain
    out += bias
    return out, (vhat, inv_sigma)


def layer_norm_bwd(d_out, gain, cache):
    """Backward of layer_norm_fwd: returns d_v.

    Uses the standard standardization gradient with population (1/D)
    statistics. The parameter gradients are elementwise, ``d_out * vhat``
    for the gain and ``d_out`` for the bias; callers sum them over the rows.
    """
    vhat, inv_sigma = cache
    col = _mean_column(vhat.shape[-1])
    d_vhat = d_out * gain
    d_v = d_vhat - d_vhat @ col
    d_v -= vhat * ((d_vhat * vhat) @ col)
    d_v *= inv_sigma
    return d_v


class Param:
    """A named tensor with a same-shaped gradient buffer.

    ``value`` is only ever written in place (optimizers, checkpoint loading,
    grad_check), so views of it taken once stay current.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name, value):
        self.name = name
        self.value = np.ascontiguousarray(value, dtype=DTYPE)
        self.grad = np.zeros_like(self.value)


class ParamRegistry:
    """Flat map of unique parameter names to Param handles.

    Single-writer gradient accumulation: cells add into ``param.grad``
    during backward passes; the optimizer and grad_check read the whole
    registry through iteration.
    """

    def __init__(self):
        self._params = {}

    def add(self, name, value):
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        p = Param(name, value)
        self._params[name] = p
        return p

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def zero_grad(self):
        for p in self._params.values():
            p.grad[...] = 0.0

    def num_scalars(self):
        return sum(p.value.size for p in self._params.values())

    def grad_global_norm(self):
        total = 0.0
        for p in self._params.values():
            total += float((p.grad * p.grad).sum())
        return float(np.sqrt(total))

    def clip_grad_norm(self, max_norm):
        norm = self.grad_global_norm()
        if norm > max_norm:
            scale = max_norm / norm
            for p in self._params.values():
                p.grad *= scale
        return norm


def grad_check(loss_fn, registry, step=1e-6):
    """Compare analytic gradients against central finite differences.

    ``loss_fn()`` must return a scalar loss computed from the registry's
    current values and accumulate the analytic gradients into the registry.
    Returns the max over all parameter scalars of
    |analytic - numeric| / (|analytic| + |numeric| + 1e-12).
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError(f"grad_check step {step} outside [1e-7, 1e-3]")
    registry.zero_grad()
    base = float(loss_fn())
    if not np.isfinite(base):
        raise ValueError("grad_check: loss is not finite")
    analytic = {p.name: p.grad.copy() for p in registry}

    worst = 0.0
    for p in registry:
        flat = p.value.reshape(-1)
        a = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(loss_fn())
            flat[i] = orig - step
            down = float(loss_fn())
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            rel = abs(a[i] - numeric) / (abs(a[i]) + abs(numeric) + 1e-12)
            worst = max(worst, rel)
    return worst


def write_tensor(f, arr):
    """Write one array in the toolkit's binary tensor format.

    Little-endian: magic "TKT1", u32 rank, u64 per-dim sizes, f64 payload.
    """
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    f.write(TENSOR_MAGIC)
    f.write(struct.pack("<I", arr.ndim))
    f.write(struct.pack("<%dQ" % arr.ndim, *arr.shape))
    f.write(arr.tobytes())


def _read_exact(f, n, what):
    """Read exactly ``n`` bytes of ``what`` from ``f``; a short read raises a
    ValueError naming the file and both byte counts."""
    data = f.read(n)
    if len(data) != n:
        name = getattr(f, "name", "<stream>")
        raise ValueError(f"{name}: truncated {what}: expected {n} bytes, got {len(data)}")
    return data


def read_tensor(f):
    magic = _read_exact(f, 4, "tensor magic")
    if magic != TENSOR_MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}, expected {TENSOR_MAGIC!r}")
    (rank,) = struct.unpack("<I", _read_exact(f, 4, "tensor rank"))
    shape = struct.unpack("<%dQ" % rank, _read_exact(f, 8 * rank, "tensor shape")) if rank else ()
    count = int(np.prod(shape)) if shape else 1
    data = np.frombuffer(_read_exact(f, 8 * count, "tensor payload"), dtype="<f8", count=count)
    return data.reshape(shape).astype(np.float64)


def save_tensor(path, arr):
    with open(path, "wb") as f:
        write_tensor(f, arr)


def load_tensor(path):
    with open(path, "rb") as f:
        arr = read_tensor(f)
        if f.read(1):
            raise ValueError(f"{path}: unexpected bytes after the tensor")
        return arr
