import io
import math

import numpy as np
import numpy.testing as npt
import pytest

from transducerkit.tensor import (
    ParamRegistry,
    grad_check,
    layer_norm_bwd,
    layer_norm_fwd,
    load_tensor,
    read_tensor,
    save_tensor,
    sigmoid,
    softmax,
    softmax_inplace,
    write_tensor,
)


def ln_params(n, gain=1.0, bias=0.0, epsilon=0.0):
    return np.full(n, gain), np.full(n, bias), epsilon


def normalized(v, params):
    """Output of the production kernel on one vector."""
    return layer_norm_fwd(np.asarray(v), *params)[0]


class TestLayerNorm:
    def test_hand_computed(self):
        # mu = 2, population sigma = sqrt(2/3)
        out = normalized(np.array([1.0, 2.0, 3.0]), ln_params(3))
        npt.assert_allclose(out, [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_constant_vector_returns_bias(self):
        for c in (0.0, -3.5, 7.2):
            out = normalized(np.full(4, c), ln_params(4, bias=0.25, epsilon=1e-5))
            npt.assert_array_equal(out, np.full(4, 0.25))

    def test_single_element(self):
        p = (np.array([2.0]), np.array([7.0]), 1e-5)
        npt.assert_allclose(normalized(np.array([5.0]), p), [7.0])

    def test_standardizes(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            v = rng.normal(size=rng.integers(2, 16))
            if np.ptp(v) == 0:
                continue
            out = normalized(v, ln_params(v.size))
            assert abs(out.mean()) < 1e-12
            assert abs(out.var() - 1.0) < 1e-10

    def test_shift_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            v = rng.normal(size=8)
            a = rng.uniform(0.1, 10.0)
            c = rng.normal()
            base = normalized(v, ln_params(8))
            shifted = normalized(a * v + c, ln_params(8))
            npt.assert_allclose(shifted, base, atol=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            normalized(np.arange(3.0), ln_params(4))  # gain/bias do not broadcast

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        eps = 1e-5
        for _ in range(10):
            v = rng.normal(size=6)
            gain = rng.normal(size=6)
            bias = rng.normal(size=6)
            d_out = rng.normal(size=6)
            _, cache = layer_norm_fwd(v, gain, bias, eps)
            d_v, d_gain, d_bias = layer_norm_bwd(d_out, gain, cache)

            def loss(vec):
                out, _ = layer_norm_fwd(vec, gain, bias, eps)
                return float(out @ d_out)

            step = 1e-6
            for i in range(6):
                up = v.copy(); up[i] += step
                dn = v.copy(); dn[i] -= step
                num = (loss(up) - loss(dn)) / (2 * step)
                assert abs(num - d_v[i]) < 1e-6
            npt.assert_array_equal(d_bias, d_out)
            vhat = cache[0]
            npt.assert_allclose(d_gain, d_out * vhat)


class TestSoftmax:
    def test_uniform(self):
        npt.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25))

    def test_overflow_guard(self):
        npt.assert_allclose(softmax(np.array([1000.0, 1000.0])), [0.5, 0.5])

    def test_log_ratio(self):
        out = softmax(np.log(np.array([1.0, 3.0])))
        npt.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_shift_invariance_bitwise(self):
        # dyadic values keep v + c exact, so the function itself must match
        # bit for bit under a constant shift
        rng = np.random.default_rng(3)
        v = rng.integers(-64, 64, size=9) / 16.0
        for c in (1.0, -4.5, 100.0, 4096.0):
            npt.assert_array_equal(softmax(v + c), softmax(v))

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            out = softmax(rng.normal(scale=50, size=rng.integers(2, 30)))
            assert abs(out.sum() - 1.0) < 1e-12

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            softmax_inplace(np.array([[0.0, np.nan]]))

    def test_inplace_nan_in_later_row_leaves_buffer(self):
        # NaN is found from the row maxima, before anything is written
        rng = np.random.default_rng(6)
        buf = rng.normal(size=(6, 5))
        buf[4, 2] = np.nan
        before = buf.copy()
        with pytest.raises(ValueError, match="NaN"):
            softmax_inplace(buf)
        npt.assert_array_equal(buf, before)

    def test_inplace_matches(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(7, 5))
        expect = softmax(logits)
        buf = logits.copy()
        out = softmax_inplace(buf)
        assert out is buf
        npt.assert_allclose(buf, expect, atol=1e-15)


class TestMatOps:
    def test_sigmoid_extremes(self):
        out = sigmoid(np.array([-800.0, 0.0, 800.0]))
        npt.assert_allclose(out, [0.0, 0.5, 1.0])
        assert np.isfinite(sigmoid(np.array([-1e6, 1e6]))).all()


class TestParamRegistry:
    def test_duplicate_rejected(self):
        reg = ParamRegistry()
        reg.add("w", np.zeros(3))
        with pytest.raises(ValueError):
            reg.add("w", np.zeros(3))

    def test_grad_buffers(self):
        reg = ParamRegistry()
        p = reg.add("w", np.ones((2, 2)))
        assert p.grad.shape == p.value.shape
        p.grad += 1.0
        reg.zero_grad()
        npt.assert_array_equal(p.grad, np.zeros((2, 2)))

    def test_clip(self):
        reg = ParamRegistry()
        p = reg.add("w", np.zeros(4))
        p.grad[...] = 3.0  # norm 6
        reg.clip_grad_norm(1.5)
        assert abs(reg.grad_global_norm() - 1.5) < 1e-12


class TestGradCheck:
    def test_linear_function(self):
        reg = ParamRegistry()
        a = reg.add("a", np.array([1.0, -2.0, 3.0]))
        b = reg.add("b", np.array([[0.5, 1.5]]))

        def loss():
            a.grad += 1.0
            b.grad += 1.0
            return float(a.value.sum() + b.value.sum())

        assert grad_check(loss, reg, step=1e-5) < 1e-9

    def test_quadratic(self):
        reg = ParamRegistry()
        p = reg.add("p", np.array([0.3, -1.2, 2.0, 0.0]))

        def loss():
            p.grad += p.value
            return float(0.5 * (p.value**2).sum())

        assert grad_check(loss, reg, step=1e-5) < 1e-7

    def test_step_bounds(self):
        reg = ParamRegistry()
        reg.add("p", np.zeros(1))
        with pytest.raises(ValueError):
            grad_check(lambda: 0.0, reg, step=1e-2)

    def test_nonfinite_loss_rejected(self):
        reg = ParamRegistry()
        reg.add("p", np.zeros(1))
        with pytest.raises(ValueError):
            grad_check(lambda: math.inf, reg, step=1e-5)


class TestTensorFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for shape in [(3,), (2, 4), (2, 3, 4)]:
            arr = rng.normal(size=shape)
            buf = io.BytesIO()
            write_tensor(buf, arr)
            buf.seek(0)
            back = read_tensor(buf)
            npt.assert_array_equal(back, arr)
            assert back.dtype == np.float64

    def test_file_round_trip_bytes(self, tmp_path):
        arr = np.random.default_rng(8).normal(size=(5, 6))
        p1 = tmp_path / "a.tkt"
        p2 = tmp_path / "b.tkt"
        save_tensor(p1, arr)
        save_tensor(p2, load_tensor(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self):
        buf = io.BytesIO()
        write_tensor(buf, np.zeros((2, 3)))
        raw = buf.getvalue()
        assert raw[:4] == b"TKT1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:16], "little") == 2
        assert int.from_bytes(raw[16:24], "little") == 3
        assert len(raw) == 24 + 6 * 8

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            read_tensor(io.BytesIO(b"XXXX" + b"\x00" * 20))

    # a (2, 3) tensor file is 4 magic + 4 rank + 16 shape + 48 payload bytes
    @pytest.mark.parametrize("keep,expected,got", [(2, 4, 2), (6, 4, 2), (30, 48, 6)],
                             ids=["magic", "rank", "payload"])
    def test_truncated_file_names_path_and_bytes(self, tmp_path, keep, expected, got):
        path = tmp_path / "cut.tkt"
        save_tensor(path, np.zeros((2, 3)))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match=f"cut.tkt.*expected {expected} bytes, got {got}"):
            load_tensor(path)

    def test_trailing_bytes_name_path(self, tmp_path):
        path = tmp_path / "long.tkt"
        save_tensor(path, np.zeros((2, 3)))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="long.tkt: unexpected bytes after the tensor"):
            load_tensor(path)
