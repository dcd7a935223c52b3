"""Tests for srptrack.tensornet: shape algebra, causality, gradient checks."""

import tracemalloc

import numpy as np
import pytest

from srptrack.errors import ShapeError, SrpTrackError, TapeError
from srptrack.tensornet import (
    Adam,
    CausalConv1d,
    CausalConv3d,
    MaxPoolAxis,
    Parameter,
    PReLU,
    Sequential,
    Tanh,
    euclidean_distance_loss,
    layers,
)

from oracles import conv1d_loop_backward, conv1d_loop_forward, conv3d_im2col_backward, conv3d_im2col_forward


# Finite-difference step for objectives linear in each single element (conv
# weights, biases and inputs): exact up to rounding, with far less rounding
# error than a small step.
LINEAR_STEP = 1.0


def fd_check(layer, x, rng, rtol=1e-4, h=1e-6):
    """Central finite differences with step ``h`` against the layer's
    backward pass (64-bit)."""
    out = layer.forward(x)
    probe = rng.normal(size=out.shape)

    def objective():
        return float(np.sum(layer.forward(x) * probe))

    for p in layer.params():
        p.zero_grad()
    tape = []
    layer.forward(x, tape)
    gx = layer.backward(probe, tape)

    def compare(analytic, array):
        flat = array.reshape(-1)
        ref = analytic.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            jp = objective()
            flat[i] = keep - h
            jm = objective()
            flat[i] = keep
            fd = (jp - jm) / (2.0 * h)
            tol = rtol * max(abs(fd), abs(ref[i]), 1e-6)
            assert abs(fd - ref[i]) <= tol, f"grad mismatch: fd={fd} analytic={ref[i]}"

    compare(gx, x)
    for p in layer.params():
        compare(p.grad, p.value)


def away_from_zero(x, margin=0.05):
    return x + np.where(x >= 0, margin, -margin)


class TestShapeAlgebra:
    def test_conv3d_shapes(self):
        rng = np.random.default_rng(0)
        layer = CausalConv3d(3, 32, (5, 5, 5), rng)
        assert layer.out_shape((3, 103, 16, 32)) == (32, 103, 16, 32)
        with pytest.raises(ShapeError):
            layer.out_shape((4, 10, 16, 32))
        with pytest.raises(ShapeError):
            layer.out_shape((3, 10, 16))

    def test_conv1d_shapes(self):
        rng = np.random.default_rng(0)
        layer = CausalConv1d(128, 3, 5, rng, dilation=2)
        assert layer.out_shape((128, 40)) == (3, 40)
        with pytest.raises(ShapeError):
            layer.out_shape((64, 40))

    def test_maxpool_shapes(self):
        pool = MaxPoolAxis(axis=3, size=2)
        assert pool.out_shape((32, 10, 16, 32)) == (32, 10, 16, 16)
        with pytest.raises(ShapeError):
            pool.out_shape((32, 10, 16, 31))

    def test_prelu_shape_guard(self):
        layer = PReLU(8)
        assert layer.out_shape((8, 4)) == (8, 4)
        with pytest.raises(ShapeError):
            layer.out_shape((4, 4))

    def test_even_spatial_kernel_rejected(self):
        with pytest.raises(ShapeError):
            CausalConv3d(1, 1, (3, 2, 3), np.random.default_rng(0))


class TestForwardSemantics:
    def test_conv3d_identity_kernel(self):
        rng = np.random.default_rng(1)
        layer = CausalConv3d(1, 1, (3, 3, 3), rng, dtype=np.float64)
        layer.w.value[...] = 0.0
        layer.w.value[0, 0, 2, 1, 1] = 1.0  # current time, spatial centre
        layer.b.value[...] = 0.0
        x = rng.normal(size=(1, 6, 4, 5))
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-12)

    def test_conv1d_identity_kernel(self):
        rng = np.random.default_rng(2)
        layer = CausalConv1d(2, 2, 5, rng, dilation=2, dtype=np.float64)
        layer.w.value[...] = 0.0
        for c in range(2):
            layer.w.value[c, c, 4] = 1.0  # newest tap
        layer.b.value[...] = 0.0
        x = rng.normal(size=(2, 9))
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-12)

    def test_conv1d_dilated_reach(self):
        rng = np.random.default_rng(3)
        layer = CausalConv1d(1, 1, 5, rng, dilation=2, dtype=np.float64)
        x = np.zeros((1, 20))
        x[0, 5] = 1.0
        out = layer.forward(x)
        # the impulse at t=5 influences outputs t=5..13 ((k-1)*dilation = 8)
        assert np.all(out[0, :5] == 0.0)
        assert np.all(out[0, 14:] == 0.0)
        assert np.any(out[0, 5:14] != 0.0)

    def test_prelu_values(self):
        layer = PReLU(None, dtype=np.float64)
        x = np.array([[2.0, -2.0]])
        np.testing.assert_allclose(layer.forward(x), [[2.0, -0.5]])
        layer.a.value[...] = 1.0
        np.testing.assert_allclose(layer.forward(x), x)

    def test_maxpool_values(self):
        pool = MaxPoolAxis(axis=0, size=2)
        np.testing.assert_array_equal(pool.forward(np.array([1.0, 3.0, 2.0, 0.0])), [3.0, 2.0])

    def test_maxpool_size_one_identity(self):
        pool = MaxPoolAxis(axis=1, size=1)
        x = np.random.default_rng(4).normal(size=(3, 5))
        np.testing.assert_array_equal(pool.forward(x), x)

    def test_maxpool_gradient_routes_to_single_element(self):
        pool = MaxPoolAxis(axis=1, size=2)
        x = np.array([[1.0, 3.0, 0.5, 0.2]])
        tape = []
        pool.forward(x, tape)
        gx = pool.backward(np.array([[1.0, 1.0]]), tape)
        np.testing.assert_array_equal(gx, [[0.0, 1.0, 1.0, 0.0]])


def _tape_layers():
    """(layer, input) of every kind, in float64."""
    rng = np.random.default_rng(11)
    return [
        (CausalConv3d(2, 3, (2, 3, 3), rng, dtype=np.float64, name="c3"), rng.normal(size=(2, 4, 3, 4))),
        (CausalConv1d(2, 3, 3, rng, dilation=2, dtype=np.float64, name="c1"), rng.normal(size=(2, 6))),
        (PReLU(3, dtype=np.float64, name="act"), rng.normal(size=(3, 4))),
        (MaxPoolAxis(axis=1, size=2, name="pool"), rng.normal(size=(3, 6))),
        (Tanh("squash"), rng.normal(size=(2, 5))),
    ]


class TestTape:
    """Backward state lives on the caller's tape: a forward without one
    keeps nothing, and a backward checks the entry it pops."""

    @pytest.mark.parametrize("index", range(5))
    def test_forward_without_tape_keeps_nothing(self, index):
        layer, x = _tape_layers()[index]
        before = dict(vars(layer))
        layer.forward(x)
        assert vars(layer) == before
        assert not any(isinstance(v, np.ndarray) for v in vars(layer).values())

    @pytest.mark.parametrize("index", range(5))
    def test_backward_needs_its_entry(self, index):
        layer, x = _tape_layers()[index]
        out = layer.forward(x)
        with pytest.raises(TapeError, match=layer.name):
            layer.backward(np.ones_like(out))
        tape = []
        layer.forward(x, tape)
        layer.backward(np.ones_like(out), tape)
        assert tape == []
        with pytest.raises(TapeError, match=layer.name):  # exhausted
            layer.backward(np.ones_like(out), tape)
        assert issubclass(TapeError, SrpTrackError)

    @pytest.mark.parametrize("index", range(5))
    def test_wrong_gradient_shape_names_the_layer(self, index):
        layer, x = _tape_layers()[index]
        tape = []
        out = layer.forward(x, tape)
        for shape in (out.shape[:-1] + (1,), out.shape[:-1] + (out.shape[-1] + 1,), out.shape + (1,)):
            with pytest.raises(ShapeError, match=layer.name):
                layer.backward(np.ones(shape), tape)
        # the rejected gradient left the entry for a right one
        assert layer.backward(np.ones_like(out), tape).shape == x.shape

    def test_entry_of_another_layer_is_refused(self):
        layers = _tape_layers()
        (a, x), (b, _) = layers[2], layers[4]
        tape = []
        out = Sequential(a, b).forward(x, tape)
        with pytest.raises(TapeError, match="act"):
            a.backward(out, tape)

    def test_pool_without_tape_matches_the_pick(self):
        """A tape changes what the pool keeps, never what it computes: with
        and without one the outputs are equal element for element, the sign
        of every 0.0 / -0.0 tie included."""
        rng = np.random.default_rng(12)
        x = rng.integers(-2, 3, size=(12, 12, 12)).astype(np.float32)
        zeros = x == 0
        x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        for axis in range(3):
            for size in range(1, 5):
                pool = MaxPoolAxis(axis=axis, size=size)
                free, taped = pool.forward(x), pool.forward(x, [])
                np.testing.assert_array_equal(taped, free, strict=True)
                np.testing.assert_array_equal(np.signbit(taped), np.signbit(free))

    def test_pool_picks_route_to_the_first_maximum(self):
        x = np.array([[1.0, 3.0, 3.0, 2.0, 5.0, 5.0, 5.0, 0.0]])
        pool = MaxPoolAxis(axis=1, size=4)
        tape = []
        pool.forward(x, tape)
        np.testing.assert_array_equal(pool.backward(np.ones((1, 2)), tape), [[0, 1, 0, 0, 1, 0, 0, 0]])

    def test_pool_size_beyond_one_byte_picks_rejected(self):
        with pytest.raises(ShapeError, match="256"):
            MaxPoolAxis(axis=0, size=257)

    @pytest.mark.parametrize("index", range(5))
    def test_no_input_gradient_keeps_parameter_gradients(self, index):
        layer, x = _tape_layers()[index]
        probe = np.random.default_rng(13).normal(size=layer.out_shape(x.shape))
        grads = []
        for input_grad in (True, False):
            for p in layer.params():
                p.zero_grad()
            tape = []
            layer.forward(x, tape)
            gx = layer.backward(probe, tape, input_grad)
            assert (gx is None) == (not input_grad) and tape == []
            grads.append([p.grad.copy() for p in layer.params()])
        for full, skipped in zip(*grads):
            np.testing.assert_array_equal(skipped, full, strict=True)


class TestCausality:
    @pytest.mark.parametrize("dilation", [1, 2])
    def test_conv1d_future_never_leaks(self, dilation):
        rng = np.random.default_rng(5)
        layer = CausalConv1d(3, 4, 5, rng, dilation=dilation, dtype=np.float64)
        x = rng.normal(size=(3, 24))
        base = layer.forward(x).copy()
        cut = 11
        x2 = x.copy()
        x2[:, cut + 1 :] = rng.normal(size=(3, 24 - cut - 1))
        out2 = layer.forward(x2)
        np.testing.assert_array_equal(out2[:, : cut + 1], base[:, : cut + 1])

    def test_conv3d_future_never_leaks(self):
        rng = np.random.default_rng(6)
        layer = CausalConv3d(2, 3, (5, 3, 3), rng, dtype=np.float64)
        x = rng.normal(size=(2, 12, 4, 6))
        base = layer.forward(x).copy()
        cut = 7
        x2 = x.copy()
        x2[:, cut + 1 :] = rng.normal(size=(2, 12 - cut - 1, 4, 6))
        out2 = layer.forward(x2)
        np.testing.assert_array_equal(out2[:, : cut + 1], base[:, : cut + 1])

    def test_conv3d_perturbation_moves_forward_only(self):
        rng = np.random.default_rng(7)
        layer = CausalConv3d(1, 2, (3, 3, 3), rng, dtype=np.float64)
        x = rng.normal(size=(1, 10, 4, 4))
        base = layer.forward(x).copy()
        t0 = 4
        x2 = x.copy()
        x2[0, t0, 1, 2] += 1.0
        diff = np.abs(layer.forward(x2) - base).sum(axis=(0, 2, 3))
        assert np.all(diff[:t0] == 0.0)
        assert diff[t0] > 0.0


class TestGradients:
    N_INSTANCES = 100

    def test_conv3d_gradients(self):
        rng = np.random.default_rng(10)
        for _ in range(self.N_INSTANCES):
            cin, cout = rng.integers(1, 3, size=2)
            kt = int(rng.integers(1, 3))
            layer = CausalConv3d(int(cin), int(cout), (kt, 3, 3), rng, dtype=np.float64)
            x = rng.normal(size=(int(cin), int(rng.integers(1, 4)), 3, 4))
            fd_check(layer, x, rng, h=LINEAR_STEP)

    def test_conv1d_gradients(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N_INSTANCES):
            cin, cout = rng.integers(1, 4, size=2)
            k = int(rng.integers(1, 4))
            dilation = int(rng.integers(1, 3))
            layer = CausalConv1d(int(cin), int(cout), k, rng, dilation=dilation, dtype=np.float64)
            x = rng.normal(size=(int(cin), int(rng.integers(2, 7))))
            fd_check(layer, x, rng, h=LINEAR_STEP)

    def test_prelu_gradients(self):
        rng = np.random.default_rng(12)
        for _ in range(self.N_INSTANCES):
            channels = int(rng.integers(1, 5))
            per_channel = rng.random() < 0.5
            layer = PReLU(channels if per_channel else None, dtype=np.float64)
            layer.a.value[...] = rng.uniform(0.1, 0.5, size=layer.a.value.shape)
            x = away_from_zero(rng.normal(size=(channels, 3, 4)))
            fd_check(layer, x, rng)

    def test_maxpool_gradients(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N_INSTANCES):
            size = int(rng.integers(1, 4))
            n = size * int(rng.integers(1, 4))
            axis = int(rng.integers(0, 2))
            shape = (n, 6) if axis == 0 else (3, n)
            layer = MaxPoolAxis(axis=axis, size=size)
            x = rng.normal(size=shape)
            fd_check(layer, x, rng)

    def test_tanh_gradients(self):
        rng = np.random.default_rng(14)
        for _ in range(self.N_INSTANCES):
            layer = Tanh()
            x = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 6))))
            fd_check(layer, x, rng)

    def test_loss_gradient(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            pred = rng.normal(size=(3, 7))
            target = rng.normal(size=(3, 7))
            loss, grad = euclidean_distance_loss(pred, target)
            h = 1e-6
            for i in range(3):
                for t in range(7):
                    keep = pred[i, t]
                    pred[i, t] = keep + h
                    jp = euclidean_distance_loss(pred, target)[0]
                    pred[i, t] = keep - h
                    jm = euclidean_distance_loss(pred, target)[0]
                    pred[i, t] = keep
                    fd = (jp - jm) / (2 * h)
                    assert abs(fd - grad[i, t]) <= 1e-4 * max(abs(fd), 1e-6)


class TestLoss:
    def test_perfect_prediction(self):
        x = np.random.default_rng(16).normal(size=(3, 5))
        loss, grad = euclidean_distance_loss(x, x.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_zero_prediction_unit_target(self):
        target = np.zeros((3, 4))
        target[2] = 1.0
        loss, _ = euclidean_distance_loss(np.zeros((3, 4)), target)
        assert loss == pytest.approx(1.0)

    def test_antipodal(self):
        target = np.zeros((3, 4))
        target[0] = 1.0
        loss, _ = euclidean_distance_loss(-target, target)
        assert loss == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            euclidean_distance_loss(np.zeros((3, 4)), np.zeros((3, 5)))


class TestParameter:
    def test_gradient_slot_allocated_on_first_use(self):
        p = Parameter(np.ones((2, 3), dtype=np.float32), "p")
        assert "grad" not in vars(p)
        assert p.grad.shape == (2, 3) and p.grad.dtype == np.float32 and not p.grad.any()
        slot = p.grad
        p.grad += 1.0
        assert p.grad is slot
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, 0.0)
        with pytest.raises(AttributeError):
            p.momentum


class TestAdam:
    def test_first_step_magnitude(self):
        p = Parameter(np.array([1.0]), "p")
        opt = Adam([p], lr=0.1)
        p.grad[:] = 1.0
        opt.step()
        # bias-corrected m_hat = 1, v_hat = 1: step is -lr / (1 + eps)
        assert p.value[0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    def test_zero_gradient_no_change(self):
        p = Parameter(np.array([2.0, -1.0]), "p")
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.value, [2.0, -1.0])

    def test_identical_runs_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(17)
            p = Parameter(rng.normal(size=8), "p")
            opt = Adam([p], lr=0.01)
            for _ in range(25):
                opt.zero_grad()
                p.grad += 2.0 * p.value  # d/dp sum(p^2)
                opt.step()
            return p.value

        np.testing.assert_array_equal(run(), run())

    def test_minimizes_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]), "p")
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            p.grad += 2.0 * p.value
            opt.step()
        assert np.all(np.abs(p.value) < 1e-2)


def _forward_backward(layer, x, probe):
    """(output, input gradient, weight gradient, bias gradient) of one pass."""
    for p in layer.params():
        p.zero_grad()
    tape = []
    out = layer.forward(x, tape)
    gx = layer.backward(probe, tape)
    return out, gx, layer.w.grad, layer.b.grad


def _assert_all_close(got, want, atol):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0, atol=atol)


def _normal(rng, shape, transposed):
    """Normal samples of ``shape`` (channels, time, *space); if ``transposed``,
    a view with time last in memory, like the ones Cross3D.backward passes."""
    if not transposed:
        return rng.normal(size=shape)
    c, t, *space = shape
    return np.moveaxis(rng.normal(size=(c, *space, t)), -1, 1)


class TestTapLoopMatchesOldLayers:
    """The chunked valid-grid correlation against the im2col / per-layer
    loops that the tap loop replaced (kept in tests/oracles.py), float64. The edge cases add what
    Cross3D meets at small grids and in its backward pass: spatial axes
    shorter than the kernel, more input than output channels, and
    non-contiguous inputs and probes."""

    KERNELS_3D = [(1, 1, 1), (2, 3, 3), (3, 1, 5), (5, 3, 3), (5, 5, 5)]

    @staticmethod
    def check_conv3d(kernel, t, in_ch, out_ch, space, transposed):
        rng = np.random.default_rng(sum(kernel) * 10 + t)
        layer = CausalConv3d(in_ch, out_ch, kernel, rng, dtype=np.float64)
        layer.b.value[:] = rng.normal(size=out_ch)
        x = _normal(rng, (in_ch, t, *space), transposed)
        probe = _normal(rng, (out_ch, t, *space), transposed)
        got = _forward_backward(layer, x, probe)
        want = (conv3d_im2col_forward(layer.w.value, layer.b.value, x),
                *conv3d_im2col_backward(layer.w.value, x, probe))
        _assert_all_close(got, want, atol=1e-12)

    @staticmethod
    def check_conv1d(kernel, dilation, t, in_ch, out_ch, transposed):
        rng = np.random.default_rng(kernel * 100 + dilation * 10 + t)
        layer = CausalConv1d(in_ch, out_ch, kernel, rng, dilation=dilation, dtype=np.float64)
        layer.b.value[:] = rng.normal(size=out_ch)
        x = _normal(rng, (in_ch, t), transposed)
        probe = _normal(rng, (out_ch, t), transposed)
        got = _forward_backward(layer, x, probe)
        want = (conv1d_loop_forward(layer.w.value, layer.b.value, x, dilation),
                *conv1d_loop_backward(layer.w.value, x, probe, dilation))
        _assert_all_close(got, want, atol=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS_3D)
    @pytest.mark.parametrize("t", [1, 2, 7])
    def test_conv3d(self, kernel, t):
        self.check_conv3d(kernel, t, 3, 4, (4, 6), False)

    @pytest.mark.parametrize("in_ch, out_ch, space, transposed", [
        (5, 2, (4, 6), False),  # in_ch > out_ch
        (3, 4, (1, 5), False),  # elevation shorter than the kernel, as at 4x8
        (4, 3, (2, 1), False),  # both spatial axes shorter than the kernel
        (4, 3, (2, 8), True),
    ])
    @pytest.mark.parametrize("kernel", KERNELS_3D)
    @pytest.mark.parametrize("t", [1, 7])
    def test_conv3d_edge_cases(self, kernel, t, in_ch, out_ch, space, transposed):
        self.check_conv3d(kernel, t, in_ch, out_ch, space, transposed)

    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("t", [1, 3, 16])
    def test_conv1d(self, kernel, dilation, t):
        self.check_conv1d(kernel, dilation, t, 5, 3, False)

    @pytest.mark.parametrize("in_ch, out_ch, transposed", [(2, 4, False), (4, 3, True)])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("t", [1, 16])
    def test_conv1d_edge_cases(self, kernel, dilation, t, in_ch, out_ch, transposed):
        self.check_conv1d(kernel, dilation, t, in_ch, out_ch, transposed)


class TestChunkBoundaries:
    """Correlations that span several chunks of frames, float64, against the
    same oracles: a chunk holds CHUNK_COLUMNS // (H * W) frames, at least one,
    and reads up to (kt - 1) * dilation frames before it."""

    @pytest.mark.parametrize("kernel", [(5, 3, 3), (3, 1, 5), (2, 3, 3)])
    def test_frames_not_a_multiple_of_the_chunk(self, monkeypatch, kernel):
        monkeypatch.setattr(layers, "CHUNK_COLUMNS", 3 * 24)  # 3 frames of 4x6, T = 7
        TestTapLoopMatchesOldLayers.check_conv3d(kernel, 7, 3, 4, (4, 6), False)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_one_frame_chunks_shorter_than_the_time_history(self, monkeypatch, transposed):
        monkeypatch.setattr(layers, "CHUNK_COLUMNS", 24)  # 1 frame of 4x6 against kt = 5
        TestTapLoopMatchesOldLayers.check_conv3d((5, 3, 3), 7, 3, 4, (4, 6), transposed)

    def test_frame_larger_than_the_column_budget(self):
        space = (2, layers.CHUNK_COLUMNS // 2 + 1)  # one frame exceeds the budget
        TestTapLoopMatchesOldLayers.check_conv3d((2, 3, 3), 3, 2, 2, space, False)

    @pytest.mark.parametrize("dilation", [2, 3])
    @pytest.mark.parametrize("frames", [1, 4])
    def test_dilated_conv1d(self, monkeypatch, dilation, frames):
        monkeypatch.setattr(layers, "CHUNK_COLUMNS", frames)
        TestTapLoopMatchesOldLayers.check_conv1d(5, dilation, 16, 4, 3, False)

    @pytest.mark.parametrize("make", [
        lambda rng: (CausalConv3d(3, 4, (5, 3, 3), rng, dtype=np.float64), (3, 9, 4, 6)),
        lambda rng: (CausalConv3d(2, 3, (3, 5, 1), rng, dtype=np.float64), (2, 6, 5, 3)),
        lambda rng: (CausalConv1d(4, 3, 5, rng, dilation=2, dtype=np.float64), (4, 13)),
    ], ids=["conv3d", "conv3d-width-1-kernel", "conv1d-dilated"])
    def test_one_frame_chunks_match_a_single_chunk(self, monkeypatch, make):
        rng = np.random.default_rng(3)
        layer, shape = make(rng)
        layer.b.value[:] = rng.normal(size=layer.out_ch)
        x = rng.normal(size=shape)
        probe = rng.normal(size=layer.out_shape(shape))
        passes = []
        for columns in (1, 10**9):  # every chunk one frame; one chunk of every frame
            monkeypatch.setattr(layers, "CHUNK_COLUMNS", columns)
            passes.append([a.copy() for a in _forward_backward(layer, x, probe)])
        _assert_all_close(*passes, atol=1e-12)


def test_conv3d_peak_memory_stays_a_few_inputs():
    """A branch-sized layer's forward plus backward allocates a few copies of
    its input, not a (in_ch * 45) x (T * H * W) im2col matrix."""
    rng = np.random.default_rng(0)
    layer = CausalConv3d(32, 32, (5, 3, 3), rng)
    x = rng.normal(size=(32, 20, 16, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        tape = []
        out = layer.forward(x, tape)
        layer.backward(np.ones_like(out), tape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * x.nbytes, f"peak {peak / x.nbytes:.1f} x the input"
