"""Layers with exact forward/backward rules.

Shape conventions (no batch axis; training loops over samples):
  conv3d: (channels, time, elevation, azimuth)
  conv1d: (channels, time)

Backward state belongs to the call, not the layer. ``forward(x, tape)``
appends one entry per layer to ``tape``, a list, holding the layer, its
output shape and what its backward needs; ``backward(grad_out, tape)`` pops
those entries in reverse. Without a tape a forward keeps nothing, so an
inference pass frees each activation once the next layer has run; with or
without one it computes the same output.

Both convolutions are one class body, ``_CausalConv``, generic in the
number of spatial axes; ``CausalConv3d`` and ``CausalConv1d`` only name its
kernel and bind its ``forward`` and ``backward`` as their own, one line
each. They share one correlation core on the valid grid. The output frames
are walked in chunks of at most CHUNK_COLUMNS output columns (frames times
spatial positions, at least one frame). A chunk's patches are an im2col over
every spatial kernel axis: one row per (input channel, spatial tap), one
column per (frame, *space), with zeros where a tap reads past a spatial
border, so odd spatial kernels keep each size. The patches also hold the
(kt-1)*dilation frames before the chunk, zeros before frame 0, so the output
at frame t only sees inputs at frames <= t. Each time tap is then one column
offset into the patches, and a chunk is kt matrix products summed into its
columns of the output: nothing is computed on padding and nothing is
cropped. Conv1d has no spatial axes; its patches stack its time taps
instead, so a chunk is one product with the weights as stored.

Backward: the weight gradient of each column offset is the sum over chunks
of the patches' columns at that offset times the chunk's output gradient,
channels last. The input gradient is the adjoint of the forward correlation, and it
reuses it: the output gradient reversed along time and every spatial axis,
correlated causally with input and output channels swapped, then reversed
back. Reversal turns the history before the frames into history after them
and mirrors each kernel tap, while the zero border is its own mirror; a
backward asked for no input gradient skips it.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeError, TapeError

PRELU_INIT = 0.25


class Parameter:
    """A learnable array with a gradient slot of the same shape. The slot is
    zero-filled the first time ``grad`` is read, so a model that only runs
    forward, such as one loaded to track, never holds one."""

    def __init__(self, value: np.ndarray, name: str):
        self.value = value
        self.name = name

    def __getattr__(self, attr):
        # reached only while ``grad`` is unset: instance attributes win
        if attr != "grad":
            raise AttributeError(attr)
        self.grad = np.zeros_like(self.value)
        return self.grad

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Layer:
    """Base layer: parameters plus forward/backward/out_shape.

    ``forward(x, tape=None)`` records on ``tape`` what ``backward`` needs.
    ``backward(grad_out, tape, input_grad=True)`` accumulates the parameter
    gradients and returns the input gradient, or None if ``input_grad`` is
    false."""

    def params(self) -> list[Parameter]:
        return []

    def out_shape(self, in_shape: tuple) -> tuple:
        raise NotImplementedError

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, tape: list | None = None,
                 input_grad: bool = True) -> np.ndarray | None:
        raise NotImplementedError

    def _record(self, tape, out, *saved):
        """Return ``out``; on a tape, first append this call's entry."""
        if tape is not None:
            tape.append((self, out.shape, saved))
        return out

    def _replay(self, grad_out, tape):
        """Pop and return what this layer's forward saved on ``tape``, after
        checking that the entry is this layer's and fits ``grad_out``."""
        if not tape:
            raise TapeError(f"{self.name}: backward needs the tape of a forward that kept one")
        layer, shape, saved = tape[-1]
        if layer is not self:
            raise TapeError(f"{self.name}: the tape's last entry is {layer.name}'s")
        if grad_out.shape != shape:
            raise ShapeError(f"{self.name}: gradient {grad_out.shape} for output {shape}")
        tape.pop()
        return saved


def _he_weights(rng: np.random.Generator | None, shape: tuple, dtype) -> np.ndarray:
    """He-normal (out_ch, in_ch, *kernel) weights, with the PReLU gain of the
    reference initialization. When ``rng`` is None, read-only zeros that
    allocate nothing, for a checkpoint load to replace."""
    if rng is None:
        return np.broadcast_to(np.zeros((), dtype), shape)
    std = math.sqrt(2.0 / ((1.0 + PRELU_INIT**2) * math.prod(shape[1:])))
    return rng.normal(0.0, std, shape).astype(dtype)


# Output columns (frames times spatial positions) per chunk of a correlation.
# On 2 cores a Cross3D 16x32 forward ran 11 % faster at 4096 than at 2048 and
# no faster at 8192, where a branch layer's patches (7 MB at 4096) double.
CHUNK_COLUMNS = 4096


def _axis_window(size, k, j):
    """(output slice, input slice) along one spatial axis of size ``size`` for
    tap ``j`` of an odd kernel ``k`` centred on each output position; both are
    empty where the tap only reads padding."""
    shift = j - k // 2  # output position i reads input i + shift
    lo = max(0, -shift)
    hi = max(lo, min(size, size - shift))
    return slice(lo, hi), slice(lo + shift, hi + shift)


def _stacked(kernel):
    """How many time taps the patch rows stack. One for a kernel with spatial
    axes, so a conv3d's patches stay one im2col over space; every one for a
    conv1d, whose patches are small and its weights large, so its product
    reads the weights as stored instead of strided per-tap slices."""
    return 1 if len(kernel) > 1 else kernel[0]


def _chunks(x, kernel, dilation):
    """Walk the output frames of a causal correlation of ``x`` (C, time,
    *space) with a (time, *space) ``kernel`` in chunks of at most
    CHUNK_COLUMNS output columns (at least one frame); yield each chunk's first
    frame, its frame count n and its patches' n * prod(space) columns at each
    column offset.

    The patches are a (C * g * prod(kernel[1:]), (n + history) * prod(space))
    im2col over the g = _stacked(kernel) last time taps and every spatial
    kernel axis on the valid grid, rows ordered (channel, time tap, spatial
    tap), columns (frame, *space), with history = (kernel[0] - g) * dilation
    frames before the chunk: zeros where a tap reads past a spatial border or
    before frame 0. Each group of g time taps is then one column offset, a
    multiple of g * dilation * prod(space). One buffer serves every chunk, so
    the columns are valid only until the next chunk is yielded."""
    c, t, *space = x.shape
    kt, *ks = kernel
    group = _stacked(kernel)
    size = math.prod(space)
    history = (kt - group) * dilation
    frames = min(t, max(1, CHUNK_COLUMNS // size))
    # zeros once: a chunk writes every column it reads, apart from the
    # spatial borders and the frames before 0, which no chunk ever writes
    buf = np.zeros((c, group, *ks, frames + history, *space), x.dtype)
    patches = buf.reshape(c * group * math.prod(ks), -1)
    step = group * dilation * size  # columns between column offsets
    rows = []
    for g in range(group):
        lag = (kt - 1 - g) * dilation  # column frame l reads input frame t0 + l - lag
        for tap in np.ndindex(*ks):
            pairs = [_axis_window(m, k, j) for m, k, j in zip(space, ks, tap)]
            rows.append(((slice(None), g, *tap), lag, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)))
    for t0 in range(0, t, frames):
        n = min(frames, t - t0)
        hi = n + history
        for row, lag, dst, src in rows:
            lo = min(max(0, lag - t0), hi)
            buf[(*row, slice(lo, hi), *dst)] = x[(slice(None), slice(t0 - lag + lo, t0 - lag + hi), *src)]
        yield t0, n, [patches[:, a * step:a * step + n * size] for a in range(kt // group)]


def _correlate(x, w, dilation):
    """Causally correlate ``x`` (in_ch, time, *space) with ``w`` (out_ch,
    in_ch, *kernel), no bias: for each chunk of frames, one matrix product per
    column offset of the chunk's patches, summed into the chunk's columns of
    the (out_ch, time, *space) output."""
    out_ch, in_ch, kt, *_ = w.shape
    t, *space = x.shape[1:]
    size = math.prod(space)
    offsets = kt // _stacked(w.shape[2:])
    taps = w.reshape(out_ch, in_ch, offsets, -1).transpose(2, 0, 1, 3).reshape(offsets, out_ch, -1)
    out = np.empty((out_ch, t * size), np.result_type(x, w))
    for t0, n, cols in _chunks(x, w.shape[2:], dilation):
        chunk = out[:, t0 * size:(t0 + n) * size]
        np.matmul(taps[0], cols[0], out=chunk)
        for tap, col in zip(taps[1:], cols[1:]):
            chunk += tap @ col
    return out.reshape(out_ch, t, *space)


def _weight_gradient(x, grad_out, shape, dilation):
    """The gradient of weights of ``shape`` (out_ch, in_ch, *kernel) from the
    correlation's input ``x`` and output gradient ``grad_out``: for each
    column offset, the sum over chunks of the patches' columns at that offset
    times the chunk's output gradient."""
    out_ch, in_ch, kt, *_ = shape
    size = math.prod(x.shape[2:])
    offsets = kt // _stacked(shape[2:])
    gw = np.zeros((offsets, in_ch * math.prod(shape[2:]) // offsets, out_ch), np.result_type(x, grad_out))
    for t0, n, cols in _chunks(x, shape[2:], dilation):
        # the chunk's output gradient channels last: a (n, out_ch) right
        # operand multiplies about twice as fast as its transposed view
        d = np.moveaxis(grad_out[:, t0:t0 + n], 0, -1).reshape(n * size, out_ch)
        for g, col in zip(gw, cols):
            g += col @ d
    return gw.reshape(offsets, in_ch, -1, out_ch).transpose(3, 1, 0, 2).reshape(shape)


class _CausalConv(Layer):
    """Causal convolution over (channels, time, *space) with a (time,
    *space) ``kernel_shape``; odd spatial kernels keep each spatial size."""

    def __init__(self, in_ch, out_ch, kernel_shape, rng, dilation, dtype, name):
        if any(k % 2 == 0 for k in kernel_shape[1:]):
            raise ShapeError("spatial kernel sizes must be odd to preserve shape")
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.dilation = dilation
        self.name = name
        self.w = Parameter(_he_weights(rng, (out_ch, in_ch, *kernel_shape), dtype), f"{name}.w")
        self.b = Parameter(np.zeros(out_ch, dtype=dtype), f"{name}.b")

    def params(self):
        return [self.w, self.b]

    def out_shape(self, in_shape):
        rank = self.w.value.ndim - 2
        if len(in_shape) != rank + 1:
            layout = ", ".join("CTHW"[:rank + 1])
            raise ShapeError(f"{self.name}: expected ({layout}), got {in_shape}")
        c, *rest = in_shape
        if c != self.in_ch:
            raise ShapeError(f"{self.name}: expected {self.in_ch} input channels, got {c}")
        if min(rest) < 1:
            raise ShapeError(f"{self.name}: empty input {in_shape}")
        return (self.out_ch, *rest)

    def forward(self, x, tape=None):
        self.out_shape(x.shape)
        out = _correlate(x, self.w.value, self.dilation)
        out += self.b.value.reshape(-1, *(1,) * (x.ndim - 1))
        return self._record(tape, out, x)

    def backward(self, grad_out, tape=None, input_grad=True):
        """Accumulate the weight and bias gradients; return the input gradient."""
        x, = self._replay(grad_out, tape)
        w = self.w.value
        self.b.grad += grad_out.sum(axis=tuple(range(1, grad_out.ndim)))
        self.w.grad += _weight_gradient(x, grad_out, w.shape, self.dilation)
        del x  # the tape's input, freed before the input gradient's buffers
        if not input_grad:
            return None
        reverse = (slice(None),) + (slice(None, None, -1),) * (grad_out.ndim - 1)
        return _correlate(grad_out[reverse], w.swapaxes(0, 1), self.dilation)[reverse]


# Each rank binds the shared forward and backward as its own attributes:
# perfbench's tracer wraps only the methods a class defines itself, and so
# times each rank apart.
class CausalConv3d(_CausalConv):
    def __init__(self, in_ch: int, out_ch: int, kernel: tuple[int, int, int],
                 rng: np.random.Generator | None, dtype=np.float32, name: str = "conv3d"):
        kt, kh, kw = kernel
        self.kernel = (kt, kh, kw)
        super().__init__(in_ch, out_ch, self.kernel, rng, 1, dtype, name)

    forward, backward = _CausalConv.forward, _CausalConv.backward


class CausalConv1d(_CausalConv):
    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator | None,
                 dilation: int = 1, dtype=np.float32, name: str = "conv1d"):
        self.kernel = kernel
        super().__init__(in_ch, out_ch, (kernel,), rng, dilation, dtype, name)

    forward, backward = _CausalConv.forward, _CausalConv.backward


class PReLU(Layer):
    """y = x for x >= 0 else a*x. ``a`` holds one slope per channel, or, with
    ``n_channels`` None, one shared slope of shape (); both run one rule, the
    slopes laid along the channel axis."""

    def __init__(self, n_channels: int | None, dtype=np.float32, name: str = "prelu"):
        self.name = name
        shape = () if n_channels is None else (n_channels,)
        self.a = Parameter(np.full(shape, PRELU_INIT, dtype=dtype), f"{name}.a")

    def params(self):
        return [self.a]

    def out_shape(self, in_shape):
        if self.a.size not in (1, in_shape[0]):
            raise ShapeError(f"{self.name}: {self.a.size} slopes vs {in_shape[0]} channels")
        return in_shape

    def _slopes(self, ndim):
        return self.a.value.reshape((-1,) + (1,) * (ndim - 1))

    def forward(self, x, tape=None):
        self.out_shape(x.shape)
        neg = x < 0
        return self._record(tape, np.where(neg, self._slopes(x.ndim) * x, x), neg, x)

    def backward(self, grad_out, tape=None, input_grad=True):
        neg, x = self._replay(grad_out, tape)
        masked = np.where(neg, grad_out * x, 0.0)
        self.a.grad += masked.reshape(self.a.size, -1).sum(axis=1).reshape(self.a.value.shape)
        if not input_grad:
            return None
        return np.where(neg, self._slopes(grad_out.ndim) * grad_out, grad_out)


class MaxPoolAxis(Layer):
    """Non-overlapping max over one axis; never applied to the time axis. A
    forward computes the same output with or without a tape; on one it also
    keeps, in one byte, which element of each group the backward routes to."""

    def __init__(self, axis: int, size: int, name: str = "maxpool"):
        if not 1 <= size <= 256:
            raise ShapeError(f"pool size must be in [1, 256], as each pick takes one byte; got {size}")
        self.axis = axis
        self.size = size
        self.name = name

    def out_shape(self, in_shape):
        if self.axis >= len(in_shape):
            raise ShapeError(f"{self.name}: axis {self.axis} out of range for {in_shape}")
        if in_shape[self.axis] % self.size != 0:
            raise ShapeError(
                f"{self.name}: axis length {in_shape[self.axis]} not divisible by {self.size}"
            )
        out = list(in_shape)
        out[self.axis] //= self.size
        return tuple(out)

    def forward(self, x, tape=None):
        self.out_shape(x.shape)
        # the running maximum of each group's strided lanes, many times faster than a
        # reduction over a short axis; on a tape, each pick is the last lane strictly
        # above the maximum before it, so a tie keeps the earlier lane, as argmax does
        lanes = [x[(slice(None),) * self.axis + (slice(i, None, self.size),)] for i in range(self.size)]
        out, picks = lanes[0], np.zeros(lanes[0].shape, np.uint8)
        for i, lane in enumerate(lanes[1:], 1):
            if tape is not None:
                above = lane > out
                picks = above.view(np.uint8) if i == 1 else np.where(above, i, picks)
            out = np.maximum(out, lane)
        return self._record(tape, out, np.expand_dims(picks, self.axis + 1))

    def backward(self, grad_out, tape=None, input_grad=True):
        picks, = self._replay(grad_out, tape)
        if not input_grad:
            return None
        a = self.axis
        grouped = np.zeros(grad_out.shape[:a + 1] + (self.size,) + grad_out.shape[a + 1:], dtype=grad_out.dtype)
        np.put_along_axis(grouped, picks, np.expand_dims(grad_out, a + 1), axis=a + 1)
        return grouped.reshape(grad_out.shape[:a] + (-1,) + grad_out.shape[a + 1:])


class Sequential(Layer):
    """Layers run in order; backward runs them in reverse order, and only
    the first is asked for no input gradient. Its layers keep the entries on
    the tape; it keeps none of its own."""

    def __init__(self, *layers: Layer):
        self.layers = layers

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def out_shape(self, in_shape):
        for layer in self.layers:
            in_shape = layer.out_shape(in_shape)
        return in_shape

    def forward(self, x, tape=None):
        for layer in self.layers:
            x = layer.forward(x, tape)
        return x

    def backward(self, grad_out, tape=None, input_grad=True):
        first, *rest = self.layers
        for layer in reversed(rest):
            grad_out = layer.backward(grad_out, tape)
        return first.backward(grad_out, tape, input_grad)


class Tanh(Layer):
    def __init__(self, name: str = "tanh"):
        self.name = name

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, tape=None):
        y = np.tanh(x)
        return self._record(tape, y, y)

    def backward(self, grad_out, tape=None, input_grad=True):
        y, = self._replay(grad_out, tape)
        if not input_grad:
            return None
        return grad_out * (1.0 - y**2)


def euclidean_distance_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over frames of the Euclidean distance between 3-vector columns.

    Returns (loss, d loss / d pred). The gradient at exactly zero distance is
    defined as 0.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    diff = pred - target
    norms = np.linalg.norm(diff, axis=0)
    t = pred.shape[1]
    loss = float(norms.mean())
    safe = np.where(norms > 0, norms, 1.0)
    grad = np.where(norms > 0, diff / (safe * t), 0.0)
    return loss, grad.astype(pred.dtype)
