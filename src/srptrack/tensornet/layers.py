"""Layers with exact forward/backward rules.

Shape conventions (no batch axis; training loops over samples):
  conv3d: (channels, time, elevation, azimuth)
  conv1d: (channels, time)

Both convolutions are one class body, ``_CausalConv``, generic in the
number of spatial axes; ``CausalConv3d`` and ``CausalConv1d`` only name its
kernel. They share one flat padded layout. Each input channel is
zero-padded and flattened into one row: time gets (kt-1)*dilation zeros
before its first frame, so the output at frame t only sees inputs at frames
<= t; each spatial axis gets (k-1)/2 zeros on both sides, which preserves its
size; a zero tail ends the row. Every kernel tap is then a fixed offset into
that row. The row's copies shifted by each tap of the last kernel axis are
stacked into one (in_ch * kw, span) operand, so every other tap is one matrix
product with a contiguous slice of it, and conv1d, whose last axis is time,
is a single product. Outputs are computed on the padded grid and the pad
columns are cropped once.

Backward: the weight gradient of each tap outside the last kernel axis is
one product of a stack slice and the output gradient laid on the padded grid,
with the stack rebuilt from the stored input. The input gradient is the same
correlation run on the output
gradient, with the kernel flipped on every axis, input and output channels
swapped, and time padded after the frames instead of before.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeError

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
    """Base layer: parameters plus forward/backward/out_shape."""

    def params(self) -> list[Parameter]:
        return []

    def out_shape(self, in_shape: tuple) -> tuple:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _he_weights(rng: np.random.Generator | None, shape: tuple, dtype) -> np.ndarray:
    """He-normal (out_ch, in_ch, *kernel) weights, with the PReLU gain of the
    reference initialization. When ``rng`` is None, read-only zeros that
    allocate nothing, for a checkpoint load to replace."""
    if rng is None:
        return np.broadcast_to(np.zeros((), dtype), shape)
    std = math.sqrt(2.0 / ((1.0 + PRELU_INIT**2) * math.prod(shape[1:])))
    return rng.normal(0.0, std, shape).astype(dtype)


def _stack(x, kernel, dilation, causal):
    """Zero-pad ``x`` (C, time, *space) into one flat row per channel, time
    padded before its frames if ``causal`` and after them otherwise, and
    stack the row's copies shifted by each tap of the last kernel axis into
    one (C * kw, span) operand, rows ordered (channel, tap). Also returns the
    flat offset of every other tap, the number of output positions on the
    padded grid, and that grid."""
    c, t, *space = x.shape
    grid = (t + (kernel[0] - 1) * dilation, *(n + k - 1 for n, k in zip(space, kernel[1:])))
    steps = [math.prod(grid[i + 1:]) for i in range(len(grid))]
    steps[0] *= dilation
    offsets = [sum(i * s for i, s in zip(tap, steps)) for tap in np.ndindex(*kernel[:-1])]
    n = t * math.prod(grid[1:])
    span = n + offsets[-1]
    rows = np.zeros((c, span + (kernel[-1] - 1) * steps[-1]), x.dtype)
    lead = grid[0] - t if causal else 0
    inner = [slice(lead, lead + t)] + [slice(k // 2, k // 2 + m) for k, m in zip(kernel[1:], space)]
    rows[:, :math.prod(grid)].reshape(c, *grid)[(slice(None), *inner)] = x
    stack = np.empty((c, kernel[-1], span), x.dtype)
    for j in range(kernel[-1]):
        stack[:, j] = rows[:, j * steps[-1]:j * steps[-1] + span]
    return stack.reshape(-1, span), offsets, n, grid


def _correlate(x, w, dilation, causal=True):
    """Correlate ``x`` (in_ch, time, *space) with ``w`` (out_ch, in_ch,
    *kernel), no bias: one matrix product per tap outside the last kernel
    axis, on a contiguous slice of the stack, computed on the padded grid and
    cropped to (out_ch, time, *space) once."""
    out_ch, in_ch, *kernel = w.shape
    stack, offsets, n, grid = _stack(x, kernel, dilation, causal)
    taps = w.reshape(out_ch, in_ch, len(offsets), -1).transpose(2, 0, 1, 3).reshape(len(offsets), out_ch, -1)
    out = taps[0] @ stack[:, :n]
    for tap, offset in zip(taps[1:], offsets[1:]):
        out += tap @ stack[:, offset:offset + n]
    return out.reshape(out_ch, x.shape[1], *grid[1:])[(..., *(slice(s) for s in x.shape[2:]))]


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

    def _conv_forward(self, x):
        self.out_shape(x.shape)
        self._x = x
        return _correlate(x, self.w.value, self.dilation) + self.b.value.reshape(-1, *(1,) * (x.ndim - 1))

    def _conv_backward(self, grad_out):
        """Accumulate the weight and bias gradients; return the input gradient."""
        w = self.w.value
        out_ch, in_ch, *kernel = w.shape
        self.b.grad += grad_out.sum(axis=tuple(range(1, grad_out.ndim)))
        stack, offsets, n, grid = _stack(self._x, kernel, self.dilation, True)
        # the output gradient on the padded grid, channels last: a (n, out_ch)
        # right operand multiplies about twice as fast as its transposed view
        d = np.zeros((grad_out.shape[1], *grid[1:], out_ch), grad_out.dtype)
        d[(slice(None), *(slice(s) for s in grad_out.shape[2:]))] = np.moveaxis(grad_out, 0, -1)
        d = d.reshape(n, out_ch)
        gw = np.stack([stack[:, offset:offset + n] @ d for offset in offsets])
        self.w.grad += gw.reshape(len(offsets), in_ch, -1, out_ch).transpose(3, 1, 0, 2).reshape(w.shape)
        del stack, d, gw  # freed before the input gradient builds its own stack
        flipped = np.flip(w, axis=tuple(range(2, w.ndim))).swapaxes(0, 1)
        return _correlate(grad_out, flipped, self.dilation, causal=False)


# Each rank keeps forward and backward in its own body: perfbench's tracer
# wraps only the methods a class defines itself, and times each rank apart.
class CausalConv3d(_CausalConv):
    def __init__(self, in_ch: int, out_ch: int, kernel: tuple[int, int, int],
                 rng: np.random.Generator | None, dtype=np.float32, name: str = "conv3d"):
        kt, kh, kw = kernel
        self.kernel = (kt, kh, kw)
        super().__init__(in_ch, out_ch, self.kernel, rng, 1, dtype, name)

    def forward(self, x):
        return self._conv_forward(x)

    def backward(self, grad_out):
        return self._conv_backward(grad_out)


class CausalConv1d(_CausalConv):
    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator | None,
                 dilation: int = 1, dtype=np.float32, name: str = "conv1d"):
        self.kernel = kernel
        super().__init__(in_ch, out_ch, (kernel,), rng, dilation, dtype, name)

    def forward(self, x):
        return self._conv_forward(x)

    def backward(self, grad_out):
        return self._conv_backward(grad_out)


class PReLU(Layer):
    """y = x for x >= 0 else a*x, with one slope per channel or one shared."""

    def __init__(self, n_channels: int | None, dtype=np.float32, name: str = "prelu"):
        self.per_channel = n_channels is not None
        self.name = name
        shape = (n_channels,) if self.per_channel else ()
        self.a = Parameter(np.full(shape, PRELU_INIT, dtype=dtype), f"{name}.a")

    def params(self):
        return [self.a]

    def out_shape(self, in_shape):
        if self.per_channel and in_shape[0] != self.a.value.shape[0]:
            raise ShapeError(f"{self.name}: {self.a.value.shape[0]} slopes vs {in_shape[0]} channels")
        return in_shape

    def _slopes(self, ndim):
        if not self.per_channel:
            return self.a.value
        return self.a.value.reshape((-1,) + (1,) * (ndim - 1))

    def forward(self, x):
        self.out_shape(x.shape)
        self._neg = x < 0
        self._x = x
        return np.where(self._neg, self._slopes(x.ndim) * x, x)

    def backward(self, grad_out):
        masked = np.where(self._neg, grad_out * self._x, 0.0)
        if self.per_channel:
            self.a.grad += masked.reshape(masked.shape[0], -1).sum(axis=1)
        else:
            self.a.grad += masked.sum()
        return np.where(self._neg, self._slopes(grad_out.ndim) * grad_out, grad_out)


class MaxPoolAxis(Layer):
    """Non-overlapping max over one axis; never applied to the time axis."""

    def __init__(self, axis: int, size: int, name: str = "maxpool"):
        if size < 1:
            raise ShapeError("pool size must be >= 1")
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

    def forward(self, x):
        self.out_shape(x.shape)
        moved = np.moveaxis(x, self.axis, -1)
        self._moved_shape = moved.shape
        grouped = moved.reshape(moved.shape[:-1] + (moved.shape[-1] // self.size, self.size))
        self._argmax = grouped.argmax(axis=-1)
        out = np.take_along_axis(grouped, self._argmax[..., None], axis=-1)[..., 0]
        return np.moveaxis(out, -1, self.axis)

    def backward(self, grad_out):
        gmoved = np.moveaxis(grad_out, self.axis, -1)
        grouped = np.zeros(gmoved.shape[:-1] + (gmoved.shape[-1], self.size), dtype=grad_out.dtype)
        np.put_along_axis(grouped, self._argmax[..., None], gmoved[..., None], axis=-1)
        return np.moveaxis(grouped.reshape(self._moved_shape), -1, self.axis)


class Sequential(Layer):
    """Layers run in order; backward runs them in reverse order."""

    def __init__(self, *layers: Layer):
        self.layers = layers

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def out_shape(self, in_shape):
        for layer in self.layers:
            in_shape = layer.out_shape(in_shape)
        return in_shape

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out):
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


class Tanh(Layer):
    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out):
        return grad_out * (1.0 - self._y**2)


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
