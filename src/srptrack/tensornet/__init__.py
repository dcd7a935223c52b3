"""Minimal dense-tensor NN core: exactly the layers the trackers need.

Tensors are plain numpy arrays (row-major, float32 in production paths,
float64 for gradient checking). Every layer implements ``params``,
``forward``, ``backward`` (exact reverse-mode) and ``out_shape`` (total shape
algebra that raises ShapeError before any numeric work). ``Sequential`` is a
layer made of layers: it chains their shapes and forward passes in order and
their backward passes in reverse, so a model declares each layer once.

A layer holds only its parameters. ``forward(x, tape)`` appends to the
list ``tape`` what the backward pass needs, with the output's shape;
``backward(grad_out, tape)`` pops it, and raises ShapeError for a gradient
of another shape and TapeError when the tape holds no entry of this layer.
A forward without a tape, as in tracking, keeps nothing, and computes the
same output as one with a tape, bit for bit. ``backward(...,
input_grad=False)`` skips the first layer's input gradient, which training
never reads.
"""

from .layers import (
    CausalConv1d,
    CausalConv3d,
    Layer,
    MaxPoolAxis,
    Parameter,
    PReLU,
    Sequential,
    Tanh,
    euclidean_distance_loss,
)
from .optim import Adam

__all__ = [
    "Adam",
    "CausalConv1d",
    "CausalConv3d",
    "Layer",
    "MaxPoolAxis",
    "PReLU",
    "Parameter",
    "Sequential",
    "Tanh",
    "euclidean_distance_loss",
]
