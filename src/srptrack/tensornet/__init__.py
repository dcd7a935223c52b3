"""Minimal dense-tensor NN core: exactly the layers the trackers need.

Tensors are plain numpy arrays (row-major, float32 in production paths,
float64 for gradient checking). Every layer implements ``params``,
``forward``, ``backward`` (exact reverse-mode) and ``out_shape`` (total shape
algebra that raises ShapeError before any numeric work). ``Sequential`` is a
layer made of layers: it chains their shapes and forward passes in order and
their backward passes in reverse, so a model declares each layer once.
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
