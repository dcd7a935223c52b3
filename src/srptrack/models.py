"""The Cross3D tracker, its 1D-CNN baselines, training and checkpoints.

Cross3D consumes the 3 x T x Ntheta x Nphi input of ``features_from`` with a 3D stem, two
parallel convolutional branches that pool perpendicular spherical axes (so
each branch keeps positional information about the other axis), and a causal
dilated 1D head that maps the concatenated per-frame features to a unit
vector pointing at the source.

The baselines share the head idea: seven causal 1D convolutions over either
the per-frame map-maximum coordinates or the stacked pairwise GCC values.

Every model declares its layers once, as ``tensornet.Sequential`` chains
(Cross3D: ``stem``, one per branch, ``head``); the chains give the parameters
in checkpoint order, the feature widths, and the forward and backward passes.
A model holds only its weights: backward state lives on the tape that
``train`` passes to ``forward``, and tracking passes none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import artifact
from .errors import FormatError, ShapeError
from .geometry import MicArray, SphericalGrid, delay_table
from .scenegen import SceneConfig, sample_rng, synthesize_trajectory_sample, synthetic_source
from .srpfeat import (FramingConfig, InputTensor, compute_input_tensor, default_lag_range, gcc_set,
                      windowed_frames)
from .tensornet import (Adam, CausalConv1d, CausalConv3d, MaxPoolAxis, PReLU, Sequential, Tanh,
                        euclidean_distance_loss)

_CKPT_MAGIC = b"SSTC"
_CKPT_VERSION = 1

STEM_CHANNELS = 32
HEAD_CHANNELS = 128
BASELINE_CHANNELS = (1024, 512, 512, 512, 512, 128, 3)
MODEL_KINDS = ("cross3d", "baseline-max", "baseline-gcc")


def branch_depth(n_theta: int, n_phi: int) -> int:
    """Pooling layers per branch: 4, or fewer when the grid is small."""
    smallest = min(n_theta, n_phi)
    return min(4, smallest.bit_length() - 1)


class Cross3D:
    """Two-branch causal 3D CNN over power-map sequences: ``stem``, one
    sequence per branch, ``head``. Its weights are drawn from ``rng``; when
    ``rng`` is None they are read-only zeros, for a checkpoint load to replace."""

    kind = "cross3d"

    def __init__(self, n_theta: int, n_phi: int, rng: np.random.Generator | None, dtype=np.float32):
        if n_theta < 2 or n_phi < 2:
            raise ShapeError("grid must be at least 2 x 2")
        self.n_theta = n_theta
        self.n_phi = n_phi
        self.depth = branch_depth(n_theta, n_phi)
        self.dtype = dtype

        self.stem = Sequential(CausalConv3d(3, STEM_CHANNELS, (5, 5, 5), rng, dtype, "stem"),
                               PReLU(STEM_CHANNELS, dtype, "stem_act"))
        self.branches = []
        # branch a pools azimuth, branch b pools elevation
        for axis, tag in ((3, "a"), (2, "b")):
            layers = []
            for i in range(self.depth):
                name = f"branch_{tag}{i}"
                layers += [CausalConv3d(STEM_CHANNELS, STEM_CHANNELS, (5, 3, 3), rng, dtype, name),
                           PReLU(STEM_CHANNELS, dtype, f"{name}_act"),
                           MaxPoolAxis(axis=axis, size=2, name=f"{name}_pool")]
            self.branches.append(Sequential(*layers))
        # features per frame: each branch's channels x pooled grid, side by side;
        # a grid the branches cannot pool raises ShapeError here
        one_frame = self.stem.out_shape((3, 1, n_theta, n_phi))
        self._pooled = [(c, h, w) for c, _, h, w in (branch.out_shape(one_frame) for branch in self.branches)]
        widths = [math.prod(shape) for shape in self._pooled]
        self._split = widths[0]
        self.head = Sequential(
            CausalConv1d(sum(widths), HEAD_CHANNELS, 5, rng, dilation=2, dtype=dtype, name="mix"),
            PReLU(None, dtype, "mix_act"),
            CausalConv1d(HEAD_CHANNELS, 3, 5, rng, dilation=2, dtype=dtype, name="head"),
            Tanh("head_act"),
        )

    def parameters(self):
        return [p for seq in (self.stem, *self.branches, self.head) for p in seq.params()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    @property
    def spec(self) -> dict:
        return {"n_theta": self.n_theta, "n_phi": self.n_phi}

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """(3, T) raw outputs. With a ``tape``, each layer appends to it what
        ``backward`` needs; without one, nothing is kept."""
        if x.shape[0] != 3 or x.shape[2:] != (self.n_theta, self.n_phi):
            raise ShapeError(f"expected (3, T, {self.n_theta}, {self.n_phi}), got {x.shape}")
        h = self.stem.forward(np.ascontiguousarray(x, dtype=self.dtype), tape)
        ys = [branch.forward(h, tape) for branch in self.branches]
        feats = [y.transpose(0, 2, 3, 1).reshape(-1, y.shape[1]) for y in ys]  # (C * H * W, T)
        return self.head.forward(np.concatenate(feats), tape)

    def backward(self, grad_out: np.ndarray, tape: list | None = None,
                 input_grad: bool = True) -> np.ndarray | None:
        """Accumulate every parameter gradient from the ``tape`` of one
        forward; return the input gradient, or None if ``input_grad`` is false."""
        grads = np.split(self.head.backward(grad_out, tape), [self._split])
        t = grad_out.shape[1]
        # the tape holds branch b's entries above branch a's
        gb, ga = (branch.backward(g.reshape(c, h, w, t).transpose(0, 3, 1, 2), tape)
                  for branch, g, (c, h, w) in reversed(list(zip(self.branches, grads, self._pooled))))
        return self.stem.backward(ga + gb, tape, input_grad)

    def features_from(self, tensor: InputTensor) -> np.ndarray:
        """The (3, T, n_theta, n_phi) input in the model's dtype: the maps, then
        each frame's map-maximum coordinates repeated over the grid."""
        x = np.empty((3,) + tensor.maps.shape, dtype=self.dtype)
        x[0] = tensor.maps
        x[1:] = baseline_max_features(tensor)[:, :, None, None]
        return x


class Baseline1D:
    """Seven causal 1D convolutions; input is either the map-maximum
    coordinates (2 channels) or the stacked GCC lags of every sensor pair.
    Weights come from ``rng`` as for ``Cross3D``. Each convolution and its
    activation run in ``net``, one sequence."""

    def __init__(self, kind: str, in_channels: int, rng: np.random.Generator | None,
                 dtype=np.float32):
        if kind not in ("baseline-max", "baseline-gcc"):
            raise ShapeError(f"unknown baseline kind {kind!r}")
        self.kind = kind
        self.in_channels = in_channels
        self.dtype = dtype
        layers = []
        prev = in_channels
        for i, ch in enumerate(BASELINE_CHANNELS):
            dilation = 2 if i >= len(BASELINE_CHANNELS) - 2 else 1
            layers.append(CausalConv1d(prev, ch, 5, rng, dilation=dilation, dtype=dtype, name=f"l{i}"))
            if i == len(BASELINE_CHANNELS) - 1:
                layers.append(Tanh(f"l{i}_act"))
            else:  # the head-width layer shares one slope, as Cross3D's mix_act does
                layers.append(PReLU(None if ch == HEAD_CHANNELS else ch, dtype, f"l{i}_act"))
            prev = ch
        self.net = Sequential(*layers)
        self.layers = self.net.layers[::2]  # its seven convolutions

    def parameters(self):
        return self.net.params()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    @property
    def spec(self) -> dict:
        return {"in_channels": self.in_channels}

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        if x.ndim != 2 or x.shape[0] != self.in_channels:
            raise ShapeError(f"expected ({self.in_channels}, T), got {x.shape}")
        return self.net.forward(np.ascontiguousarray(x, dtype=self.dtype), tape)

    def backward(self, grad_out: np.ndarray, tape: list | None = None,
                 input_grad: bool = True) -> np.ndarray | None:
        return self.net.backward(grad_out, tape, input_grad)


def build_cross3d(n_theta: int, n_phi: int, seed: int = 0, dtype=np.float32) -> Cross3D:
    return Cross3D(n_theta, n_phi, np.random.default_rng(seed), dtype=dtype)


def build_baseline_max(seed: int = 0, dtype=np.float32) -> Baseline1D:
    return Baseline1D("baseline-max", 2, np.random.default_rng(seed), dtype=dtype)


def _gcc_feature_width(array: MicArray, fs: int) -> int:
    """Input channels of the GCC baseline: sensor pairs x lags -L..+L."""
    return array.n_mics * (array.n_mics - 1) // 2 * (2 * default_lag_range(array, fs) + 1)


def build_baseline_gcc(array: MicArray, fs: int, seed: int = 0, dtype=np.float32) -> Baseline1D:
    return Baseline1D("baseline-gcc", _gcc_feature_width(array, fs), np.random.default_rng(seed),
                      dtype=dtype)


def baseline_max_features(tensor: InputTensor) -> np.ndarray:
    """(2, T) map-maximum coordinates of every frame, theta / pi and (phi + pi) / 2 pi."""
    theta, phi = tensor.argmax_doa.T
    return np.stack([theta / np.pi, (phi + np.pi) / (2.0 * np.pi)])


def baseline_gcc_features(channels: np.ndarray, array: MicArray, cfg: FramingConfig) -> np.ndarray:
    """(n_pairs * n_lags, T) stacked GCC-PHAT values of every frame."""
    lag_range = default_lag_range(array, cfg.fs)
    return np.stack([gcc_set(frame, lag_range).pair_lags.reshape(-1)
                     for frame in windowed_frames(channels, cfg)], axis=1)


def model_features(model, tensor: InputTensor, channels: np.ndarray, array: MicArray,
                   cfg: FramingConfig) -> np.ndarray:
    """The (channels, T, ...) input ``model`` tracks from, the one place each kind
    picks its input (``Cross3D.features_from``, the map-maximum coordinates for
    the max baseline, the stacked GCCs of ``channels`` for the GCC baseline)
    and the one place it is zeroed on the frames silent in ``tensor.vad``."""
    if model.kind == "baseline-gcc":
        feats = baseline_gcc_features(channels, array, cfg)
    elif model.kind == "baseline-max":
        feats = baseline_max_features(tensor)
    else:
        feats = model.features_from(tensor)
    feats[:, ~tensor.vad] = 0.0
    return feats


def forward_track(model, features: np.ndarray):
    """Per-frame unit-vector estimates: (units (T, 3), degenerate (T,) bool).

    Raw outputs shorter than 1e-8 give the +z default and a degenerate flag.
    """
    raw = model.forward(features)
    norms = np.linalg.norm(raw, axis=0)
    degenerate = norms < 1e-8
    units = raw / np.where(degenerate, 1.0, norms)
    units[:, degenerate] = np.array([0.0, 0.0, 1.0])[:, None]
    return units.T, degenerate


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 80
    trajectories_per_epoch: int = 585
    traj_seconds: float = 20.0
    phase1_epochs: int = 20
    phase1_snr: float = 30.0
    phase1_batch: int = 5
    phase1_lr: float = 1e-4
    phase2_batch: int = 10
    phase2_lr: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "trajectories_per_epoch", "phase1_batch", "phase2_batch"):
            value = getattr(self, name)
            if not artifact.is_count(value) or value == 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not artifact.is_count(self.phase1_epochs) or self.phase1_epochs > self.epochs:
            raise ValueError(f"phase1_epochs must be an integer in [0, epochs], got {self.phase1_epochs!r}")
        if not artifact.is_count(self.seed):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("traj_seconds", "phase1_lr", "phase2_lr", "phase1_snr"):
            value = getattr(self, name)
            if not artifact.is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if value <= 0 and name != "phase1_snr":
                raise ValueError(f"{name} must be positive, got {value!r}")


def training_phase(cfg: TrainConfig, epoch: int) -> tuple[int, float, float | None]:
    """(batch size, learning rate, forced SNR or None) for a 1-based epoch."""
    if epoch <= cfg.phase1_epochs:
        return cfg.phase1_batch, cfg.phase1_lr, cfg.phase1_snr
    return cfg.phase2_batch, cfg.phase2_lr, None


def _sample_training_pair(model, scene_cfg: SceneConfig, framing: FramingConfig, array: MicArray,
                          delays, rng, source_provider):
    signals, scene = synthesize_trajectory_sample(
        scene_cfg, source_provider, rng, array=array, framing=framing
    )
    tensor = compute_input_tensor(signals.channels, delays, framing, vad_mask=scene.vad_mask)
    feats = model_features(model, tensor, signals.channels, array, framing)
    target = scene.gt_units().T  # (3, T), silent frames keep the true DOA
    return feats, target


def train(
    model,
    cfg: TrainConfig,
    scene_cfg: SceneConfig,
    array: MicArray,
    grid: SphericalGrid,
    framing: FramingConfig | None = None,
    source_provider=synthetic_source,
    log=None,
):
    """Two-phase curriculum training; returns (checkpoint, per-batch losses)."""
    framing = framing or FramingConfig()
    delays = delay_table(array, grid)
    optimizer = Adam(model.parameters(), lr=cfg.phase1_lr)
    losses = []
    sample_index = 0
    for epoch in range(1, cfg.epochs + 1):
        batch_size, lr, forced_snr = training_phase(cfg, epoch)
        optimizer.lr = lr
        epoch_cfg = replace(
            scene_cfg,
            duration=cfg.traj_seconds,
            snr_range=(forced_snr, forced_snr) if forced_snr is not None else scene_cfg.snr_range,
        )
        n_batches = max(1, cfg.trajectories_per_epoch // batch_size)
        for _ in range(n_batches):
            optimizer.zero_grad()
            batch_loss = 0.0
            for _ in range(batch_size):
                rng = sample_rng(cfg.seed, sample_index)
                sample_index += 1
                feats, target = _sample_training_pair(
                    model, epoch_cfg, framing, array, delays, rng, source_provider
                )
                tape = []
                out = model.forward(feats, tape)
                loss, gout = euclidean_distance_loss(out, target.astype(out.dtype))
                # the input gradient is not needed: skip its correlation in the first layer
                model.backward(gout / batch_size, tape, input_grad=False)
                batch_loss += loss / batch_size
            optimizer.step()
            losses.append(batch_loss)
            if log is not None:
                log(epoch, len(losses), batch_loss)
    return make_checkpoint(model, step=len(losses)), losses


@dataclass(frozen=True, eq=False)
class Checkpoint:
    kind: str
    spec: dict
    tensors: dict  # name -> float32 array
    step: int


def make_checkpoint(model, step: int = 0) -> Checkpoint:
    tensors = {p.name: p.value.astype(np.float32) for p in model.parameters()}
    return Checkpoint(kind=model.kind, spec=model.spec, tensors=tensors, step=step)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    meta = {"kind": ckpt.kind, "spec": ckpt.spec, "step": ckpt.step}
    artifact.write(path, _CKPT_MAGIC, _CKPT_VERSION, meta, ckpt.tensors)


def load_checkpoint(path) -> Checkpoint:
    header, tensors = artifact.read(path, _CKPT_MAGIC, _CKPT_VERSION, "checkpoint")
    kind, spec, step = (header.get(key) for key in ("kind", "spec", "step"))
    if not (isinstance(kind, str) and isinstance(spec, dict) and artifact.is_count(step)):
        raise FormatError(f"{path}: checkpoint header needs a string 'kind', an object 'spec' and a"
                          f" non-negative integer 'step', got {kind!r}, {spec!r}, {step!r}")
    return Checkpoint(kind=kind, spec=spec, tensors=tensors, step=step)


def _spec_count(ckpt: Checkpoint, key: str) -> int:
    value = ckpt.spec.get(key)
    if not artifact.is_count(value) or value == 0:
        raise FormatError(f"{ckpt.kind} checkpoint spec needs a positive integer {key!r}, got {value!r}")
    return value


def model_from_checkpoint(ckpt: Checkpoint, array: MicArray | None = None, fs: int | None = None):
    """Rebuild the model a checkpoint describes, with the checkpoint's tensors
    as its weights; with ``array`` given, a GCC baseline must fit that array's
    features at ``fs``, which is then required. No random initialisation is
    drawn and no weight is copied: the model keeps the checkpoint's float32
    arrays, so training it changes them too."""
    if array is not None and fs is None:
        raise TypeError("model_from_checkpoint needs fs when an array is given")
    if ckpt.kind not in MODEL_KINDS:
        raise FormatError(f"unknown model kind {ckpt.kind!r}")
    if ckpt.kind == "cross3d":
        try:
            model = Cross3D(_spec_count(ckpt, "n_theta"), _spec_count(ckpt, "n_phi"), None)
        except ShapeError as exc:
            raise FormatError(f"cross3d checkpoint spec {ckpt.spec} describes no model: {exc}") from exc
    elif ckpt.kind == "baseline-max":
        model = Baseline1D("baseline-max", 2, None)
    else:
        in_channels = _spec_count(ckpt, "in_channels")
        width = in_channels if array is None else _gcc_feature_width(array, fs)
        if in_channels != width:
            raise FormatError(f"baseline-gcc checkpoint takes {in_channels} input channels,"
                              f" the {array.n_mics}-sensor array at {fs} Hz gives {width}")
        model = Baseline1D("baseline-gcc", in_channels, None)
    if ckpt.spec != model.spec:  # also rejects keys no model reads
        raise FormatError(f"checkpoint is {ckpt.kind} {ckpt.spec}, model is {model.kind} {model.spec}")
    params = {p.name: p for p in model.parameters()}
    if set(params) != set(ckpt.tensors):
        raise FormatError("checkpoint tensor directory does not match the model")
    for name, arr in ckpt.tensors.items():
        if arr.shape != params[name].value.shape:
            raise FormatError(f"tensor {name} has shape {arr.shape}, expected {params[name].value.shape}")
        params[name].value = arr.astype(np.float32, copy=False)
    return model
