"""The Cross3D tracker, its 1D-CNN baselines, training and checkpoints.

Cross3D consumes the 3 x T x Ntheta x Nphi input tensor with a 3D stem, two
parallel convolutional branches that pool perpendicular spherical axes (so
each branch keeps positional information about the other axis), and a causal
dilated 1D head that maps the concatenated per-frame features to a unit
vector pointing at the source.

The baselines share the head idea: seven causal 1D convolutions over either
the per-frame map-maximum coordinates or the stacked pairwise GCC values.

Every model declares its layers once, as ``tensornet.Sequential`` chains
(Cross3D: ``stem``, one per branch, ``head``); the chains give the parameters
in checkpoint order, the feature widths, and the forward and backward passes.
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


def receptive_field_frames(depth: int) -> int:
    """Frames seen by one output: stem + branch convs + two dilated 1D layers."""
    return 1 + 4 + 4 * depth + 8 + 8


def receptive_field_seconds(depth: int, framing: FramingConfig | None = None) -> float:
    framing = framing or FramingConfig()
    rf = receptive_field_frames(depth)
    return (rf - 1) * framing.hop_seconds + framing.K / framing.fs


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
        widths = [math.prod(branch.out_shape(one_frame)) for branch in self.branches]
        self._split = widths[0]
        self.head = Sequential(
            CausalConv1d(sum(widths), HEAD_CHANNELS, 5, rng, dilation=2, dtype=dtype, name="mix"),
            PReLU(None, dtype, "mix_act"),
            CausalConv1d(HEAD_CHANNELS, 3, 5, rng, dilation=2, dtype=dtype, name="head"),
            Tanh(),
        )

    def parameters(self):
        return [p for seq in (self.stem, *self.branches, self.head) for p in seq.params()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    @property
    def spec(self) -> dict:
        return {"n_theta": self.n_theta, "n_phi": self.n_phi}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != 3 or x.shape[2:] != (self.n_theta, self.n_phi):
            raise ShapeError(f"expected (3, T, {self.n_theta}, {self.n_phi}), got {x.shape}")
        h = self.stem.forward(np.ascontiguousarray(x, dtype=self.dtype))
        ys = [branch.forward(h) for branch in self.branches]
        self._shapes = [y.shape for y in ys]
        feats = [y.transpose(0, 2, 3, 1).reshape(-1, y.shape[1]) for y in ys]  # (C * H * W, T)
        return self.head.forward(np.concatenate(feats))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grads = np.split(self.head.backward(grad_out), [self._split])
        ga, gb = (branch.backward(g.reshape(c, h, w, t).transpose(0, 3, 1, 2))
                  for branch, g, (c, t, h, w) in zip(self.branches, grads, self._shapes))
        return self.stem.backward(ga + gb)

    def features_from(self, tensor: InputTensor) -> np.ndarray:
        # kept for perfbench's warm-up; the package picks inputs in model_features
        return tensor.data


class Baseline1D:
    """Seven causal 1D convolutions; input is either the map-maximum
    coordinates (2 channels) or the stacked GCC lags of every sensor pair.
    Weights come from ``rng`` as for ``Cross3D``. The (conv, activation)
    pairs are ``layers`` and run as one sequence."""

    def __init__(self, kind: str, in_channels: int, rng: np.random.Generator | None,
                 dtype=np.float32):
        if kind not in ("baseline-max", "baseline-gcc"):
            raise ShapeError(f"unknown baseline kind {kind!r}")
        self.kind = kind
        self.in_channels = in_channels
        self.dtype = dtype
        self.layers = []
        prev = in_channels
        for i, ch in enumerate(BASELINE_CHANNELS):
            dilation = 2 if i >= len(BASELINE_CHANNELS) - 2 else 1
            conv = CausalConv1d(prev, ch, 5, rng, dilation=dilation, dtype=dtype, name=f"l{i}")
            if i == len(BASELINE_CHANNELS) - 1:
                act = Tanh()
            else:  # the head-width layer shares one slope, as Cross3D's mix_act does
                act = PReLU(None if ch == HEAD_CHANNELS else ch, dtype, f"l{i}_act")
            self.layers.append((conv, act))
            prev = ch
        self.net = Sequential(*(layer for pair in self.layers for layer in pair))

    def parameters(self):
        return self.net.params()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    @property
    def spec(self) -> dict:
        return {"in_channels": self.in_channels}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[0] != self.in_channels:
            raise ShapeError(f"expected ({self.in_channels}, T), got {x.shape}")
        return self.net.forward(np.ascontiguousarray(x, dtype=self.dtype))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_out)


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
    """(2, T) map-maximum coordinates in [0, 1]; zero on silent frames."""
    return np.stack([tensor.data[1, :, 0, 0], tensor.data[2, :, 0, 0]])


def baseline_gcc_features(
    channels: np.ndarray,
    array: MicArray,
    cfg: FramingConfig,
    vad_mask: np.ndarray | None = None,
) -> np.ndarray:
    """(n_pairs * n_lags, T) stacked GCC-PHAT values; silent frames zeroed."""
    lag_range = default_lag_range(array, cfg.fs)
    feats = np.stack([gcc_set(frame, lag_range).pair_lags.reshape(-1)
                      for frame in windowed_frames(channels, cfg)], axis=1)
    if vad_mask is not None:
        feats[:, ~np.asarray(vad_mask, dtype=bool)] = 0.0
    return feats


def model_features(model, tensor: InputTensor, channels: np.ndarray, array: MicArray,
                   cfg: FramingConfig) -> np.ndarray:
    """The features ``model`` tracks from, the one place each kind picks its
    input: the whole tensor for Cross3D, the map-maximum coordinates for the
    max baseline, the stacked GCCs of ``channels`` for the GCC baseline.
    Frames silent in ``tensor.vad`` are zero in every case."""
    if model.kind == "baseline-gcc":
        return baseline_gcc_features(channels, array, cfg, vad_mask=tensor.vad)
    if model.kind == "baseline-max":
        return baseline_max_features(tensor)
    return tensor.data


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
        if self.phase1_epochs > self.epochs:
            raise ValueError("phase1_epochs cannot exceed epochs")
        if min(self.epochs, self.trajectories_per_epoch, self.phase1_batch, self.phase2_batch) < 1:
            raise ValueError("counts must be positive")


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
                out = model.forward(feats)
                loss, gout = euclidean_distance_loss(out, target.astype(out.dtype))
                model.backward(gout / batch_size)
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
        raise FormatError(f"checkpoint header needs a string 'kind', an object 'spec' and a"
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
