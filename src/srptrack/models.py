"""The Cross3D tracker, its 1D-CNN baselines, training and checkpoints.

Cross3D consumes the 3 x T x Ntheta x Nphi input tensor with a 3D stem, two
parallel convolutional branches that pool perpendicular spherical axes (so
each branch keeps positional information about the other axis), and a causal
dilated 1D head that maps the concatenated per-frame features to a unit
vector pointing at the source.

The baselines share the head idea: seven causal 1D convolutions over either
the per-frame map-maximum coordinates or the stacked pairwise GCC values.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError
from .geometry import MicArray, SphericalGrid, delay_table
from .scenegen import SceneConfig, sample_rng, synthesize_trajectory_sample, synthetic_source
from .srpfeat import FramingConfig, InputTensor, compute_input_tensor, default_lag_range, frame_signal, gcc_set
from .tensornet import Adam, CausalConv1d, CausalConv3d, MaxPoolAxis, PReLU, Tanh, euclidean_distance_loss

_CKPT_MAGIC = b"SSTC"
_CKPT_VERSION = 1

STEM_CHANNELS = 32
HEAD_CHANNELS = 128
BASELINE_CHANNELS = (1024, 512, 512, 512, 512, 128, 3)


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
    """Two-branch causal 3D CNN over power-map sequences."""

    kind = "cross3d"

    def __init__(self, n_theta: int, n_phi: int, seed: int = 0, dtype=np.float32):
        if n_theta < 2 or n_phi < 2:
            raise ShapeError("grid must be at least 2 x 2")
        depth = branch_depth(n_theta, n_phi)
        if n_theta % (1 << depth) or n_phi % (1 << depth):
            raise ShapeError(
                f"{n_theta}x{n_phi} maps are not divisible by 2^{depth} on both axes"
            )
        self.n_theta = n_theta
        self.n_phi = n_phi
        self.depth = depth
        self.dtype = dtype
        self.seed = seed
        rng = np.random.default_rng(seed)

        self.stem = CausalConv3d(3, STEM_CHANNELS, (5, 5, 5), rng, dtype, "stem")
        self.stem_act = PReLU(STEM_CHANNELS, dtype, "stem_act")
        # branch a pools azimuth, branch b pools elevation
        self.branch_a = self._branch(rng, axis=3, tag="a")
        self.branch_b = self._branch(rng, axis=2, tag="b")
        pooled = (n_theta * n_phi) >> depth
        self.feature_width = 2 * STEM_CHANNELS * pooled
        self._split = STEM_CHANNELS * pooled
        self.mix = CausalConv1d(self.feature_width, HEAD_CHANNELS, 5, rng, dilation=2,
                                dtype=dtype, name="mix")
        self.mix_act = PReLU(None, dtype, "mix_act")
        self.head = CausalConv1d(HEAD_CHANNELS, 3, 5, rng, dilation=2, dtype=dtype, name="head")
        self.head_act = Tanh()
        self._validate_shapes()

    def _branch(self, rng, axis: int, tag: str):
        layers = []
        for i in range(self.depth):
            layers.append(
                (
                    CausalConv3d(STEM_CHANNELS, STEM_CHANNELS, (5, 3, 3), rng, self.dtype,
                                 f"branch_{tag}{i}"),
                    PReLU(STEM_CHANNELS, self.dtype, f"branch_{tag}{i}_act"),
                    MaxPoolAxis(axis=axis, size=2, name=f"branch_{tag}{i}_pool"),
                )
            )
        return layers

    def _validate_shapes(self) -> None:
        shape = self.stem.out_shape((3, 8, self.n_theta, self.n_phi))
        sa = sb = shape
        for conv, act, pool in self.branch_a:
            sa = pool.out_shape(act.out_shape(conv.out_shape(sa)))
        for conv, act, pool in self.branch_b:
            sb = pool.out_shape(act.out_shape(conv.out_shape(sb)))
        width = sa[0] * sa[2] * sa[3] + sb[0] * sb[2] * sb[3]
        if width != self.feature_width:
            raise ShapeError(f"feature width {width} != expected {self.feature_width}")
        self.head.out_shape(self.mix.out_shape((self.feature_width, 8)))

    def parameters(self):
        out = self.stem.params() + self.stem_act.params()
        for branch in (self.branch_a, self.branch_b):
            for conv, act, _ in branch:
                out += conv.params() + act.params()
        out += self.mix.params() + self.mix_act.params() + self.head.params()
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    @property
    def spec(self) -> dict:
        return {"n_theta": self.n_theta, "n_phi": self.n_phi}

    @staticmethod
    def _flatten(x):
        c, t, h, w = x.shape
        return x.transpose(0, 2, 3, 1).reshape(c * h * w, t)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != 3 or x.shape[2:] != (self.n_theta, self.n_phi):
            raise ShapeError(f"expected (3, T, {self.n_theta}, {self.n_phi}), got {x.shape}")
        x = np.ascontiguousarray(x, dtype=self.dtype)
        h = self.stem_act.forward(self.stem.forward(x))
        a = h
        for conv, act, pool in self.branch_a:
            a = pool.forward(act.forward(conv.forward(a)))
        b = h
        for conv, act, pool in self.branch_b:
            b = pool.forward(act.forward(conv.forward(b)))
        self._a_shape = a.shape
        self._b_shape = b.shape
        feats = np.concatenate([self._flatten(a), self._flatten(b)], axis=0)
        m = self.mix_act.forward(self.mix.forward(feats))
        return self.head_act.forward(self.head.forward(m))

    def backward(self, grad_out: np.ndarray) -> None:
        g = self.head.backward(self.head_act.backward(grad_out))
        g = self.mix.backward(self.mix_act.backward(g))
        ga, gb = g[: self._split], g[self._split :]

        def unflatten(gf, shape):
            c, t, h, w = shape
            return gf.reshape(c, h, w, t).transpose(0, 3, 1, 2)

        ga = unflatten(ga, self._a_shape)
        for conv, act, pool in reversed(self.branch_a):
            ga = conv.backward(act.backward(pool.backward(ga)))
        gb = unflatten(gb, self._b_shape)
        for conv, act, pool in reversed(self.branch_b):
            gb = conv.backward(act.backward(pool.backward(gb)))
        return self.stem.backward(self.stem_act.backward(ga + gb))

    def features_from(self, tensor: InputTensor) -> np.ndarray:
        return tensor.data


class Baseline1D:
    """Seven causal 1D convolutions; input is either the map-maximum
    coordinates (2 channels) or the stacked GCC lags of every sensor pair."""

    def __init__(self, kind: str, in_channels: int, seed: int = 0, dtype=np.float32):
        if kind not in ("baseline-max", "baseline-gcc"):
            raise ShapeError(f"unknown baseline kind {kind!r}")
        self.kind = kind
        self.in_channels = in_channels
        self.dtype = dtype
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.layers = []
        prev = in_channels
        for i, ch in enumerate(BASELINE_CHANNELS):
            dilation = 2 if i >= len(BASELINE_CHANNELS) - 2 else 1
            conv = CausalConv1d(prev, ch, 5, rng, dilation=dilation, dtype=dtype, name=f"l{i}")
            if i == len(BASELINE_CHANNELS) - 1:
                act = Tanh()
            elif ch == HEAD_CHANNELS:
                act = PReLU(None, dtype, f"l{i}_act")
            else:
                act = PReLU(ch, dtype, f"l{i}_act")
            self.layers.append((conv, act))
            prev = ch

    def parameters(self):
        out = []
        for conv, act in self.layers:
            out += conv.params()
            if isinstance(act, PReLU):
                out += act.params()
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    @property
    def spec(self) -> dict:
        return {"in_channels": self.in_channels}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[0] != self.in_channels:
            raise ShapeError(f"expected ({self.in_channels}, T), got {x.shape}")
        h = np.ascontiguousarray(x, dtype=self.dtype)
        for conv, act in self.layers:
            h = act.forward(conv.forward(h))
        return h

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = grad_out
        for conv, act in reversed(self.layers):
            g = conv.backward(act.backward(g))
        return g

    def features_from(self, tensor: InputTensor) -> np.ndarray:
        if self.kind != "baseline-max":
            raise ShapeError("GCC baseline features come from baseline_gcc_features()")
        return baseline_max_features(tensor)


def build_cross3d(n_theta: int, n_phi: int, seed: int = 0, dtype=np.float32) -> Cross3D:
    return Cross3D(n_theta, n_phi, seed=seed, dtype=dtype)


def build_baseline_max(seed: int = 0, dtype=np.float32) -> Baseline1D:
    return Baseline1D("baseline-max", 2, seed=seed, dtype=dtype)


def _gcc_feature_width(array: MicArray, fs: int) -> int:
    """Input channels of the GCC baseline: sensor pairs x lags -L..+L."""
    return array.n_mics * (array.n_mics - 1) // 2 * (2 * default_lag_range(array, fs) + 1)


def build_baseline_gcc(array: MicArray, fs: int, seed: int = 0, dtype=np.float32) -> Baseline1D:
    return Baseline1D("baseline-gcc", _gcc_feature_width(array, fs), seed=seed, dtype=dtype)


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
    frames = frame_signal(channels, cfg)
    feats = np.stack([gcc_set(frames[:, i], lag_range).pair_lags.reshape(-1)
                      for i in range(frames.shape[1])], axis=1)
    if vad_mask is not None:
        feats[:, ~np.asarray(vad_mask, dtype=bool)] = 0.0
    return feats


def forward_track(model, features: np.ndarray):
    """Per-frame raw outputs plus unit-vector estimates.

    Returns (raw (3, T), units (3, T), degenerate (T,) bool). Raw vectors
    shorter than 1e-8 give the +z default and a degenerate flag.
    """
    raw = model.forward(features)
    norms = np.linalg.norm(raw, axis=0)
    degenerate = norms < 1e-8
    safe = np.where(degenerate, 1.0, norms)
    units = raw / safe
    units[:, degenerate] = np.array([0.0, 0.0, 1.0])[:, None]
    return raw, units, degenerate


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

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        return cls(**obj)


def training_phase(cfg: TrainConfig, epoch: int) -> tuple[int, float, float | None]:
    """(batch size, learning rate, forced SNR or None) for a 1-based epoch."""
    if epoch <= cfg.phase1_epochs:
        return cfg.phase1_batch, cfg.phase1_lr, cfg.phase1_snr
    return cfg.phase2_batch, cfg.phase2_lr, None


def _sample_training_pair(
    model, scene_cfg: SceneConfig, framing: FramingConfig, array: MicArray,
    grid: SphericalGrid, delays, rng, source_provider,
):
    signals, scene = synthesize_trajectory_sample(
        scene_cfg, source_provider, rng, array=array, framing=framing
    )
    tensor = compute_input_tensor(
        signals.channels.astype(float), delays, framing, vad_mask=scene.vad_mask
    )
    if getattr(model, "kind", None) == "baseline-gcc":
        feats = baseline_gcc_features(
            signals.channels.astype(float), array, framing, vad_mask=scene.vad_mask
        )
    else:
        feats = model.features_from(tensor)
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
    framing = framing or FramingConfig(fs=scene_cfg.fs)
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
                    model, epoch_cfg, framing, array, grid, delays, rng, source_provider
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


def train_on_fixed_batch(model, batch, steps: int, lr: float, stop_below: float | None = None):
    """Repeatedly fit one fixed batch of (features, target) pairs.

    Returns the per-step mean losses; stops early once the loss drops below
    ``stop_below``.
    """
    optimizer = Adam(model.parameters(), lr=lr)
    losses = []
    for _ in range(steps):
        optimizer.zero_grad()
        total = 0.0
        for feats, target in batch:
            out = model.forward(feats)
            loss, gout = euclidean_distance_loss(out, target.astype(out.dtype))
            model.backward(gout / len(batch))
            total += loss / len(batch)
        optimizer.step()
        losses.append(total)
        if stop_below is not None and total < stop_below:
            break
    return losses


def evaluate_loss(model, batch) -> float:
    """Mean loss over (features, target) pairs without touching gradients."""
    total = 0.0
    for feats, target in batch:
        out = model.forward(feats)
        loss, _ = euclidean_distance_loss(out, target.astype(out.dtype))
        total += loss / len(batch)
    return total


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
    names = list(ckpt.tensors)
    directory = []
    offset = 0
    for name in names:
        arr = ckpt.tensors[name]
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 4
    header = json.dumps(
        {"kind": ckpt.kind, "spec": ckpt.spec, "step": ckpt.step, "tensors": directory}
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<2I", _CKPT_VERSION, len(header)))
        f.write(header)
        for name in names:
            f.write(ckpt.tensors[name].astype("<f4").tobytes())


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_header(header) -> None:
    """Raise FormatError unless ``header`` has the layout save_checkpoint writes."""
    if not isinstance(header, dict):
        raise FormatError("checkpoint header is not a JSON object")
    for key, valid in (
        ("kind", lambda v: isinstance(v, str)),
        ("spec", lambda v: isinstance(v, dict)),
        ("step", _is_count),
        ("tensors", lambda v: isinstance(v, list)),
    ):
        if key not in header:
            raise FormatError(f"checkpoint header has no {key!r}")
        if not valid(header[key]):
            raise FormatError(f"checkpoint header has a bad {key!r}: {header[key]!r}")
    for entry in header["tensors"]:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(_is_count(n) for n in entry["shape"])
            and _is_count(entry.get("offset"))
        ):
            raise FormatError(f"bad checkpoint tensor entry {entry!r}")


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    if blob[:4] != _CKPT_MAGIC:
        raise FormatError("not a checkpoint (bad magic)")
    if len(blob) < 12:
        raise FormatError("checkpoint truncated")
    version, header_len = struct.unpack_from("<2I", blob, 4)
    if version != _CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if len(blob) < 12 + header_len:
        raise FormatError("checkpoint truncated inside header")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt checkpoint header: {exc}") from exc
    _check_header(header)
    body = blob[12 + header_len :]
    tensors = {}
    for entry in header["tensors"]:
        size = math.prod(entry["shape"])
        lo = entry["offset"]
        hi = lo + size * 4
        if hi > len(body):
            raise FormatError(f"checkpoint truncated: tensor {entry['name']} out of range")
        tensors[entry["name"]] = (
            np.frombuffer(body[lo:hi], dtype="<f4").reshape(entry["shape"]).copy()
        )
    return Checkpoint(kind=header["kind"], spec=header["spec"], tensors=tensors, step=header["step"])


def _spec_count(ckpt: Checkpoint, key: str) -> int:
    value = ckpt.spec.get(key)
    if not _is_count(value) or value == 0:
        raise FormatError(f"{ckpt.kind} checkpoint spec needs a positive integer {key!r}, got {value!r}")
    return value


def model_from_checkpoint(ckpt: Checkpoint, array: MicArray | None = None, fs: int = 16000):
    """Rebuild the model a checkpoint describes and load its parameters; with
    ``array`` given, a GCC baseline must fit that array's features at ``fs``."""
    if ckpt.kind == "cross3d":
        model = build_cross3d(_spec_count(ckpt, "n_theta"), _spec_count(ckpt, "n_phi"))
    elif ckpt.kind == "baseline-max":
        model = build_baseline_max()
    elif ckpt.kind == "baseline-gcc":
        in_channels = _spec_count(ckpt, "in_channels")
        width = in_channels if array is None else _gcc_feature_width(array, fs)
        if in_channels != width:
            raise FormatError(f"baseline-gcc checkpoint takes {in_channels} input channels,"
                              f" the {array.n_mics}-sensor array at {fs} Hz gives {width}")
        model = Baseline1D("baseline-gcc", in_channels)
    else:
        raise FormatError(f"unknown model kind {ckpt.kind!r}")
    load_into(model, ckpt)
    return model


def load_into(model, ckpt: Checkpoint) -> None:
    if ckpt.kind != model.kind or ckpt.spec != model.spec:
        raise FormatError(
            f"checkpoint is {ckpt.kind} {ckpt.spec}, model is {model.kind} {model.spec}"
        )
    params = {p.name: p for p in model.parameters()}
    if set(params) != set(ckpt.tensors):
        raise FormatError("checkpoint tensor directory does not match the model")
    for name, arr in ckpt.tensors.items():
        if tuple(arr.shape) != params[name].value.shape:
            raise FormatError(f"tensor {name} has shape {arr.shape}, expected {params[name].value.shape}")
        params[name].value[...] = arr.astype(model.dtype)
