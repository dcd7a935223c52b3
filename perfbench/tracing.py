"""Spans around calls into srptrack's public functions, recorded from outside.

The package imports names by value (``gcc_set`` is bound in ``srpfeat`` and in
``models``; ``compute_input_tensor`` in ``srpfeat``, ``models``, ``evaluate``
and ``cli``), so a wrapper replaces every binding of the wrapped object that
any loaded ``srptrack`` module holds, found by identity. Methods are wrapped
once on their class. A target that no longer exists is reported as absent.

A span is ``[name, start, end, parent index, op id, extra]``; all spans of one
operation share its op id. Self time is a span's duration minus the
durations of its direct children (calls nest and never overlap, since
everything runs on one thread).
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import sys
import time

import numpy as np


def _render_extra(args, kwargs, _result):
    from srptrack import roomsim

    names = ("dry", "traj_points", "mic_positions", "room", "fs", "t_max")
    bound = dict(zip(names, args), **kwargs)
    points = np.atleast_2d(np.asarray(bound["traj_points"], dtype=float))
    n_mics = np.atleast_2d(np.asarray(bound["mic_positions"])).shape[0]
    room = bound["room"]
    # identical consecutive points share one RIR set
    rir_sets = 1 + int(np.count_nonzero(np.any(points[1:] != points[:-1], axis=1)))
    if room.beta == 0.0:
        per_set = n_mics
    else:
        t_max = bound.get("t_max") or room.t60
        counts = roomsim.image_counts(room.dims, t_max)
        per_set = 8 * int(np.prod(2 * counts + 1)) * n_mics
    return {"rir_sets": rir_sets, "image_evals": rir_sets * per_set}


def _conv3d_extra(args, _kwargs, _result):
    layer, x = args[0], args[1]
    _, t, h, w = x.shape
    macs = layer.out_ch * layer.in_ch * math.prod(layer.kernel) * t * h * w
    return {"gflop": 2.0 * macs / 1e9}


def _tensor_frames(_args, _kwargs, result):
    return {"frames": result.n_frames}


def _feature_frames(_args, _kwargs, result):
    return {"frames": result.shape[1]}


def _model_children(args, _kwargs, _result):
    model = args[0]
    if getattr(model, "kind", None) == "cross3d":
        return {"conv3d": 1 + 2 * model.depth, "conv1d": 2}
    return {"conv3d": 0, "conv1d": len(model.layers)}


# (dotted path under srptrack, span name, extra-info function)
TARGETS = [
    ("roomsim.render_moving_source", "roomsim.render", _render_extra),
    ("roomsim.add_noise", "roomsim.noise", None),
    ("roomsim.MicSignals.from_wav", "roomsim.wav_read", None),
    ("scenegen.synthetic_source", "scenegen.source", None),
    ("scenegen.synthesize_trajectory_sample", "scenegen.scene", None),
    ("srpfeat.compute_input_tensor", "srpfeat.input_tensor", _tensor_frames),
    ("srpfeat.frame_signal", "srpfeat.frame", None),
    ("srpfeat.gcc_set", "srpfeat.gcc", None),
    ("srpfeat.srp_map", "srpfeat.srp", None),
    ("srpfeat.assemble_input", "srpfeat.assemble", None),
    ("srpfeat.EnergyVad.mask", "srpfeat.vad", None),
    ("models.baseline_gcc_features", "models.gcc_features", _feature_frames),
    ("models.Cross3D.forward", "models.forward", _model_children),
    ("models.Baseline1D.forward", "models.forward", _model_children),
    ("models.Cross3D.backward", "models.backward", None),
    ("models.Baseline1D.backward", "models.backward", None),
    ("models.load_checkpoint", "models.load", None),
    ("models.model_from_checkpoint", "models.load", None),
    ("tensornet.layers.CausalConv3d.forward", "tensornet.conv3d_fwd", _conv3d_extra),
    ("tensornet.layers.CausalConv3d.backward", "tensornet.conv3d_bwd", None),
    ("tensornet.layers.CausalConv1d.forward", "tensornet.conv1d_fwd", None),
    ("tensornet.layers.CausalConv1d.backward", "tensornet.conv1d_bwd", None),
    ("tensornet.layers.PReLU.forward", "tensornet.pointwise", None),
    ("tensornet.layers.PReLU.backward", "tensornet.pointwise", None),
    ("tensornet.layers.MaxPoolAxis.forward", "tensornet.pointwise", None),
    ("tensornet.layers.MaxPoolAxis.backward", "tensornet.pointwise", None),
    ("tensornet.layers.Tanh.forward", "tensornet.pointwise", None),
    ("tensornet.layers.Tanh.backward", "tensornet.pointwise", None),
    ("tensornet.optim.Adam.step", "tensornet.adam", None),
    ("evaluate.track_file", "evaluate.track_file", None),
    ("evaluate.evaluate_models_on_scene", "evaluate.scene_eval", None),
    ("geometry.delay_table", "geometry.delay_table", None),
]

# (metric, unit, better, span name, statistic); statistic is "total" (inclusive
# seconds), "self" (self seconds), "count" (calls) or an extra-info key summed
SPAN_METRICS = [
    ("roomsim.render_s", "s", "lower", "roomsim.render", "total"),
    ("roomsim.rir_sets", "count", "higher", "roomsim.render", "rir_sets"),
    ("roomsim.image_evals", "count", "higher", "roomsim.render", "image_evals"),
    ("roomsim.noise_s", "s", "lower", "roomsim.noise", "total"),
    ("roomsim.wav_read_s", "s", "lower", "roomsim.wav_read", "total"),
    ("scenegen.source_s", "s", "lower", "scenegen.source", "total"),
    ("scenegen.scene_s", "s", "lower", "scenegen.scene", "self"),
    ("scenegen.scenes", "count", "higher", "scenegen.scene", "count"),
    ("srpfeat.input_tensor_s", "s", "lower", "srpfeat.input_tensor", "self"),
    ("srpfeat.frame_s", "s", "lower", "srpfeat.frame", "total"),
    ("srpfeat.gcc_s", "s", "lower", "srpfeat.gcc", "total"),
    ("srpfeat.gcc_calls", "count", "higher", "srpfeat.gcc", "count"),
    ("srpfeat.srp_s", "s", "lower", "srpfeat.srp", "total"),
    ("srpfeat.srp_calls", "count", "higher", "srpfeat.srp", "count"),
    ("srpfeat.assemble_s", "s", "lower", "srpfeat.assemble", "total"),
    ("srpfeat.vad_s", "s", "lower", "srpfeat.vad", "total"),
    ("srpfeat.frames", "count", "higher", "srpfeat.input_tensor", "frames"),
    ("models.gcc_features_s", "s", "lower", "models.gcc_features", "total"),
    ("models.forward_s", "s", "lower", "models.forward", "self"),
    ("models.backward_s", "s", "lower", "models.backward", "self"),
    ("models.load_s", "s", "lower", "models.load", "total"),
    ("tensornet.conv3d_fwd_s", "s", "lower", "tensornet.conv3d_fwd", "total"),
    ("tensornet.conv3d_bwd_s", "s", "lower", "tensornet.conv3d_bwd", "total"),
    ("tensornet.conv3d_calls", "count", "higher", "tensornet.conv3d_fwd", "count"),
    ("tensornet.conv3d_gflop", "GFLOP", "higher", "tensornet.conv3d_fwd", "gflop"),
    ("tensornet.conv1d_fwd_s", "s", "lower", "tensornet.conv1d_fwd", "total"),
    ("tensornet.conv1d_bwd_s", "s", "lower", "tensornet.conv1d_bwd", "total"),
    ("tensornet.pointwise_s", "s", "lower", "tensornet.pointwise", "total"),
    ("tensornet.adam_s", "s", "lower", "tensornet.adam", "total"),
    ("evaluate.track_file_s", "s", "lower", "evaluate.track_file", "self"),
    ("evaluate.scene_eval_s", "s", "lower", "evaluate.scene_eval", "self"),
    ("geometry.delay_table_s", "s", "lower", "geometry.delay_table", "total"),
    ("geometry.delay_table_calls", "count", "higher", "geometry.delay_table", "count"),
]

# metrics derived from the ones above, or from the traced/untraced comparison
DERIVED_METRICS = [
    ("roomsim.ns_per_image", "ns", "lower"),
    ("srpfeat.gcc_per_frame", "count", "lower"),
    ("tensornet.conv3d_gflop_per_s", "GFLOP/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]


def _resolve(path: str):
    """(owner, attribute name, is_class_attribute) for a dotted target, or None."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module("srptrack." + ".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if parts[-1] not in vars(owner):  # on a class, inherited methods do not count
            return None
        return owner, parts[-1], isinstance(owner, type)
    return None


class Tracer:
    """Install wrappers, collect spans, and turn them into layer metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def mark(self, op: int) -> None:
        """Spans started from now on belong to operation ``op``."""
        self.op = op

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        import srptrack

        for info in pkgutil.walk_packages(srptrack.__path__, "srptrack."):
            importlib.import_module(info.name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "srptrack" or n.startswith("srptrack."))]
        present = set()
        for path, name, extra in targets:
            found = _resolve(path)
            if found is None:
                continue
            owner, attr, on_class = found
            present.add(name)
            if on_class:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, extra))
                else:
                    wrapped = self._wrap(name, raw, extra)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patches.append((module, key, original))
        self.absent = {name for _, name, _ in targets} - present

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def _per_name(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        stats: dict[str, dict[str, float]] = {}
        for s, c in zip(self.spans, child):
            st = stats.setdefault(s[0], {"total": 0.0, "self": 0.0, "count": 0})
            st["total"] += s[2] - s[1]
            st["self"] += s[2] - s[1] - c
            st["count"] += 1
            for key, value in (s[5] or {}).items():
                st[key] = st.get(key, 0) + value
        return stats

    def _per_op(self):
        ops: dict[int, dict[str, float]] = {}
        for s in self.spans:
            counts = ops.setdefault(s[4], {})
            counts[s[0]] = counts.get(s[0], 0) + 1
            if s[0] in ("srpfeat.input_tensor", "models.gcc_features"):
                key = s[0] + ".frames"
                counts[key] = counts.get(key, 0) + (s[5] or {}).get("frames", 0)
        return ops

    def metrics(self, traced_s: float, untraced_s: float) -> dict:
        """Layer metrics; metrics of absent functions are left out."""
        stats = self._per_name()
        out = {}
        for metric, unit, _, span, stat in SPAN_METRICS:
            if span in self.absent:
                continue
            out[metric] = {"value": float(stats.get(span, {}).get(stat, 0)), "unit": unit}

        def value(metric):
            return out[metric]["value"] if metric in out else None

        render_s, images = value("roomsim.render_s"), value("roomsim.image_evals")
        if render_s is not None:
            out["roomsim.ns_per_image"] = {
                "value": render_s * 1e9 / images if images else 0.0, "unit": "ns"}
        if "srpfeat.gcc" not in self.absent and "srpfeat.input_tensor" not in self.absent:
            # worst operation: GCC calls per frame featurized, above 1.0 is repeated work
            ratios = [c.get("srpfeat.gcc", 0) / c["srpfeat.input_tensor.frames"]
                      for c in self._per_op().values() if c.get("srpfeat.input_tensor.frames")]
            out["srpfeat.gcc_per_frame"] = {"value": max(ratios, default=0.0), "unit": "count"}
        fwd_s, gflop = value("tensornet.conv3d_fwd_s"), value("tensornet.conv3d_gflop")
        if fwd_s is not None:
            out["tensornet.conv3d_gflop_per_s"] = {
                "value": gflop / fwd_s if fwd_s else 0.0, "unit": "GFLOP/s"}
        out["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        out["trace.overhead_pct"] = {
            "value": 100.0 * (traced_s - untraced_s) / untraced_s, "unit": "%"}
        out["trace.spans"] = {"value": float(len(self.spans)), "unit": "count"}
        return out

    def self_check(self, expect_scenes: dict[int, int]) -> list[tuple[int, str]]:
        """Counts that must agree with the inputs, as (op id, problem) pairs.

        ``expect_scenes`` maps each operation to check (those that raised
        nothing) to the number of scenes it synthesizes.
        """
        problems = []
        ops = self._per_op()
        for op, want in expect_scenes.items():
            c = ops.get(op, {})
            # every scene draws one source, renders once and adds noise once
            for span in ("scenegen.scene", "scenegen.source", "roomsim.render", "roomsim.noise"):
                if span not in self.absent and c.get(span, 0) != want:
                    problems.append((op, f"op {op}: {c.get(span, 0)} {span} calls, expected {want}"))
            frames = c.get("srpfeat.input_tensor.frames", 0)
            extra = c.get("models.gcc_features.frames", 0)
            gcc, srp = c.get("srpfeat.gcc", 0), c.get("srpfeat.srp", 0)
            # one GCC set per frame for the maps, plus one per frame of GCC
            # baseline features unless those are shared; none once unused
            if "srpfeat.gcc" not in self.absent and gcc not in {0, frames, frames + extra}:
                problems.append((op, f"op {op}: {gcc} GCC sets for {frames}+{extra} frames"))
            if "srpfeat.srp" not in self.absent and srp not in {0, frames}:
                problems.append((op, f"op {op}: {srp} SRP maps for {frames} frames"))
        kids: dict[int, list[str]] = {}
        for s in self.spans:
            if s[3] >= 0 and self.spans[s[3]][0] == "models.forward":
                kids.setdefault(s[3], []).append(s[0])
        for i, s in enumerate(self.spans):
            if s[0] != "models.forward" or s[4] not in expect_scenes:
                continue
            for layer, want in (s[5] or {}).items():
                span = f"tensornet.{layer}_fwd"
                got = kids.get(i, []).count(span)
                if span not in self.absent and got != want:
                    problems.append((s[4], f"op {s[4]}: model forward ran {got} {layer} layers,"
                                           f" expected {want}"))
        return problems
