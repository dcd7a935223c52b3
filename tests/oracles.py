"""Reference implementations used only to verify the package.

Not every oracle here is independent of the code it checks. Each is one of
three kinds:

- independent: derived another way, sharing no formula with the package;
- same formula: the package's formula restated, or computed by another
  algorithm or library, so it cannot catch a wrong formula;
- old path: the code a refactor replaced, kept verbatim apart from the notes
  above each group; it shares the package's formulas by design.

In brackets, the test that checks a shared formula without sharing it.

plane_wave_frames (same formula): far-field channels, tau_n = -(r_n . u) / c [test_matches_a_distant_point_source]
srp_direct_pairwise (independent): SRP from full DFTs, pair by pair; shares plane_wave_frames' delays
srp_direct_two_mic (independent): literal two-sensor steered power; shares plane_wave_frames' delays
schroeder_t60 (independent): T60 by a line fit to the Schroeder decay of a rendered RIR
images_in_sphere (independent): the images within c t_max of a microphone, one per room volume,
    counted where the package deposits them [test_images_grow_as_the_sphere_over_the_room]
sinc_kernel_oversampled (old path): the Hann-windowed sinc before the polyphase split
deposit_to_rirs_oversampled (old path): oversampled deposits convolved with that sinc, then decimated
rirs_for_point_oversampled (old path): image-source RIRs, with the package's reflection count
    |n + p| + |n|, which is wrong (ROADMAP item 1) [test_mirror_through_the_centre_keeps_the_rir, strict xfail]
gcc_phat (old path): one pair's GCC-PHAT by irfft [test_linear_shift_peaks_at_plus_d_over_the_lag_range]
frame_signal_per_frame (old path): Hann-windowed frames through an index gather
energy_vad_per_frame (old path): the energy VAD on frames from an index gather
gcc_set_per_pair (old path): one frame's GCC set a pair at a time, by irfft
srp_map_per_pair (old path): one map from a loop over the pairs
normalize_map_single (old path): one map zero-meaned and scaled
input_tensor_per_frame (old path): the per-frame feature pass built from the four above
power_maps_windowed (old path): whole-array framing, then the package's gcc_set and srp_map; pins the streaming only
gcc_features_windowed (old path): whole-array framing, then the package's gcc_set; pins the streaming only
grid_unit_vectors_broadcast (same formula): the grid's unit vectors [TestDoaConventionEndToEnd]
delay_table_from_units (same formula): the delay table from unit vectors [test_matches_a_distant_point_source]
gt_units_from_angles (same formula): ground-truth unit vectors from angles [TestDoaConventionEndToEnd]
doa_to_unit_from_pair (same formula): one (theta, phi) as a unit vector [TestDoaConventionEndToEnd]
unit_to_doa (old path): one vector as (theta, phi) [test_round_trip_off_poles]
grid_argmax (old path): one map's maximum on the grid, azimuth 0 at a pole [TestDoaConventionEndToEnd]
angular_errors_per_frame (same formula): the angle by acos of the cosine, where angular_error takes atan2
clean_dry_signal_per_frame (old path): dry-signal cleaning by a loop over voiced frames
frame_index_table (old path): the (T, K) frame sample indices of the gathers below
add_noise_gather (old path): add_noise with the signal power measured through an index gather
activity_mask_gather (old path): synthetic_source's activity mask through an index gather
clean_dry_signal_gather (old path): dry-signal cleaning through an index gather
convolve_segment_fftconvolve (same formula): the segment convolution by SciPy's fftconvolve
render_moving_source_full_length (old path): the full-length float64 overlap-add, with roomsim's RIR sets
lowpass_taps_firwin (same formula): the source lowpass by SciPy's firwin
synthetic_source_lfilter (old path): the synthetic source through firwin and lfilter
_conv3d_pad, _conv3d_cols (old path): the padding and im2col of the two below
conv3d_im2col_forward (old path): conv3d forward as one im2col product [test_conv3d_identity_kernel, TestCausality]
conv3d_im2col_backward (old path): conv3d gradients by col2im [TestGradients, finite differences]
conv1d_loop_forward (old path): conv1d forward as a loop over taps [test_conv1d_identity_kernel, TestCausality]
conv1d_loop_backward (old path): conv1d gradients by that loop [TestGradients, finite differences]
wav_rows_scipy (independent): WAV samples read by SciPy's wavfile, scaled as the package once did
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile
from scipy.signal import fftconvolve, firwin, lfilter

from srptrack import roomsim
from srptrack.errors import DegenerateDirection
from srptrack.roomsim import OVERSAMPLE, SINC_HALF_WIDTH, MicSignals, Room, image_counts
from srptrack.srpfeat import _PHAT_EPS_REL, default_lag_range, gcc_set, srp_map


def plane_wave_frames(dry: np.ndarray, mic_positions: np.ndarray, u: np.ndarray, fs: float, c: float = 343.0) -> np.ndarray:
    """Far-field signals: each channel is ``dry`` circularly delayed by
    ``tau_n = -(r_n . u) / c`` via an exact frequency-domain phase ramp."""
    k = len(dry)
    spectrum = np.fft.rfft(dry)
    freqs = np.fft.rfftfreq(k, d=1.0 / fs)
    taus = -(mic_positions @ u) / c
    out = np.empty((len(mic_positions), k))
    for n, tau in enumerate(taus):
        out[n] = np.fft.irfft(spectrum * np.exp(-2j * np.pi * freqs * tau), n=k)
    return out


def srp_direct_pairwise(frames: np.ndarray, mic_positions: np.ndarray, grid_units: np.ndarray, fs: float, c: float = 343.0) -> np.ndarray:
    """Steered response power from the frequency domain, expanded pairwise,
    with each pair's steering delay rounded to the nearest sample.

    Returns a map scaled by the frame length K relative to a per-sample GCC
    sum (the DFT ``sum_k`` contributes a factor of K).
    """
    n_mics, k = frames.shape
    spectra = np.fft.fft(frames, axis=-1)
    mag = np.abs(spectra)
    phat = spectra / np.maximum(mag, mag.max() * 1e-12)
    bins = np.arange(k)
    nt, npx = grid_units.shape[:2]
    out = np.zeros((nt, npx))
    for i in range(nt):
        for j in range(npx):
            u = grid_units[i, j]
            taus = -(mic_positions @ u) / c
            acc = 0.0
            for n in range(n_mics):
                for m in range(n_mics):
                    lag = np.rint((taus[n] - taus[m]) * fs)
                    phase = np.exp(2j * np.pi * bins * lag / k)
                    acc += np.real(np.sum(phat[n] * np.conj(phat[m]) * phase))
            out[i, j] = acc
    return out


def srp_direct_two_mic(frames: np.ndarray, mic_positions: np.ndarray, grid_units: np.ndarray, fs: float, c: float = 343.0) -> np.ndarray:
    """Literal squared-magnitude beamformer for a 2-sensor array with integer
    per-sensor steering (sensor 1 taken as the reference)."""
    assert frames.shape[0] == 2
    k = frames.shape[1]
    spectra = np.fft.fft(frames, axis=-1)
    mag = np.abs(spectra)
    phat = spectra / np.maximum(mag, mag.max() * 1e-12)
    bins = np.arange(k)
    nt, npx = grid_units.shape[:2]
    out = np.zeros((nt, npx))
    for i in range(nt):
        for j in range(npx):
            u = grid_units[i, j]
            taus = -(mic_positions @ u) / c
            s0 = np.rint((taus[0] - taus[1]) * fs)
            steered = phat[0] * np.exp(2j * np.pi * bins * s0 / k) + phat[1]
            out[i, j] = np.sum(np.abs(steered) ** 2)
    return out


def schroeder_t60(taps: np.ndarray, fs: float) -> float:
    """Reverberation time from the backward-integrated energy decay, fitted
    between the -5 dB and -25 dB crossings."""
    energy = np.cumsum(np.asarray(taps, dtype=float)[::-1] ** 2)[::-1]
    energy = energy / energy[0]
    with np.errstate(divide="ignore"):
        curve = 10.0 * np.log10(energy)
    start = int(np.argmax(curve <= -5.0))
    stop = int(np.argmax(curve <= -25.0))
    if curve[start] > -5.0 or curve[stop] > -25.0 or stop <= start:
        raise ValueError("decay range [-5, -25] dB not reached")
    t = np.arange(start, stop) / fs
    slope, _ = np.polyfit(t, curve[start:stop], 1)
    return -60.0 / slope


def images_in_sphere(dims, t_max: float, c: float = 343.0) -> float:
    """Expected image count within ``c * t_max`` of a point: the mirrored
    rooms tile space, one image per room volume, so the sphere's volume over
    the room's."""
    return 4.0 / 3.0 * math.pi * (c * t_max) ** 3 / float(np.prod(dims))


# The image-source RIR path as it stood before the polyphase kernel: every
# microphone runs its own pass over the whole image grid, and one FFT
# convolution on the 16x oversampled grid applies the 1281-tap kernel. It
# shares the kernel constants and image_counts with the package, and restates
# its reflection count.
def sinc_kernel_oversampled() -> np.ndarray:
    """Hann-windowed sinc on the oversampled grid, 1281 taps."""
    half = SINC_HALF_WIDTH * OVERSAMPLE
    i = np.arange(-half, half + 1)
    window = 0.5 * (1.0 + np.cos(np.pi * i / half))
    return window * np.sinc(i / OVERSAMPLE)


def deposit_to_rirs_oversampled(hist_up: np.ndarray, n_taps: int) -> np.ndarray:
    """Convolve oversampled impulse deposits with the sinc kernel and decimate."""
    half = SINC_HALF_WIDTH * OVERSAMPLE
    full = fftconvolve(hist_up, sinc_kernel_oversampled()[None, :], axes=1)
    idx = np.arange(n_taps) * OVERSAMPLE + half
    return full[:, idx]


def rirs_for_point_oversampled(
    room: Room, src: np.ndarray, mic_positions: np.ndarray, fs: float, t_max: float, c: float
) -> np.ndarray:
    """Image-source RIRs from one source point to every microphone."""
    n_mics = mic_positions.shape[0]
    n_taps = int(round(t_max * fs))
    n_up = n_taps * OVERSAMPLE + 1
    hist = np.zeros((n_mics, n_up))
    max_dist = c * t_max

    if room.beta == 0.0:
        # fully absorbing walls: only the direct path survives
        d = np.linalg.norm(mic_positions - src, axis=1)
        q = np.rint(d / c * fs * OVERSAMPLE).astype(int)
        keep = q < n_up
        np.add.at(hist, (np.arange(n_mics)[keep], q[keep]), 1.0 / (4.0 * np.pi * d[keep]))
        return deposit_to_rirs_oversampled(hist, n_taps)

    counts = image_counts(room.dims, t_max)
    grids = [np.arange(-n, n + 1) for n in counts]
    # per axis and wall-parity: image coordinate and reflection count
    coords = [[(1 - 2 * p) * src[a] + 2 * grids[a] * room.dims[a] for p in (0, 1)] for a in range(3)]
    expos = [[np.abs(grids[a] + p) + np.abs(grids[a]) for p in (0, 1)] for a in range(3)]
    log_beta = math.log(room.beta)

    for px in (0, 1):
        for py in (0, 1):
            for pz in (0, 1):
                expo = (
                    expos[0][px][:, None, None]
                    + expos[1][py][None, :, None]
                    + expos[2][pz][None, None, :]
                )
                gain = np.exp(log_beta * expo)
                for m in range(n_mics):
                    d2 = (
                        (coords[0][px] - mic_positions[m, 0])[:, None, None] ** 2
                        + (coords[1][py] - mic_positions[m, 1])[None, :, None] ** 2
                        + (coords[2][pz] - mic_positions[m, 2])[None, None, :] ** 2
                    )
                    d = np.sqrt(d2)
                    keep = d <= max_dist
                    dk = d[keep]
                    amp = gain[keep] / (4.0 * np.pi * np.maximum(dk, 1e-9))
                    q = np.rint(dk / c * fs * OVERSAMPLE).astype(int)
                    inside = q < n_up
                    hist[m] += np.bincount(q[inside], weights=amp[inside], minlength=n_up)
    return deposit_to_rirs_oversampled(hist, n_taps)


# The feature path as it stood before maps became plain arrays: sensor pairs
# as a Python list, one pair and one frame at a time. Bodies are verbatim
# apart from returning arrays where the old code wrapped them; only
# FramingConfig and the PHAT floor come from the package.
def gcc_phat(frame_n: np.ndarray, frame_m: np.ndarray, lag_range: int) -> np.ndarray:
    """PHAT-weighted cross-correlation of two equal-length frames.

    Returns values for integer lags ``-lag_range .. +lag_range``. With
    ``frame_n`` equal to ``frame_m`` delayed by d samples, the peak sits at
    lag +d.
    """
    frame_n = np.asarray(frame_n, dtype=float)
    frame_m = np.asarray(frame_m, dtype=float)
    if frame_n.shape != frame_m.shape:
        raise ValueError("frames must have equal length")
    k = frame_n.shape[-1]
    cross = np.fft.rfft(frame_n) * np.conj(np.fft.rfft(frame_m))
    mag = np.abs(cross)
    floor = max(float(mag.max()) * _PHAT_EPS_REL, np.finfo(float).tiny)
    r = np.fft.irfft(cross / np.maximum(mag, floor), n=k)
    return np.concatenate([r[-lag_range:], r[: lag_range + 1]])


def frame_signal_per_frame(channels: np.ndarray, cfg) -> np.ndarray:
    channels = np.atleast_2d(np.asarray(channels))
    n = channels.shape[-1]
    t = cfg.n_frames(n)
    idx = np.arange(cfg.K)[None, :] + cfg.hop * np.arange(t)[:, None]
    return channels[:, idx] * np.hanning(cfg.K)


def energy_vad_per_frame(channels: np.ndarray, cfg, abs_floor=1e-6, rel_threshold=0.05) -> np.ndarray:
    channels = np.atleast_2d(np.asarray(channels))
    t = cfg.n_frames(channels.shape[-1])
    idx = np.arange(cfg.K)[None, :] + cfg.hop * np.arange(t)[:, None]
    frames = channels[:, idx] * np.hanning(cfg.K)
    rms = np.sqrt(np.mean(frames**2, axis=(0, 2)))
    running_max = np.maximum.accumulate(rms)
    return rms > np.maximum(abs_floor, rel_threshold * running_max)


def gcc_set_per_pair(frames: np.ndarray, lag_range: int):
    """(pair_lags, auto_zero, pairs) of one frame, one pair at a time."""
    frames = np.asarray(frames, dtype=float)
    n_mics, k = frames.shape
    spectra = np.fft.rfft(frames, axis=-1)
    pairs = [(i, j) for i in range(n_mics) for j in range(i + 1, n_mics)]
    cross = np.stack([spectra[n] * np.conj(spectra[m]) for n, m in pairs])
    mag = np.abs(cross)
    floor = np.maximum(mag.max(axis=-1, keepdims=True) * _PHAT_EPS_REL, np.finfo(float).tiny)
    r = np.fft.irfft(cross / np.maximum(mag, floor), n=k, axis=-1)
    pair_lags = np.concatenate([r[:, -lag_range:], r[:, : lag_range + 1]], axis=-1)
    auto_mag = np.abs(spectra) ** 2
    auto_floor = np.maximum(auto_mag.max(axis=-1, keepdims=True) * _PHAT_EPS_REL, np.finfo(float).tiny)
    auto_zero = np.mean(auto_mag / np.maximum(auto_mag, auto_floor), axis=-1)
    return pair_lags, auto_zero, pairs


def srp_map_per_pair(pair_lags, auto_zero, pairs, lag_range, delays: np.ndarray, fs: float) -> np.ndarray:
    lag_idx = np.rint(delays * fs).astype(int)  # (N, N, nt, np)
    nt, npx = delays.shape[2:]
    values = np.full((nt, npx), float(np.sum(auto_zero)))
    for p, (n, m) in enumerate(pairs):
        values += 2.0 * pair_lags[p, lag_range + lag_idx[n, m]]
    return values


def normalize_map_single(values: np.ndarray) -> np.ndarray:
    v = values - values.mean()
    peak = np.max(np.abs(v))
    if peak > 0.0:
        v = v / peak
    return v


def input_tensor_per_frame(channels, delays, cfg, vad_mask=None):
    """(maps, vad, argmax_doa) of the old per-frame compute_input_tensor."""
    grid = delays.grid
    lag_range = max(
        int(np.ceil(delays.array.aperture * cfg.fs / 343.0)),
        int(np.max(np.abs(np.rint(delays.delays * cfg.fs)))),
    )
    frames = frame_signal_per_frame(channels, cfg)
    maps = np.stack([
        normalize_map_single(srp_map_per_pair(*gcc_set_per_pair(frames[:, i], lag_range), lag_range,
                                              delays.delays, cfg.fs))
        for i in range(frames.shape[1])
    ])
    vad = np.asarray(energy_vad_per_frame(channels, cfg) if vad_mask is None else vad_mask, dtype=bool)
    argmax = np.zeros((maps.shape[0], 2))
    for i, pmap in enumerate(maps):
        argmax[i], _ = grid_argmax(pmap, grid)
    return maps, vad, argmax


# The feature pass as it stood before it streamed frame by frame: the whole
# (n_ch, T, K) Hann-windowed frame array first, then one GCC set and one map
# per frame. The body is verbatim; the GCC kernel and the map are the
# package's, so this pins the streaming, not the kernels.
def power_maps_windowed(frames: np.ndarray, delays, fs: int) -> np.ndarray:
    """Raw SRP-PHAT maps (T, n_theta, n_phi) of Hann-windowed frames
    (n_ch, T, K) sampled at ``fs``."""
    lag_range = default_lag_range(delays.array, fs)
    return np.stack([srp_map(gcc_set(frames[:, i], lag_range), delays, fs)
                     for i in range(frames.shape[1])])


def gcc_features_windowed(frames: np.ndarray, lag_range: int) -> np.ndarray:
    """(n_pairs * n_lags, T) stacked GCC-PHAT values of Hann-windowed frames
    (n_ch, T, K), before any VAD mask."""
    return np.stack([gcc_set(frames[:, i], lag_range).pair_lags.reshape(-1)
                     for i in range(frames.shape[1])], axis=1)


def grid_unit_vectors_broadcast(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    th = thetas[:, None]
    ph = phis[None, :]
    return np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th) * np.ones_like(ph)],
        axis=-1,
    )


def delay_table_from_units(positions: np.ndarray, u: np.ndarray, c: float = 343.0) -> np.ndarray:
    tau = -np.tensordot(positions, u, axes=([1], [2])) / c  # (n_mics, nt, np)
    return tau[:, None, :, :] - tau[None, :, :, :]


def gt_units_from_angles(gt_doa: np.ndarray) -> np.ndarray:
    th = gt_doa[:, 0]
    ph = gt_doa[:, 1]
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)


def doa_to_unit_from_pair(theta: float, phi: float) -> np.ndarray:
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


# The scalar direction layer that plain arrays replaced: one vector, one
# grid map at a time. Bodies are verbatim apart from returning (theta, phi)
# tuples where the old code built a Doa object.
def unit_to_doa(v) -> tuple[float, float]:
    """(theta, phi) of one direction vector; tolerates non-unit input."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm <= 1e-8:
        raise DegenerateDirection(f"direction norm {norm:.3g} too small")
    theta = math.acos(min(1.0, max(-1.0, v[2] / norm)))
    phi = math.atan2(v[1], v[0])
    return theta, phi


def grid_argmax(values: np.ndarray, grid) -> tuple[tuple[float, float], tuple[int, int]]:
    """Grid (theta, phi) of the map maximum and its (i, j) index; ties break
    to the lowest row-major index, and a maximum at a pole has azimuth 0."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"map shape {values.shape} != grid shape {grid.shape}")
    flat = int(np.argmax(values))
    i, j = divmod(flat, grid.n_phi)
    phi = 0.0 if i in (0, grid.n_theta - 1) else float(grid.phis[j])
    return (float(grid.thetas[i]), phi), (i, j)


def angular_errors_per_frame(est: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Great-circle angle between matching rows of two (T, 3) stacks, one row at a time."""
    out = []
    for a, b in zip(np.asarray(est, dtype=float), np.asarray(gt, dtype=float)):
        cos = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        out.append(math.acos(min(1.0, max(-1.0, cos))))
    return np.array(out)


def clean_dry_signal_per_frame(sig: np.ndarray, vad_mask: np.ndarray, framing) -> np.ndarray:
    keep = np.zeros(len(sig), dtype=bool)
    for i in np.nonzero(vad_mask)[0]:
        keep[i * framing.hop : i * framing.hop + framing.K] = True
    out = sig.copy()
    out[~keep] = 0.0
    return out


# The index gathers that FramingConfig.frames replaced: each builds the (T, K)
# table of frame sample indices and gathers through it.
def frame_index_table(n_frames: int, framing) -> np.ndarray:
    return np.arange(framing.K)[None, :] + framing.hop * np.arange(n_frames)[:, None]


def add_noise_gather(sig, snr_db: float, vad_mask: np.ndarray, rng: np.random.Generator, framing):
    """roomsim.add_noise with the signal power measured on an index gather."""
    if snr_db == math.inf:
        return MicSignals(channels=sig.channels.copy(), fs=sig.fs)
    vad_mask = np.asarray(vad_mask, dtype=bool)
    frames = sig.channels[:, frame_index_table(len(vad_mask), framing)]  # (n_ch, T, K)
    p_sig = float(np.mean(frames[:, vad_mask] ** 2))
    sigma = math.sqrt(p_sig * 10.0 ** (-snr_db / 10.0))
    noise = rng.normal(0.0, sigma, size=sig.channels.shape)
    return MicSignals(channels=(sig.channels + noise).astype(sig.channels.dtype), fs=sig.fs)


def activity_mask_gather(sig: np.ndarray, framing) -> np.ndarray:
    """synthetic_source's activity mask: the frames of nonzero power."""
    idx = frame_index_table(framing.n_frames(len(sig)), framing)
    return np.mean(sig[idx] ** 2, axis=1) > 0.0


def clean_dry_signal_gather(sig: np.ndarray, vad_mask: np.ndarray, framing) -> np.ndarray:
    keep = np.zeros(len(sig), dtype=bool)
    keep[frame_index_table(len(vad_mask), framing)[np.asarray(vad_mask, dtype=bool)]] = True
    out = sig.copy()
    out[~keep] = 0.0
    return out


# The scipy.signal calls that render_moving_source and synthetic_source made
# before the package stopped importing scipy.signal.
def convolve_segment_fftconvolve(segment: np.ndarray, rirs: np.ndarray) -> np.ndarray:
    return fftconvolve(segment[None], rirs, axes=1)


# render_moving_source's rendering as it stood before the overlap-add kept
# only a window of float64 sums: one full-length float64 sum, cast at the end.
# The body is verbatim after the argument checks, which it leaves out; the RIR
# sets, the segment convolution and the worker count come from roomsim.
def render_moving_source_full_length(dry, traj_points, mic_positions, room, fs, t_max=None, *, hop, dtype=np.float32):
    dry = np.asarray(dry, dtype=float)
    traj_points = np.atleast_2d(np.asarray(traj_points, dtype=float))
    mic_positions = np.atleast_2d(np.asarray(mic_positions, dtype=float))
    n_points = traj_points.shape[0]
    if t_max is None:
        t_max = roomsim._default_t_max(room, fs)

    starts = np.flatnonzero(np.r_[True, np.any(traj_points[1:] != traj_points[:-1], axis=1)]).tolist()
    runs = list(zip(starts, starts[1:] + [n_points]))

    def rirs(run):
        return roomsim._rirs_for_point(room, traj_points[run[0]], mic_positions, fs, t_max)

    pool = ThreadPoolExecutor(min(roomsim._worker_count(), len(runs)))
    try:
        out = np.zeros((mic_positions.shape[0], len(dry)))
        for (start, stop), rir_set in zip(runs, pool.map(rirs, runs)):
            seg_lo = start * hop
            seg_hi = stop * hop if stop < n_points else len(dry)
            wet = roomsim._convolve_segment(dry[seg_lo:seg_hi], rir_set)
            hi = min(seg_lo + wet.shape[1], len(dry))
            out[:, seg_lo:hi] += wet[:, : hi - seg_lo]
    finally:
        pool.shutdown(cancel_futures=True)
    return MicSignals(channels=out.astype(dtype), fs=fs)


def lowpass_taps_firwin(fs: float) -> np.ndarray:
    return firwin(63, 3400.0, fs=fs, window=("kaiser", 9.0))


def synthetic_source_lfilter(duration: float, framing, rng: np.random.Generator):
    """synthetic_source with the firwin design and the lfilter call; the
    body is otherwise verbatim."""
    fs = framing.fs
    n = int(round(duration * fs))
    gate = np.zeros(n)
    pos = 0
    active = True
    while pos < n:
        seg = rng.uniform(0.3, 2.0) if active else rng.uniform(0.1, 1.0)
        stop = min(n, pos + int(seg * fs))
        if active:
            gate[pos:stop] = 1.0
        pos = stop
        active = not active
    noise = rng.normal(size=n)
    n_knots = max(2, int(duration * 4))
    knots = rng.uniform(0.3, 1.0, size=n_knots)
    envelope = np.interp(np.arange(n), np.linspace(0, n - 1, n_knots), knots)
    raw = noise * gate * envelope
    sig = lfilter(lowpass_taps_firwin(fs), 1.0, raw)
    peak = np.max(np.abs(sig))
    if peak > 0:
        sig = 0.5 * sig / peak
    return sig, np.mean(framing.frames(sig) ** 2, axis=1) > 0.0


# The causal convolutions as they stood before the shared tap loop: the 3D
# layer as one im2col matrix product plus a col2im loop, the 1D layer as its
# own loop over taps. Bodies are verbatim apart from taking the weights, bias
# and input as arguments instead of layer state; each backward returns
# (input gradient, weight gradient, bias gradient).
def _conv3d_pad(x, kernel):
    kt, kh, kw = kernel
    return np.pad(x, ((0, 0), (kt - 1, 0), ((kh - 1) // 2,) * 2, ((kw - 1) // 2,) * 2))


def _conv3d_cols(xp, kernel, t, h, w):
    win = sliding_window_view(xp, kernel, axis=(1, 2, 3))  # (C, T, H, W, kt, kh, kw)
    return win.transpose(0, 4, 5, 6, 1, 2, 3).reshape(xp.shape[0] * np.prod(kernel), t * h * w)


def conv3d_im2col_forward(weight: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    out_ch, kernel = weight.shape[0], weight.shape[2:]
    _, t, h, w = x.shape
    xp = _conv3d_pad(x, kernel)
    w2 = weight.reshape(out_ch, -1)
    out = w2 @ _conv3d_cols(xp, kernel, t, h, w) + bias[:, None]
    return out.reshape(out_ch, t, h, w)


def conv3d_im2col_backward(weight: np.ndarray, x: np.ndarray, grad_out: np.ndarray):
    out_ch, in_ch, kt, kh, kw = weight.shape
    _, t, h, w = x.shape
    xp = _conv3d_pad(x, (kt, kh, kw))
    d = grad_out.reshape(out_ch, -1)
    gb = d.sum(axis=1)
    cols = _conv3d_cols(xp, (kt, kh, kw), t, h, w)
    gw = (d @ cols.T).reshape(weight.shape)
    gcols = (weight.reshape(out_ch, -1).T @ d).reshape(in_ch, kt, kh, kw, t, h, w)
    gxp = np.zeros_like(xp)
    for a in range(kt):
        for i in range(kh):
            for j in range(kw):
                gxp[:, a : a + t, i : i + h, j : j + w] += gcols[:, a, i, j]
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    return gxp[:, kt - 1 :, ph : ph + h, pw : pw + w], gw, gb


def conv1d_loop_forward(weight: np.ndarray, bias: np.ndarray, x: np.ndarray, dilation: int) -> np.ndarray:
    out_ch, kernel = weight.shape[0], weight.shape[2]
    t = x.shape[1]
    pad = (kernel - 1) * dilation
    xp = np.pad(x, ((0, 0), (pad, 0)))
    out = np.broadcast_to(bias[:, None], (out_ch, t)).copy()
    for j in range(kernel):
        out += weight[:, :, j] @ xp[:, j * dilation : j * dilation + t]
    return out


def conv1d_loop_backward(weight: np.ndarray, x: np.ndarray, grad_out: np.ndarray, dilation: int):
    kernel = weight.shape[2]
    t = x.shape[1]
    pad = (kernel - 1) * dilation
    xp = np.pad(x, ((0, 0), (pad, 0)))
    gb = grad_out.sum(axis=1)
    gw = np.zeros_like(weight)
    gxp = np.zeros_like(xp)
    for j in range(kernel):
        seg = slice(j * dilation, j * dilation + t)
        gw[:, :, j] += grad_out @ xp[:, seg].T
        gxp[:, seg] += weight[:, :, j].T @ grad_out
    return gxp[:, pad:], gw, gb


def wav_rows_scipy(path) -> tuple[int, np.ndarray]:
    """(fs, float32 rows) of a WAV file read by ``scipy.io.wavfile`` and scaled
    as ``MicSignals.from_wav`` did before the package read WAVs itself; the
    scaling is verbatim."""
    fs, data = wavfile.read(path)
    if data.ndim == 1:
        data = data[:, None]
    if data.dtype == np.uint8:
        data = (data.astype(np.float32) - 128.0) / 128.0
    elif data.dtype == np.int16:
        data = data.astype(np.float32) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float32) / 2147483648.0
    assert data.dtype.kind == "f", data.dtype
    return int(fs), np.ascontiguousarray(data.T, dtype=np.float32)
