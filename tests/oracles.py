"""Independent reference implementations used only to verify the package.

Everything here is computed from first principles (full-spectrum DFTs,
explicit loops, textbook formulas) and deliberately avoids the code paths
under test.
"""

import math

import numpy as np
from scipy.signal import fftconvolve

from srptrack.roomsim import _KERNEL_UP, OVERSAMPLE, SINC_HALF_WIDTH, Room, image_counts
from srptrack.srpfeat import _PHAT_EPS_REL


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


# The image-source RIR path as it stood before the polyphase kernel: every
# microphone runs its own pass over the whole image grid, and one FFT
# convolution on the 16x oversampled grid applies the 1281-tap kernel. It
# shares only the kernel table and image_counts with the package.
def deposit_to_rirs_oversampled(hist_up: np.ndarray, n_taps: int) -> np.ndarray:
    """Convolve oversampled impulse deposits with the sinc kernel and decimate."""
    half = SINC_HALF_WIDTH * OVERSAMPLE
    full = fftconvolve(hist_up, _KERNEL_UP[None, :], axes=1)
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

    counts = image_counts(room.dims, t_max, c)
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
# FramingConfig, grid_argmax and the PHAT floor come from the package.
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
    """(data, vad, argmax_doa) of the old per-frame compute_input_tensor."""
    from srptrack.geometry import grid_argmax

    grid = delays.grid
    lag_range = max(
        int(np.ceil(delays.array.aperture * cfg.fs / delays.c)),
        int(np.max(np.abs(np.rint(delays.delays * cfg.fs)))),
    )
    frames = frame_signal_per_frame(channels, cfg)
    maps = np.stack([
        normalize_map_single(srp_map_per_pair(*gcc_set_per_pair(frames[:, i], lag_range), lag_range,
                                              delays.delays, cfg.fs))
        for i in range(frames.shape[1])
    ])
    vad = np.asarray(energy_vad_per_frame(channels, cfg) if vad_mask is None else vad_mask, dtype=bool)
    t = maps.shape[0]
    data = np.zeros((3, t) + grid.shape)
    argmax = np.zeros((t, 2))
    for i in range(t):
        doa, _ = grid_argmax(maps[i], grid)
        argmax[i] = (doa.theta, doa.phi)
        if vad[i]:
            data[0, i] = maps[i]
            data[1, i] = doa.theta / np.pi
            data[2, i] = (doa.phi + np.pi) / (2.0 * np.pi)
    return data, vad, argmax


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
