"""Independent reference implementations used only to verify the package.

Everything here is computed from first principles (full-spectrum DFTs,
explicit loops, textbook formulas) and deliberately avoids the code paths
under test.
"""

import math

import numpy as np
from scipy.signal import fftconvolve

from srptrack.roomsim import _KERNEL_UP, OVERSAMPLE, SINC_HALF_WIDTH, Room, image_counts


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
