"""Coordinate conventions, microphone arrays and spherical evaluation grids.

Conventions used throughout the package:

- Cartesian positions are metres, stored as length-3 float arrays.
- Elevation ``theta`` is measured from the +z axis, ``theta in [0, pi]``.
- Azimuth ``phi`` is measured from +x towards +y, ``phi in [-pi, pi)``.
  The azimuth zero reference is the array's +x axis.
- Inter-sensor delays follow a far-field plane-wave model relative to the
  array origin: ``tau_n = -(r_n . u) / c``, so sensors with a positive
  projection onto the source direction receive the wavefront earlier.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateDirection

SPEED_OF_SOUND = 343.0  # m/s, room temperature

_MIN_DIRECTION_NORM = 1e-8


def as_vec3(v) -> np.ndarray:
    """Coerce to a finite (3,) float array."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector components must be finite")
    return arr


@dataclass(frozen=True)
class Doa:
    """Direction of arrival: elevation from +z and azimuth from +x."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta={self.theta} outside [0, pi]")
        if not -math.pi <= self.phi <= math.pi:
            raise ValueError(f"phi={self.phi} outside [-pi, pi]")

    @property
    def degrees(self) -> tuple[float, float]:
        return math.degrees(self.theta), math.degrees(self.phi)


def sphere_to_unit(theta, phi) -> np.ndarray:
    """Unit vectors ``(..., 3)`` for elevations ``theta`` and azimuths ``phi``;
    the two angle arrays broadcast against each other."""
    st = np.sin(theta)
    return np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), np.cos(theta)), axis=-1)


def doa_to_unit(doa: Doa) -> np.ndarray:
    """Unit vector pointing towards ``doa``."""
    return sphere_to_unit(doa.theta, doa.phi)


def unit_to_doa(v) -> Doa:
    """Inverse of :func:`doa_to_unit`; tolerates non-unit input vectors."""
    v = as_vec3(v)
    norm = np.linalg.norm(v)
    if norm <= _MIN_DIRECTION_NORM:
        raise DegenerateDirection(f"direction norm {norm:.3g} too small")
    theta = math.acos(min(1.0, max(-1.0, v[2] / norm)))
    phi = math.atan2(v[1], v[0])
    return Doa(theta, phi)


def angular_error(a, b):
    """Great-circle angle in radians between direction vectors: a float for
    two 3-vectors, an ``(N,)`` array for ``(N, 3)`` stacks (broadcast by row)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,):
        raise ValueError(f"expected 3-vectors, got shapes {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("vector components must be finite")
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    if np.any(na <= _MIN_DIRECTION_NORM) or np.any(nb <= _MIN_DIRECTION_NORM):
        raise DegenerateDirection("cannot measure the angle to a zero vector")
    # atan2 of |a x b| and a . b stays accurate for nearly parallel vectors,
    # where acos of their cosine loses half the digits
    angle = np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1), np.sum(a * b, axis=-1))
    return float(angle) if angle.ndim == 0 else angle


@dataclass(frozen=True, eq=False)
class MicArray:
    """Sensor positions in metres, relative to the array origin."""

    positions: np.ndarray  # (n_mics, 3)
    name: str = "array"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (n_mics, 3), got {pos.shape}")
        if pos.shape[0] < 2:
            raise ValueError("an array needs at least 2 sensors")
        if not np.all(np.isfinite(pos)):
            raise ValueError("sensor positions must be finite")
        dists = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        iu = np.triu_indices(pos.shape[0], k=1)
        if np.min(dists[iu]) <= 0.0:
            raise ValueError("two sensors coincide")
        object.__setattr__(self, "positions", pos)

    @property
    def n_mics(self) -> int:
        return self.positions.shape[0]

    @property
    def aperture(self) -> float:
        """Largest pairwise sensor distance in metres."""
        dists = np.linalg.norm(self.positions[:, None, :] - self.positions[None, :, :], axis=-1)
        return float(dists.max())

    @property
    def min_spacing(self) -> float:
        dists = np.linalg.norm(self.positions[:, None, :] - self.positions[None, :, :], axis=-1)
        iu = np.triu_indices(self.n_mics, k=1)
        return float(dists[iu].min())

    def pairs(self) -> list[tuple[int, int]]:
        """All sensor index pairs (n, m) with n < m."""
        n = self.n_mics
        return [(i, j) for i in range(n) for j in range(i + 1, n)]

    @classmethod
    def from_json(cls, path) -> "MicArray":
        """Load from a geometry file ``{"name": ..., "positions_m": [[x,y,z], ...]}``."""
        with open(path) as f:
            obj = json.load(f)
        return cls(positions=np.array(obj["positions_m"], dtype=float), name=obj.get("name", "array"))

    def to_json(self, path) -> None:
        obj = {"name": self.name, "positions_m": self.positions.tolist()}
        Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def default_array() -> MicArray:
    """The bundled 12-sensor robot-head array geometry."""
    return MicArray.from_json(Path(__file__).parent / "data" / "nao_head_12ch.json")


@dataclass(frozen=True, eq=False)
class SphericalGrid:
    """Equispaced elevation x azimuth evaluation grid.

    Elevations include both poles (spacing ``pi / (n_theta - 1)``); azimuths
    cover the circle starting at ``-pi`` with spacing ``2*pi / n_phi`` and no
    duplicated endpoint.
    """

    n_theta: int
    n_phi: int
    thetas: np.ndarray = field(init=False)
    phis: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n_theta < 2 or self.n_phi < 2:
            raise ValueError("grid needs at least 2 points per axis")
        object.__setattr__(self, "thetas", np.linspace(0.0, math.pi, self.n_theta))
        object.__setattr__(self, "phis", -math.pi + np.arange(self.n_phi) * (2.0 * math.pi / self.n_phi))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_theta, self.n_phi)

    @property
    def n_distinct_directions(self) -> int:
        """Grid points after merging each polar ring into a single direction."""
        return (self.n_theta - 2) * self.n_phi + 2

    def doa_at(self, i: int, j: int) -> Doa:
        return Doa(float(self.thetas[i]), float(self.phis[j]))

    def unit_vectors(self) -> np.ndarray:
        """(n_theta, n_phi, 3) array of direction unit vectors."""
        return sphere_to_unit(self.thetas[:, None], self.phis[None, :])


@dataclass(frozen=True, eq=False)
class DelayTable:
    """Pairwise plane-wave delays ``delta_tau[n, m, i, j] = tau_n - tau_m`` in seconds."""

    delays: np.ndarray  # (n_mics, n_mics, n_theta, n_phi)
    array: MicArray
    grid: SphericalGrid
    c: float

    def max_abs_lag(self, fs: float) -> int:
        """Largest delay magnitude in (rounded) samples at rate ``fs``."""
        return int(np.max(np.abs(np.rint(self.delays * fs))))


def delay_table(array: MicArray, grid: SphericalGrid, c: float = SPEED_OF_SOUND) -> DelayTable:
    """Far-field delay table over the grid: ``tau_n = -(r_n . u) / c``."""
    u = grid.unit_vectors()  # (nt, np, 3)
    tau = -np.tensordot(array.positions, u, axes=([1], [2])) / c  # (n_mics, nt, np)
    delays = tau[:, None, :, :] - tau[None, :, :, :]
    return DelayTable(delays=delays, array=array, grid=grid, c=c)


def grid_argmax(values: np.ndarray, grid: SphericalGrid) -> tuple[Doa, tuple[int, int]]:
    """Grid DOA of the map maximum; ties break to the lowest row-major index."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"map shape {values.shape} != grid shape {grid.shape}")
    flat = int(np.argmax(values))
    i, j = divmod(flat, grid.n_phi)
    return grid.doa_at(i, j), (i, j)
