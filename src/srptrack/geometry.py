"""Coordinate conventions, microphone arrays and spherical evaluation grids.

Conventions used throughout the package:

- Cartesian positions are metres, stored as length-3 float arrays.
- Directions are plain arrays: ``(..., 3)`` vectors, or elevation and
  azimuth arrays of matching shape. :func:`sphere_to_unit` and
  :func:`unit_to_sphere` convert between the two over whole stacks.
- Elevation ``theta`` is measured from the +z axis, ``theta in [0, pi]``.
- Azimuth ``phi`` is measured from +x towards +y. Grid azimuths lie in
  ``[-pi, pi)``; :func:`unit_to_sphere` returns ``arctan2``'s
  ``[-pi, pi]``. The azimuth zero reference is the array's +x axis.
- Inter-sensor delays follow a far-field plane-wave model relative to the
  array origin: ``tau_n = -(r_n . u) / c``, so sensors with a positive
  projection onto the source direction receive the wavefront earlier.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateDirection, FormatError

SPEED_OF_SOUND = 343.0  # m/s, room temperature

DEFAULT_GRID = (16, 32)  # (n_theta, n_phi) wherever no resolution is given

_MIN_DIRECTION_NORM = 1e-8


def as_vec3(v) -> np.ndarray:
    """Coerce to a finite (3,) float array."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector components must be finite")
    return arr


def sphere_to_unit(theta, phi) -> np.ndarray:
    """Unit vectors ``(..., 3)`` for elevations ``theta`` and azimuths ``phi``;
    the two angle arrays broadcast against each other."""
    st = np.sin(theta)
    return np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), np.cos(theta)), axis=-1)


def unit_to_sphere(v) -> tuple[np.ndarray, np.ndarray]:
    """Elevations and azimuths ``(...)`` of direction vectors ``(..., 3)``:
    the inverse of :func:`sphere_to_unit`. Vectors need not be unit length;
    theta lies in [0, pi] and phi in [-pi, pi]."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"expected 3-vectors, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    norm = np.linalg.norm(v, axis=-1)
    if np.any(norm <= _MIN_DIRECTION_NORM):
        raise DegenerateDirection(f"direction norm {np.min(norm):.3g} too small")
    theta = np.arccos(np.clip(v[..., 2] / norm, -1.0, 1.0))
    return theta, np.arctan2(v[..., 1], v[..., 0])


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

    @classmethod
    def from_json(cls, path) -> "MicArray":
        """Load from a geometry file ``{"name": ..., "positions_m": [[x,y,z], ...]}``."""
        try:
            with open(path) as f:
                obj = json.load(f)
            return cls(positions=np.array(obj["positions_m"], dtype=float), name=obj.get("name", "array"))
        except OSError as exc:
            raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
        except (ValueError, KeyError, TypeError) as exc:  # bad JSON or text, no key, wrong layout or shape
            raise FormatError(f"{path} is not an array geometry file: {exc!r}") from exc

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
        # numpy integers count; bools and floats, even whole ones, do not
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 2
                   for n in (self.n_theta, self.n_phi)):
            raise ValueError(f"grid needs an integer of at least 2 points per axis,"
                             f" got {self.n_theta!r} x {self.n_phi!r}")
        object.__setattr__(self, "thetas", np.linspace(0.0, math.pi, self.n_theta))
        object.__setattr__(self, "phis", -math.pi + np.arange(self.n_phi) * (2.0 * math.pi / self.n_phi))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_theta, self.n_phi)

    @property
    def n_distinct_directions(self) -> int:
        """Grid points after merging each polar ring into a single direction."""
        return (self.n_theta - 2) * self.n_phi + 2

    def unit_vectors(self) -> np.ndarray:
        """(n_theta, n_phi, 3) array of direction unit vectors."""
        return sphere_to_unit(self.thetas[:, None], self.phis[None, :])


@dataclass(frozen=True, eq=False)
class DelayTable:
    """Pairwise plane-wave delays ``delta_tau[n, m, i, j] = tau_n - tau_m`` in seconds."""

    delays: np.ndarray  # (n_mics, n_mics, n_theta, n_phi)
    array: MicArray
    grid: SphericalGrid


def delay_table(array: MicArray, grid: SphericalGrid) -> DelayTable:
    """Far-field delay table over the grid: ``tau_n = -(r_n . u) / c``."""
    u = grid.unit_vectors()  # (nt, np, 3)
    tau = -np.tensordot(array.positions, u, axes=([1], [2])) / SPEED_OF_SOUND  # (n_mics, nt, np)
    delays = tau[:, None, :, :] - tau[None, :, :, :]
    return DelayTable(delays=delays, array=array, grid=grid)
