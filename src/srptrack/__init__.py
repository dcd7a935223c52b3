"""Sound source DOA estimation and tracking from SRP-PHAT power maps.

The package covers the full desk-scale pipeline: shoebox room simulation of
moving sources, SRP-PHAT map extraction, a causal 3D-CNN tracker with two
1D-CNN baselines, curriculum training and RMSAE evaluation.
"""

from . import evaluate, geometry, models, roomsim, scenegen, srpfeat, tensornet
from .errors import (
    AllSilent,
    DegenerateDirection,
    EmptySelection,
    FormatError,
    ImageGridTooLarge,
    LagRangeTooSmall,
    NonPhysicalT60Warning,
    OutOfRoom,
    ShapeError,
    SrpTrackError,
    TapeError,
    TooShort,
)
from .geometry import (
    SPEED_OF_SOUND,
    DelayTable,
    MicArray,
    SphericalGrid,
    angular_error,
    default_array,
    delay_table,
    sphere_to_unit,
    unit_to_sphere,
)

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_SOUND",
    "AllSilent",
    "DegenerateDirection",
    "DelayTable",
    "EmptySelection",
    "FormatError",
    "ImageGridTooLarge",
    "LagRangeTooSmall",
    "MicArray",
    "NonPhysicalT60Warning",
    "OutOfRoom",
    "ShapeError",
    "SphericalGrid",
    "SrpTrackError",
    "TapeError",
    "TooShort",
    "angular_error",
    "default_array",
    "delay_table",
    "sphere_to_unit",
    "unit_to_sphere",
    "__version__",
]
