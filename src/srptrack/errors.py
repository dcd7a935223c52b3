"""Exception types shared across the package."""


class SrpTrackError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateDirection(SrpTrackError):
    """A direction vector is too close to zero to define a DOA."""


class OutOfRoom(SrpTrackError):
    """A source or microphone position lies outside the room."""


class AllSilent(SrpTrackError):
    """Every frame of a signal is marked silent."""


class TooShort(SrpTrackError):
    """A signal is shorter than one analysis window, or an analysis window
    is shorter than the span of lags the array needs."""


class LagRangeTooSmall(SrpTrackError):
    """The stored GCC lag range does not cover the delay table."""


class ImageGridTooLarge(SrpTrackError):
    """An RIR's image-source grid is too large to allocate."""


class ShapeError(SrpTrackError):
    """Tensor or layer shapes are inconsistent."""


class TapeError(SrpTrackError):
    """A backward pass has no matching entry on the tape of a forward pass:
    none was kept, the tape is used up, or its next entry is another layer's."""


class FormatError(SrpTrackError):
    """A file cannot be opened or does not match the expected on-disk format."""


class EmptySelection(SrpTrackError):
    """A metric was requested over an empty frame selection."""


class NonPhysicalT60Warning(UserWarning):
    """Requested T60 implies an absorption coefficient >= 1."""
