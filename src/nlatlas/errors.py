"""Exception types shared across the package."""


class NLAtlasError(Exception):
    """Base class for all domain errors raised by this package."""


class MismatchedLattice(NLAtlasError):
    """Two divisor classes live on blow-ups at different numbers of points."""


class ParityViolation(NLAtlasError):
    """An intersection number has the wrong parity; the lattice data is corrupted."""


class NotNef(NLAtlasError):
    """The hyperplane class pairs negatively with a (-1)-class, so the linear
    system does not define a morphism with the given base-point data."""


class SpanTooSmall(NLAtlasError):
    """The linear system is too small to embed the surface as required."""


class NotProjectable(NLAtlasError):
    """A projection operation was requested on a surface that does not admit it."""


class NegativeCount(NLAtlasError):
    """A dimension count came out negative; the surface data is invalid."""


class DivisibilityViolation(NLAtlasError):
    """An Euler characteristic failed an integrality constraint; corrupted input."""


class DimensionMismatch(NLAtlasError):
    """Blow-up center of inadmissible dimension."""


class Inconsistent(NLAtlasError):
    """A diagram solve produced a negative or contradictory Hodge number."""


class Underdetermined(NLAtlasError):
    """A diagram solve has more unknowns than equations."""


class UnknownPreset(NLAtlasError):
    """No built-in Hodge diamond with that name."""


class DatasetMissing(NLAtlasError):
    """The bundled (or user supplied) table dataset could not be loaded."""


class ParseError(NLAtlasError):
    """A specification string could not be parsed; carries the offending position."""

    def __init__(self, message: str, text: str, position: int):
        self.text = text
        self.position = position
        super().__init__(f"{message} (at position {position} in {text!r})")
