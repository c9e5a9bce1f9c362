"""Exception types shared across the package."""


class MassdriftError(Exception):
    """Base class for all package-specific errors."""


class TruncationOverflow(MassdriftError):
    """Too much mass reached the truncation boundary; the window is too small."""


class SymmetryRequired(MassdriftError):
    """Operation needs a symmetric step law and got an asymmetric one."""


class InconclusiveAtTruncation(MassdriftError):
    """The queried set touches the truncation boundary; verdict would not be trustworthy."""


class SpecInvalid(MassdriftError):
    """A model specification fails its validity constraints."""


class OrbitSingular(MassdriftError):
    """An orbit iterate came too close to a singular point of the map."""


class DegenerateBasis(MassdriftError):
    """Lattice basis reduction failed to terminate; basis is numerically degenerate."""


class PingPongViolation(MassdriftError):
    """Schottky generator disks are not pairwise disjoint."""


class BoundednessViolation(MassdriftError):
    """All generators are bounded (elliptic); the escape hypothesis fails."""


class NonFiniteProxy(MassdriftError):
    """A walker's escape proxy overflowed to inf or NaN; no retention verdict is possible."""
