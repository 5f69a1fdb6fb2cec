"""Exception types shared across the toolkit."""


class NetTspError(Exception):
    """Base class for all toolkit errors."""


class DegenerateInstance(NetTspError):
    """Two distinct point indices coincide (zero distance); deduplicate first."""


class BadScale(NetTspError):
    """Hierarchy scale base below the admissible minimum."""


class OddParity(NetTspError):
    """A perfect matching was requested on an odd-sized vertex set."""


class Disconnected(NetTspError):
    """Multigraph assembled for an Euler tour is not connected."""


class Infeasible(NetTspError):
    """The dynamic program found no valid completion at the root."""


class DegenerateSplit(NetTspError):
    """Instance split produced S2 = S; treat the region as sparse instead."""


class TooLarge(NetTspError):
    """Instance exceeds an exact oracle's size ceiling."""


class ParseError(NetTspError):
    """Instance file is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidMetric(NetTspError):
    """A distance is non-finite, negative, asymmetric or a non-zero self-distance,
    or the diameter spans too many min gaps to normalize."""


class TriangleViolation(NetTspError):
    """Explicit matrix input fails the triangle inequality."""


class ConfigError(NetTspError):
    """Run configuration failed validation."""
