"""Exception types shared across the package."""


class KnxError(Exception):
    """Base class for every knx-specific error."""


class CapExceeded(KnxError):
    """A configured enumeration cap (vertex or weight count) was exceeded."""


class InternalInconsistency(KnxError):
    """A cross-check that should be mathematically impossible to fail has failed."""


class InvalidParameter(KnxError):
    """A construction parameter is out of range or malformed."""


class ZeroVector(KnxError):
    """A nonzero vector was required."""


class SliceSubtractionFailure(KnxError):
    """A required nilpotent-part weight is missing from the phase-space weights."""


class UnsupportedMode(KnxError):
    """Operation is not defined in the requested weight-system mode."""


class SchemaError(KnxError):
    """A problem file violates the input schema."""
