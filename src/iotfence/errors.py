"""Error hierarchy for the whole package.

Everything raised on purpose derives from IotfenceError so the CLI can map
domain failures to a single exit code.
"""


class IotfenceError(Exception):
    """Base class for all package-specific errors."""


# capture ingest

class CorruptHeader(IotfenceError):
    """pcap global or record header is truncated or has an unknown magic."""


class UnsupportedLinkType(IotfenceError):
    """pcap link type is not ethernet (DLT 1)."""


class MalformedFrame(IotfenceError):
    """Frame bytes are too short for the layers they claim to contain."""


# fingerprinting

class EmptySession(IotfenceError):
    """Setup segmentation received no packets."""


class EmptyInput(IotfenceError):
    """Fingerprint construction received an empty packet list."""


class SchemaMismatch(IotfenceError):
    """Persisted file declares a schema this code does not speak."""


class CorruptFile(IotfenceError):
    """Persisted file cannot be parsed or has impossible contents."""


# classification

class InsufficientData(IotfenceError):
    """Not enough positives, or negative pool smaller than 10x positives."""


class DimensionMismatch(IotfenceError):
    """Input vector length differs from the trained feature width."""


class EmptyRegistry(IotfenceError):
    """Prediction requested against a registry with no classifiers."""


# discrimination

class BothEmpty(IotfenceError):
    """Normalized distance is undefined when both sequences are empty."""


class NoReferences(IotfenceError):
    """Dissimilarity scoring needs at least one reference fingerprint."""


# enforcement

class RestrictedWithoutPermittedIps(IotfenceError):
    """A restricted-level rule must carry at least one permitted IP."""


class CapacityExceeded(IotfenceError):
    """Rule cache is full and nothing is marked evictable."""
