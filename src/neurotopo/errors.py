"""Exception taxonomy shared across the library."""


class NeurotopoError(Exception):
    """Base class for all neurotopo errors."""


class StructuralError(NeurotopoError):
    """An input violates a structural precondition (shape, range, connectivity)."""


class FormatError(NeurotopoError):
    """A file does not conform to its documented on-disk format."""


class NumericalError(NeurotopoError):
    """A numerical routine failed or produced an out-of-tolerance result."""
