"""Exception types shared across the package."""


class ParsememError(Exception):
    """Base class for errors raised by this package."""


class EmptyInputError(ParsememError, ValueError):
    """An operation that needs at least one symbol got an empty input."""


class ItemKindMismatch(ParsememError, TypeError):
    """A filter was queried with an item of the wrong kind (k-mer vs phrase ID)."""


class IndexFormatError(ParsememError, ValueError):
    """An index file is corrupt, truncated, or has an unsupported version."""


class ParameterMismatch(ParsememError, ValueError):
    """A flag is missing, out of range, or conflicts with the index or another flag."""
