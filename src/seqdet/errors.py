"""Exception types shared across the package, and the bound on the values
their messages quote."""

QUOTE_CHARS = 32


class ShapeError(ValueError):
    """Operand dimensions violate an operation's contract."""


class ConfigError(ValueError):
    """Invalid or unknown configuration value."""


class ParseError(ValueError):
    """Malformed input file; message carries the offending location."""


def quoted(value):
    """repr(value) for an error message, cut to QUOTE_CHARS characters and
    marked '...' when longer: a value read from a file can be of any size."""
    text = repr(value)
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS] + "..."
