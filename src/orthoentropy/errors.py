"""The two exception types that the command line maps to exit codes.

A ``ConfigError`` (or any ``ValueError``) raised while the command line
turns its input into objects exits 2, and so does a ``ConfigError`` raised
while a command runs (an output file that cannot be written); a
``NumericError`` raised while a command computes exits 3.  Checks on
computed values raise ``NumericError``; checks on shapes, lengths and
arguments raise ``ValueError``.
"""


class NumericError(RuntimeError):
    """A computed value failed a check, or a numerical procedure failed."""


class ConfigError(ValueError):
    """Invalid run configuration."""
