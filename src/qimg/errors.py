"""Exception types shared across the package."""

import functools

__all__ = ["DomainError", "ShapeError", "ParseError"]


class DomainError(ValueError):
    """A value lies outside the carrier of the quantale in force."""


class ShapeError(ValueError):
    """Index sets, grid shapes or quantale families do not line up."""


class ParseError(ValueError):
    """A file does not conform to its declared format."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)
        self.offset = offset


def _names_file(reader):
    """reader(path, ...) reporting every ValueError as a ParseError that names the path."""
    @functools.wraps(reader)
    def wrapper(path, *args, **kwargs):
        try:
            return reader(path, *args, **kwargs)
        except ValueError as exc:  # ParseError, DomainError, ShapeError and UnicodeDecodeError
            err = ParseError(f"{path}: {exc}")
            err.offset = getattr(exc, "offset", None)  # a byte offset is in the message already
            raise err from None
    return wrapper
