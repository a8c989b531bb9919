"""Shared exception types."""


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 1)."""


class ResourceLimitError(RuntimeError):
    """A configured size bound was exceeded (CLI exit code 2)."""

    def __init__(self, message, bound_name, bound_value):
        super().__init__(message)
        self.bound_name = bound_name
        self.bound_value = bound_value
