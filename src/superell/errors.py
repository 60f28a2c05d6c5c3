"""Exception taxonomy shared across the package.

CLI exit codes: InvariantViolation -> 2, ResourceLimit -> 3, InputError -> 2.
"""


class SuperellError(Exception):
    """Base class for all package errors."""


class InputError(SuperellError):
    """A precondition on user-supplied input failed (bad prime, zero polynomial, ...)."""


class ResourceLimit(SuperellError):
    """A configured size guard would be exceeded; nothing was computed."""


class InvariantViolation(SuperellError):
    """A runtime-checked mathematical invariant failed; names the invariant."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        self.detail = detail
        msg = invariant if not detail else f"{invariant}: {detail}"
        super().__init__(msg)
