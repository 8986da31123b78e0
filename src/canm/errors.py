"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes, so raising the right class
matters more than the message text.
"""
import contextlib


class UsageError(ValueError):
    """Caller violated a documented precondition or passed malformed input."""


class IdentifiabilityError(RuntimeError):
    """The available intervention targets cannot identify the requested effect."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SingularFitError(RuntimeError):
    """Regression design matrix is rank deficient; the message names the
    suspect features."""


class NumericalError(RuntimeError):
    """A linear-algebra step failed beyond repairable tolerance."""


@contextlib.contextmanager
def malformed(what):
    """The one rule for building values from a parsed document: a
    LookupError, TypeError, ValueError or AttributeError raised inside
    becomes ``UsageError("malformed <what>: ...")``; a UsageError passes
    unchanged. Parse outside it, so a file that is not JSON stays an I/O
    error."""
    try:
        yield
    except UsageError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise UsageError(f"malformed {what}: {detail}") from exc
