"""Exception types shared across the package."""


class EdpError(Exception):
    """Base class for package-specific failures."""


class FormatError(EdpError):
    """Unparseable input: bad CSV shape, wrong magic, unsupported version."""


class CorruptModelError(FormatError):
    """Model file is structurally valid but truncated or checksum-broken."""


class DegenerateTripError(EdpError, ValueError):
    """Trajectory collapses to fewer than two distinct cells."""


class ColdStartError(EdpError):
    """No candidate destination survives the query filters.

    Carries a forward-mass fallback ranking and the history walk's
    FutureLocation (cell, steps, no_match) it was ranked from. Read by
    predict.answer, which makes it a cold-start answer, and by perfbench
    and the acceptance tests, which catch it from predict_destination."""

    def __init__(self, message: str, fallback: list[tuple[int, float]], future):
        super().__init__(message)
        self.fallback = fallback
        self.future = future
