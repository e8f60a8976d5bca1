"""Exception types shared across the package."""


class RopasError(Exception):
    """Base class for all package-specific errors."""


class SizeLimitError(RopasError):
    """A search or enumeration space exceeds the configured cap."""


class EvaluationError(RopasError):
    """A specification could not be evaluated.

    Raised when an evaluation's input is unknown, missing or outside its
    domain (the message names the variable), or a weighted sum's value falls
    outside its output's domain.  An invalid model raises a definition error
    instead.
    """


class DefinitionError(RopasError):
    """An object was constructed with arguments that violate its contract.

    ``record`` names the part at fault where the object has several, such
    as a goal graph's atom, refinement or conflict pair, so that a parser
    can report the error at the line that declared it.
    """

    def __init__(self, message: str, record: object = None):
        super().__init__(message)
        self.record = record
