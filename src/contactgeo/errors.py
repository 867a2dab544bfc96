"""Error types shared across the toolkit."""


class ContactGeoError(Exception):
    """Base class for all toolkit errors."""


class ExpressionError(ContactGeoError):
    """Malformed scalar expression (non-integer exponent, bad node, ...)."""


class DivisionByZero(ExpressionError):
    """Evaluation or constant folding hit a zero denominator."""


class ParseError(ContactGeoError):
    """Unparseable expression text or manifest.

    ``where`` identifies the offending spot: a column inside an expression
    string, or a line/column pair inside a manifest file.
    """

    def __init__(self, message, where=None):
        self.where = where
        if where:
            message = f"{message} ({where})"
        super().__init__(message)


class ValidationError(ContactGeoError):
    """Manifest data fails a structural requirement; carries a witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        if witness is not None:
            message = f"{message} [witness: {witness}]"
        super().__init__(message)


class SingularFrame(ValidationError):
    """Declared frame is not invertible on the sampling domain."""


class NonFiniteValue(ValidationError):
    """A value read at a point is not a finite float; the witness is the point."""


class DegenerateSystem(ContactGeoError):
    """Least-squares normal equations are singular."""


class MissingPotential(ContactGeoError):
    """Soliton command needs a potential the manifest does not declare."""


class InsufficientSamples(ContactGeoError):
    """Domain constraints reject too many candidate sample points."""
