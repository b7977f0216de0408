"""The exceptions that the CLI reports as bad input (exit 2), in one module that needs
neither numpy nor the rest of the package.  Each is re-exported by the module that raises
it, as the same class."""


class TypeSyntaxError(ValueError):
    """Raised when textual type syntax cannot be parsed."""


class IllTypedApplication(TypeError):
    """Raised when an application's argument type does not match."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{message} (at {path or 'root'})")
        self.path = path


class FormulaSyntaxError(ValueError):
    """Formula text that does not parse as the format the README describes."""


class NonPositiveGamma(ValueError):
    """Resolvent and Yosida parameters must be strictly positive."""


class NoConvergence(RuntimeError):
    """A computed resolvent fails to verify its defining inclusion."""


class ComonotoneStepError(ValueError):
    """The step size is incompatible with the declared comonotonicity degree."""


class DimensionMismatch(ValueError):
    """A point or operator does not have the dimension the call needs."""


class NonFiniteInput(ValueError):
    """A point with an infinite or NaN coordinate."""


class ScheduleSyntaxError(ValueError):
    """Malformed step-size schedule string."""


class TraceFormatError(ValueError):
    """Text that is not a trace as :meth:`IterationTrace.to_json` writes it."""
