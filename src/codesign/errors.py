"""Domain errors. The CLI maps any of these to exit code 1, printing the
class name followed by the message (which names the offending key)."""


class CodesignError(Exception):
    pass


class InvalidConfig(CodesignError):
    """Config file missing, unreadable or not valid JSON, or a value in it
    of the wrong type or not finite."""


class MissingField(CodesignError):
    pass


class NonPositiveQuantity(CodesignError):
    pass


class UnknownStrategyName(CodesignError):
    pass


class InvariantViolation(CodesignError):
    """A structural constraint on loaded data does not hold, or a cost
    computed from it is not finite."""


class DegenerateSplit(CodesignError):
    """A cut or fraction leaves one side of the pipeline empty."""


class NoFeasiblePlan(CodesignError):
    pass


class ShapeMismatch(CodesignError):
    pass


class DimensionMismatch(CodesignError):
    pass


class StepSizeOutOfRange(CodesignError):
    pass


class SchemaMismatch(CodesignError):
    pass


class UnwritableOutput(CodesignError):
    """An output file cannot be written: a missing directory, a directory
    in its place, no permission."""
