"""Exception types shared across the simulator."""


class FedPodError(Exception):
    """Base class for all simulator errors."""


class ValidationError(FedPodError, ValueError):
    """A value or configuration violates a documented precondition."""


class ShapeError(ValidationError):
    """Structurally incompatible inputs (dimension or length mismatch)."""


class ParseError(ValidationError):
    """A file could not be parsed; the message names the path and line when given."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateModelError(ValidationError):
    """A distribution fit collapsed (e.g. every institution has zero samples)."""


class EmptyCohortError(FedPodError, RuntimeError):
    """A round has no eligible institution, or the cohort has no primary one."""


class TrainingDivergenceError(FedPodError, RuntimeError):
    """Local training produced a non-finite gradient or parameter."""

    def __init__(self, node_id: str, detail: str = ""):
        msg = f"training diverged on node {node_id!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.node_id = node_id
