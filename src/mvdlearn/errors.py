"""Exception hierarchy shared across the package.

Every error raised by the library derives from MvdLearnError so callers
(including the CLI) can map failures onto exit codes without matching on
message text.
"""


class MvdLearnError(Exception):
    """Base class for all library errors."""


class UniverseMismatchError(MvdLearnError):
    """Two values built over different variable universes were combined."""


class EnumerationCapError(MvdLearnError):
    """An exhaustive-enumeration operation was asked to run over a universe
    larger than that universe's cap (``VariableUniverse.cap``)."""


class ParseError(MvdLearnError):
    """Malformed formula, clause, interpretation or script text.

    Carries the 1-based line number when the source is a multi-line file;
    ``detail`` is the message without it.
    """

    def __init__(self, message, line=None):
        self.line = line
        self.detail = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(MvdLearnError):
    """Malformed relation input (bad header, ragged row, arity mismatch).

    Carries the 1-based row number when one applies; ``detail`` is the
    message without it.
    """

    def __init__(self, message, row=None):
        self.row = row
        self.detail = message
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class OracleContractError(MvdLearnError):
    """An oracle broke its contract: a scripted entry that is not a genuine
    counterexample, a script that ran dry before equivalence, or an answer
    inconsistent with a fixed target."""


class BoundViolationError(MvdLearnError):
    """A run exceeded a guaranteed bound (iteration count, recursion depth,
    or per-slot replacement count), which indicates inconsistent oracles."""


class ConversionError(MvdLearnError):
    """A formula conversion could not be verified equivalent to its input.

    The offending formula is attached as ``residual`` so callers can inspect
    or report it.
    """

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)
