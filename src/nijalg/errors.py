"""Exception types shared by the library and the CLI."""


class EmptyWordTermError(ValueError):
    """An operation restricted to the augmented module got an empty-word term."""


class UnmappedGeneratorError(ValueError):
    """A generator has no image under the homomorphism being extended."""


class ReservedSymbolError(ValueError):
    """A reserved name ('e') was used as a generator."""


class ExprSyntaxError(ValueError):
    """Parse error at a deterministic position: the message reads
    ``line:col: message``, and ``line`` and ``col`` are 1-based."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnknownSuiteError(ValueError):
    """`check` was asked for a suite that does not exist."""
