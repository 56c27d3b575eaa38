"""Exception types shared across the library."""


class InvalidInputError(ValueError):
    """Malformed or incompatible input (wrong length, bad characteristic, ...)."""


class NoLexIdealError(ValueError):
    """No lex-segment ideal realizes the requested Hilbert function.

    ``degree`` is the first degree at which the growth condition fails.
    """

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"not an O-sequence: violation at degree {degree}")


class NotLexSegmentError(InvalidInputError):
    """A declared piece is not a lex segment in its subring."""

    def __init__(self, piece_index, message=None):
        self.piece_index = piece_index
        super().__init__(message or f"piece in {piece_index} variables is not a lex segment")


class NotAdmissibleError(ValueError):
    """The Hilbert function is not attainable over the given base ideal.

    ``degree`` names the first degree at which the greedy construction fails.
    """

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"Hilbert function not admissible at degree {degree}")


class ClosureError(NotAdmissibleError):
    """The greedy degreewise spans fail to be closed under multiplication.

    For a Shakin base ideal this cannot happen on attainable Hilbert
    functions; when it does happen the payload (degree and witness
    monomial) is preserved so the case can be reported, never repaired.
    """

    def __init__(self, degree, witness, message=None):
        self.witness = witness
        super().__init__(
            degree,
            message
            or f"embedded spans not an ideal: degree-{degree} witness {witness}",
        )


class InvalidFamilyError(InvalidInputError):
    """A gluing family violates the overlap agreement precondition."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"family Hilbert functions disagree in degree {degree}")


class InternalContradictionError(RuntimeError):
    """A consequence guaranteed by a verified statement failed to hold.

    Raised loudly instead of repairing the data; carries enough payload to
    replay the offending case.
    """


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured case budget."""

    def __init__(self, budget, count_estimate):
        self.budget = budget
        self.count_estimate = count_estimate
        super().__init__(
            f"enumeration budget {budget} exceeded (estimated {count_estimate} cases)"
        )
