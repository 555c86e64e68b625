"""Exception types shared across the package."""


class DolearnError(Exception):
    """Base class for all errors raised by this package."""


class GraphCycleError(DolearnError):
    """The directed edge set contains a cycle; carries one offending edge."""

    def __init__(self, edge):
        self.edge = tuple(edge)
        super().__init__(f"directed edges contain a cycle through {edge[0]} -> {edge[1]}")


class IdentifiabilityError(DolearnError):
    """The interventional distribution is not determined by the observational one."""


class PositivityError(DolearnError):
    """A conditional was requested on a zero-probability event."""


class StateSpaceError(DolearnError):
    """An enumeration, a draw or a sample budget would exceed its size guard."""


class NormalizationError(DolearnError):
    """A quantity that must be a probability distribution failed to normalize."""


class ReductionInvariantError(DolearnError):
    """A runtime-checked structural guarantee of the reduction did not hold."""


class UnderflowError(DolearnError):
    """A probability fell below the normal float64 range without being zero."""


class FormatError(DolearnError):
    """An input file is malformed; message carries file and line anchors."""


class GenerationError(DolearnError):
    """A randomized construction exhausted its rejection budget."""
