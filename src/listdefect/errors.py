"""Exception hierarchy shared by all listdefect modules.

Everything that aborts a run on purpose derives from :class:`FailFast`.
The CLI maps FailFast to exit code 2 and genuine errors (bad input,
I/O, schema) to exit code 1.
"""

from __future__ import annotations


class ListDefectError(Exception):
    """Base class for all library errors."""


class InvalidGraph(ListDefectError):
    """Graph construction rejected (self-loop, multi-edge, bad orientation...)."""


class InvalidInstance(ListDefectError):
    """Instance data inconsistent with the graph or with itself."""


class MissingColor(ListDefectError):
    """A coloring output leaves some node uncolored."""


class ColorNotInList(ListDefectError):
    """A node is colored with a color outside its list."""


class MissingOrientation(ListDefectError):
    """An oriented/arbdefective check was requested without an orientation."""


class InfeasibleParams(ListDefectError):
    """Generator parameters outside their documented ranges."""


class FailFast(ListDefectError):
    """A run aborted before emitting any (possibly invalid) coloring.

    Raised whenever a precondition or an internal invariant fails at the
    configured (usually down-scaled) parameters.  An aborted run is a
    legitimate outcome; an invalid coloring never is.
    """


class ConditionViolated(FailFast):
    """A per-node solvability condition does not hold."""


class ListTooSmall(FailFast):
    """A color list is below the size required by the algorithm."""


class GreedyExhausted(FailFast):
    """The greedy type-table assignment found no conflict-free family.

    Only guaranteed to succeed at paper-scale parameters; at scaled
    parameters this is an expected, reported outcome.
    """


class CapExceeded(FailFast):
    """An enumeration exceeded its configured work cap."""


class NodeFailure(FailFast):
    """A node program hit a violated invariant at run time."""

    def __init__(self, message: str, node: int | None = None, round_no: int | None = None):
        super().__init__(message)
        self.node = node
        self.round_no = round_no

    def __str__(self) -> str:
        at = [f"{what} {x}" for what, x in (("node", self.node), ("round", self.round_no))
              if x is not None]
        return super().__str__() + (f" [{', '.join(at)}]" if at else "")


class BudgetViolation(FailFast):
    """A message exceeded the per-message bit budget."""

    def __init__(self, edge: tuple[int, int], round_no: int, size: int, budget: int):
        super().__init__(
            f"message on edge {edge} in round {round_no} needs {size} bits, budget {budget}"
        )
        self.edge = edge
        self.round_no = round_no
        self.size = size
        self.budget = budget


class RoundLimitExceeded(FailFast):
    """The engine hit max_rounds with nodes still undecided."""
