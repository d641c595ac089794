"""Exception types shared across the library."""

from __future__ import annotations


class OrderdimError(Exception):
    """Base class for every library-specific error."""


class IndexOutOfRange(OrderdimError):
    """A vertex or element id falls outside 0..n-1."""


class SizeMismatch(OrderdimError):
    """Two relations that must share a ground set do not."""


class NotQuasiOrder(OrderdimError):
    """Reflexivity or transitivity fails; carries a witness triple (i, j, k)."""

    def __init__(self, witness, message=None):
        self.witness = tuple(witness)
        super().__init__(message or f"transitivity fails at {self.witness}")


class NotStrictOrder(OrderdimError):
    """Irreflexivity or transitivity fails for a strict order."""


class NotADigraph(OrderdimError):
    """Digraph input carries a self-loop or malformed rows."""


class NotAGraph(OrderdimError):
    """A symmetric digraph was required but the edge relation is not symmetric."""


class NotExtension(OrderdimError):
    """Claimed extension does not contain the base or merges equivalence classes."""


class BadPair(OrderdimError):
    """A pair (a, b) was offered for extension although b is already below a."""


class CycleInX(OrderdimError):
    """Extension by a pair set failed; carries the offending pair cycle.

    `pairs` holds distinct (x, y) pairs, consecutive under the pair-digraph
    edge relation, with the last linking back to the first.
    """

    def __init__(self, pairs):
        self.pairs = tuple(tuple(p) for p in pairs)
        super().__init__(f"pair set closes a cycle of {len(self.pairs)} pairs")


class InvalidCover(OrderdimError):
    """Classes fail to cover the digraph or some class has a cycle."""


class IncompleteFamily(OrderdimError):
    """Extension family leaves some ordered pair undecided; carries the pair."""

    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"pair {self.pair} undecided by the family")


class LimitExceeded(OrderdimError):
    """A search exhausted its node budget before reaching an answer."""

    def __init__(self, budget, message=None):
        self.budget = budget
        super().__init__(message or f"search budget of {budget} nodes exhausted")


class TooLarge(OrderdimError):
    """Instance exceeds a hard guard (not a tunable budget)."""
