"""Exception types shared across the library.

Every failure mode named by an operation contract gets its own class so
callers (and the verification suite) can distinguish diagnostic outcomes
from genuine bugs.
"""


class WeylkitError(Exception):
    pass


class DatumMismatchError(WeylkitError):
    """Operands live over different Cartan data or parameter sets."""


class InfiniteGroupError(WeylkitError):
    """A finite-group operation was requested for an infinite group."""


class PreconditionError(WeylkitError):
    pass


class NodeSubsetError(PreconditionError):
    """The node subset J is valid but not one the operation supports."""


class StructuralError(WeylkitError):
    """Computed data falls outside the supported classification."""


class UnsupportedRegimeError(WeylkitError):
    """Input outside the exact-arithmetic regime (e.g. irrational data)."""


class IncompleteLatticeError(WeylkitError):
    """Translation-lattice search ran out of depth before full rank."""


class LiftCheckError(WeylkitError):
    """Stabilizer lift failed to match the predicted subgroup."""


class InternalConsistencyError(WeylkitError):
    """A verified-by-construction relation failed; indicates a bug."""


class TableRejectionError(WeylkitError):
    """A curated data table violates its invariants."""

    def __init__(self, message, layer=None):
        super().__init__(message)
        self.layer = layer


class UnsupportedLabelError(WeylkitError):
    """Requested label is not in the curated tables."""


class BudgetError(WeylkitError):
    """Requested enumeration exceeds its fixed budget."""


class ConfigError(WeylkitError):
    """A command-line flag value the command cannot use (exit 2)."""
