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


class UndecidedOrderError(WeylkitError):
    """Order search exhausted its cap without a certificate either way."""


class MembershipError(WeylkitError):
    """A candidate element failed a subgroup-membership check."""


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

    def __init__(self, message, partial_basis=()):
        super().__init__(message)
        self.partial_basis = tuple(partial_basis)


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


class IndeterminateError(WeylkitError):
    """A bounded search ended before its answer settled; `partial` holds
    what it had found."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class BudgetError(WeylkitError):
    """Requested enumeration exceeds the configured budget."""


class ConfigError(WeylkitError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
