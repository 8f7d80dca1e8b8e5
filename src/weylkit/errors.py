"""Exception types shared across the library, and the input gates.

There is a class per failure that a caller distinguishes: the command
line, the verification suite or a test.  The command line maps
ConfigError and NodeSubsetError to exit 2 and every other WeylkitError
to exit 1.
"""

import math


class WeylkitError(Exception):
    pass


class PreconditionError(WeylkitError):
    pass


class NodeSubsetError(PreconditionError):
    """The node subset J is valid but not one the operation supports."""


class StructuralError(WeylkitError):
    """Computed data falls outside the supported classification."""


class UnsupportedRegimeError(WeylkitError):
    """Input outside the exact-arithmetic regime (e.g. irrational data)."""


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


def require_int(what, *values):
    """PreconditionError naming `what` for a value that is not an int (a
    float or a Fraction, say); a bool is an int, the 0 or 1 it is."""
    for value in values:
        if not isinstance(value, int):
            raise PreconditionError(f"{what} {value!r} is not an int")


# Trial division tries at most 10^6 divisors: it decides integers to 10^12.
TRIAL_DIVISION_LIMIT = 10 ** 12


def least_prime_factor(k):
    """The least prime factor of an integer k >= 2, by trial division; past
    TRIAL_DIVISION_LIMIT, BudgetError before any division."""
    if k > TRIAL_DIVISION_LIMIT:
        raise BudgetError(f"trial division decides integers up to 10^12; a"
                          f" {k.bit_length()}-bit integer is past that budget")
    return next((d for d in range(2, math.isqrt(k) + 1) if k % d == 0), k)


def is_prime(k):
    """True iff the integer k is a prime."""
    return k >= 2 and least_prime_factor(k) == k


def require_prime(p):
    """require_int, then UnsupportedRegimeError unless p is a prime."""
    require_int("prime", p)
    if not is_prime(p):
        raise UnsupportedRegimeError(f"{p} is not prime; only prime base"
                                     " fields are supported")
