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
    """Requested work exceeds its fixed budget; raised only by `charge`."""


class ConfigError(WeylkitError):
    """A command-line flag value the command cannot use (exit 2)."""


def require_int(what, *values):
    """PreconditionError naming `what` for a value that is not an int (a
    float or a Fraction, say); a bool is an int, the 0 or 1 it is."""
    for value in values:
        if not isinstance(value, int):
            raise PreconditionError(f"{what} {value!r} is not an int")


def charge(work, count, limit):
    """The one budget gate: BudgetError when `count` units of `work` pass
    `limit`.  Callers charge before the work that the count measures."""
    if count > limit:
        raise BudgetError(f"{work} exceeds the budget of {limit}")


def capped_power(base, exponent, cap):
    """base^exponent, or (for base >= 2) the first base^k past cap if any:
    past cap exactly when base^exponent is, whatever the exponent."""
    power = 1
    for _ in range(exponent):
        power *= base
        if power > cap:
            break
    return power


# Trial division tries at most 10^6 divisors: it decides integers to 10^12.
TRIAL_DIVISION_LIMIT = 10 ** 12


def least_prime_factor(k):
    """The least prime factor of an integer k >= 2, by trial division; past
    TRIAL_DIVISION_LIMIT, BudgetError before any division."""
    charge(f"a {k.bit_length()}-bit integer to decide by trial division", k,
           TRIAL_DIVISION_LIMIT)
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
