"""Exception types shared across the package.

Precondition violations on small, cheap inputs raise ValueError directly;
the classes below are the ones callers are expected to catch and react to
(the CLI maps BudgetExceeded to its own exit code, for instance).
"""


class HermgrassError(Exception):
    """Base class for package-specific errors."""


class BudgetExceeded(HermgrassError):
    """An enumeration would exceed its budget, or a code its position limit.

    Raised before any work is done, never mid-run: `walk.require_budget`
    sizes a code's enumeration from its (family, ell, q) against the one
    budget HERMGRASS_BUDGET_MESSAGES sets, before the generator is built.
    """


class NotInCode(HermgrassError):
    """A vector is not in the row space of the generator matrix."""


class NoneFoundWithinBound(HermgrassError):
    """No dependent column set of size <= max_t exists.

    Certifies that the dual minimum distance exceeds the searched bound.
    """

    def __init__(self, max_t):
        self.max_t = max_t
        super().__init__(f"no dependent column set of size <= {max_t}; dual distance > {max_t}")


class NoValidLambda(HermgrassError):
    """The spread-reduction scalar search exhausted all nonzero field elements."""


def require(condition, message=""):
    """Raise AssertionError(message) unless condition holds.  Unlike an
    assert statement, this check is not stripped by python -O."""
    if not condition:
        raise AssertionError(message)
