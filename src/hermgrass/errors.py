"""Exception types shared across the package, and its two checks.

Precondition violations on small, cheap inputs raise ValueError directly;
the classes below are the ones callers are expected to catch and react to
(the CLI maps BudgetExceeded to its own exit code, for instance).

`require` is the check of a certificate, which python -O does not strip.
`indices` is the one check of values a caller hands the package as field
element indices in [0, q^2) or positions in [0, n); an entry that checks
such values calls it before any table lookup, since numpy would wrap -1
to the last entry and truncate 1.5 to 1, and uint8 would wrap 256 to 0.
"""

import numpy as np


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


def indices(values, below, refusal):
    """np.asarray(values), once every entry is an integer in [0, below);
    otherwise ValueError(refusal), before any table lookup.  The refusal is
    its text, or a function of no arguments that formats it only for a
    refused input.  A dtype that is not an integer one adds ": must be
    integers, got <dtype>" to the refusal.  Empty input passes.  Signed
    input is read as int64 through its uint64 view, where an entry below 0
    reads as at least 2^63, so one max refuses it with the entries too
    large.  Ragged input, which numpy refuses as an array, adds ": ragged"."""
    try:
        values = np.asarray(values)
    except ValueError:
        raise ValueError(f"{_text(refusal)}: ragged") from None
    if not values.size:
        return values
    kind = values.dtype.kind
    if kind not in "biu":
        raise ValueError(f"{_text(refusal)}: must be integers, got {values.dtype}")
    if (values.astype(np.int64, copy=False).view(np.uint64) if kind == "i" else values).max() >= below:
        raise ValueError(_text(refusal))
    return values


def _text(refusal):
    return refusal() if callable(refusal) else refusal
