"""Exact arithmetic in the tower F_p < F_q < F_{q^2} for q = p^e.

F_{q^2} is realized once, as F_p[x]/(m) with m a fixed monic irreducible
polynomial of degree 2e, and F_q is its Frobenius-fixed subfield
{x : x^q = x}.  An element is an integer index in [0, q^2): the
little-endian base-p encoding of its coefficient vector, so index 0 is the
additive identity and index 1 the multiplicative identity.  This index is
also the serialized form used by all file formats.

Multiplication runs through exp/log tables over the cyclic group of order
q^2 - 1.  The shipped moduli all have x primitive, so x itself generates
the tables; construction verifies that the order of x is exactly q^2 - 1,
which simultaneously proves the modulus irreducible (a reducible modulus
leaves strictly fewer than q^2 - 1 units).

Arrays of elements add and multiply through `FieldTower.adds` and
`FieldTower.muls`: one uint16 key a * q^2 + b per pair of entries, at most
81 * 81 = 6,561 keys, and one gather from the raveled table.  Like
`linalg.combine`, these are unchecked kernels: an entry outside [0, q^2)
reads a wrong entry or raises IndexError, so a public entry that hands
them caller values checks those first (`errors.indices`).
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

# One monic irreducible polynomial per supported (p, e), as little-endian
# base-p digit tuples (digit i = coefficient of x^i, degree 2e, monic).
# All are primitive: x generates the multiplicative group.
MODULI = {
    (2, 1): (1, 1, 1),                # x^2 + x + 1          -> F_4
    (3, 1): (2, 2, 1),                # x^2 + 2x + 2         -> F_9
    (2, 2): (1, 1, 0, 0, 1),          # x^4 + x + 1          -> F_16
    (5, 1): (2, 4, 1),                # x^2 + 4x + 2         -> F_25
    (7, 1): (3, 6, 1),                # x^2 + 6x + 3         -> F_49
    (2, 3): (1, 1, 0, 1, 1, 0, 1),    # x^6 + x^4 + x^3 + x + 1 -> F_64
    (3, 2): (2, 0, 0, 2, 1),          # x^4 + 2x^3 + 2       -> F_81
}

# q -> (p, e) for every supported q: exactly the middle fields of MODULI.
SUPPORTED_Q = {p**e: (p, e) for p, e in MODULI}


class FieldTower:
    """The pair F_q < F_{q^2} with all arithmetic tables prebuilt.

    Immutable after construction; all operations are pure, so instances are
    safe to share across threads and processes.
    """

    def __init__(self, p: int, e: int):
        if (p, e) not in MODULI:
            raise ValueError(f"no modulus available for (p, e) = ({p}, {e})")
        self.p = p
        self.e = e
        self.q = q = p**e
        self.qq = qq = p ** (2 * e)
        self.modulus = MODULI[(p, e)]
        deg = 2 * e
        place = p ** np.arange(deg)
        digits = np.arange(qq)[:, None] // place % p
        # addition is digitwise mod p on the base-p encodings
        self.add_np = ((digits[:, None] + digits[None]) % p @ place).astype(np.uint8)

        # exp by powers of x, which must return to 1 first at step qq - 1.
        # Times x shifts the digits up one place; a top digit c carried out
        # is c x^deg = -c (modulus - x^deg), the index red[c].
        top = p ** (deg - 1)
        red = -np.outer(np.arange(p), self.modulus[:deg]) % p @ place
        exp = np.empty(qq - 1, dtype=np.uint8)
        cur = 1
        for i in range(qq - 1):
            if cur == 1 and i > 0:
                raise AssertionError(f"modulus {self.modulus} over F_{p}: x has order {i}, not primitive")
            exp[i] = cur
            cur = int(self.add_np[cur % top * p, red[cur // top]])
        if cur != 1:
            raise AssertionError(f"modulus {self.modulus} over F_{p} is not irreducible")
        log = np.zeros(qq, dtype=np.int64)
        log[exp] = np.arange(qq - 1)

        # products of nonzero elements through the logs, behind a zero row
        # (and column) for 0; -x = (p-1) * x is the identity at p = 2, and
        # conjugation x -> x^q fixes exactly F_q
        nonzero = log[1:]
        self.mul_np = np.pad(exp[(nonzero[:, None] + nonzero) % (qq - 1)], (1, 0))
        self.neg_np = self.mul_np[p - 1]
        self.inv_np = np.pad(exp[-nonzero % (qq - 1)], (1, 0))
        self.conj_np = np.pad(exp[nonzero * q % (qq - 1)], (1, 0))
        self.trace_np = self.adds(np.arange(qq), self.conj_np)
        self.norm_np = self.muls(np.arange(qq), self.conj_np)
        self.subfield_np = np.flatnonzero(self.conj_np == np.arange(qq)).astype(np.uint8)
        if len(self.subfield_np) != q:
            raise AssertionError(f"subfield has {len(self.subfield_np)} elements, expected {q}")
        self.subfield = tuple(self.subfield_np.tolist())
        # position in the sorted subfield list, -1 outside F_q
        self.subfield_digit_np = np.full(qq, -1, dtype=np.int64)
        self.subfield_digit_np[self.subfield_np] = np.arange(q)
        for arr in (self.add_np, self.mul_np, self.neg_np, self.inv_np, self.conj_np,
                    self.trace_np, self.norm_np, self.subfield_np, self.subfield_digit_np):
            arr.setflags(write=False)

    # scalar operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_np[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_np[a, self.neg_np[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_np[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_np[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self.inv_np[a])

    def conjugate(self, a: int) -> int:
        """The involutive automorphism a -> a^q; fixes exactly F_q."""
        return int(self.conj_np[a])

    def trace(self, a: int) -> int:
        """Tr(a) = a + a^q, an F_q-linear map onto F_q."""
        return int(self.trace_np[a])

    def norm(self, a: int) -> int:
        """N(a) = a^(q+1), multiplicative onto F_q."""
        return int(self.norm_np[a])

    def in_base_subfield(self, a: int) -> bool:
        """Whether a is the index of an element of F_q: an integer, Python's
        or numpy's, in the subfield list.  Anything else is not, 2.0 and -1
        included."""
        return isinstance(a, numbers.Integral) and a in self.subfield

    # array operations --------------------------------------------------

    def adds(self, a, b):
        """a + b entrywise, on arrays or scalars of element indices that
        broadcast together: one gather from the raveled addition table at
        the uint16 keys a * q^2 + b.  Unchecked: an entry outside [0, q^2)
        reads a wrong sum or raises IndexError."""
        return self.add_np.take(np.asarray(a).astype(np.uint16) * self.qq + b)

    def muls(self, a, b):
        """a * b entrywise, as `adds` on the multiplication table, and as
        unchecked."""
        return self.mul_np.take(np.asarray(a).astype(np.uint16) * self.qq + b)

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, q={self.q})"

    def __reduce__(self):
        # keeps pickling cheap and tables canonical for worker processes
        return (make_field, (self.p, self.e))


@functools.cache
def make_field(p: int, e: int) -> FieldTower:
    """Build (or fetch the cached) tower F_p < F_{p^e} < F_{p^2e}."""
    return FieldTower(p, e)


def tower_for_q(q: int) -> FieldTower:
    """The tower whose middle field is F_q, for q in the supported set."""
    if q not in SUPPORTED_Q:
        raise ValueError(f"unsupported q = {q}; supported: {sorted(SUPPORTED_Q)}")
    return make_field(*SUPPORTED_Q[q])
