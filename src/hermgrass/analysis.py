"""Weights, certified minimum distances, dual distances, and executable
verifiers for the counting and classification facts the code families rest
on.

Minimum-distance strategy ladder: the closed form with its witness
(`distance_formula`, optionally confirmed by weighing the witness one
decoded chunk of positions at a time, `weight_of_function`); the
family's certifying enumeration (`min_distance`): every F_q-combination of
the F_q row basis for the Hermitian family (sound because minimum-weight
words of a q-invariant code are scalar multiples of subfield words), every
message over the alphabet `GeneratorMatrix.scalars` for the affine family;
and the full F_{q^2} enumeration as a Hermitian cross-check.  Certificates
record which method produced them.

Enumeration is projective, one message per scalar class (first nonzero
digit 1): a mixed-radix Gray walk over the leading digits adds one scaled
row per step and weighs a table of every combination of the trailing rows
against it in one vectorized operation.  Words are packed one way in every
characteristic, as base-p digits in lanes of w bits (`_additive_form`,
`_digit_lanes`), in one of two layouts: a lane per position, or fiber
lanes, a word's affine coefficients along its first position digits
(every minor uses each row of X at most once, so a word is affine in h_00
and, for the affine family, in the whole first row of X), whose zeros on
each fiber follow from two flags.  Each scaled row is packed once per walk
and the walked state is kept negated, and the table is kept XORed with it
in place, so a weigh flags the lanes where the two differ, does no field
arithmetic and makes no table-sized temporary.  A step costs about as much
as weighing TABLE_BYTES more, so the table is as large as that cost makes
cheapest, and the layout is the one that cost makes cheapest.  That walk
(`_walk`), laid out by one plan (`_plan`: the layout, the table digits,
the projective heads, the `--threads` split), is the only enumeration of
combination weights: the minimum distance, the minimum weights stratified
by maximal-minor size, the two-weight classification at ell = 2 and the
ell = 3 det stratum are reductions of it, the classifiers' rows all taken
from one stratum rule (`_stratum`).

One gate, `require_budget`, decides from a code's spec alone whether an
enumeration may start: it refuses a method it does not know or that does
not apply to the family, then sizes the walk's messages or the dual pair
scan's sums against the one budget (`budget_messages`,
HERMGRASS_BUDGET_MESSAGES), so anything over budget raises before the
generator is built.  Every refusal is one size check (`_require_size`),
which the engine also runs on arbitrary rows.  Positions are bounded by
`hermitian.BUILD_LIMIT`.  These two limits, and nothing else, bound the
classifiers, which enumerate every message they report on.

Dual distance works on the generator's columns as arrays of packed keys
(`_packer`), exact at any width: t = 1 and t = 2 are read off the keys of
the columns' projective normal forms.  One table holds every multiple
a col_m over the alphabet's nonzero scalars, packed once; its keys,
sorted, are the t = 3 members, and its words are the scan's addends.  The
pair sums col_i + a col_j are then scanned in blocks of rows
(`_pair_blocks`), each one rectangle of sums whose pairs j <= i are
blanked, which leaves the rest in scan order.  A sum rules in t = 3 when
its raw key, the lane sum of two table words, is a member, so t = 3 is
tested without normalizing.  Sums are brought to normal forms only until
the first repeated form, the t = 4 word.  Every dual word, searched or
constructed, is sorted and checked by one helper (`_dual_word`).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import linalg
from . import minors as mn
from .linalg import TABLE_BYTES
from .codebuild import (
    FAMILY_HERMITIAN,
    CodeSpec,
    GeneratorMatrix,
    build_generator,
    congruence_permutation,
    eval_minor_vector,
    fq_basis,
    subfield_rows,
    translate_permutation,
)
from .errors import BudgetExceeded, NoneFoundWithinBound, NoValidLambda, require
from .galois import FieldTower, tower_for_q
from .hermitian import (
    BUILD_LIMIT,
    count_invertible,
    decode,
    decoded_chunks,
    encode,
    outer,
    translate,
)

DEFAULT_BUDGET_MESSAGES = 2**24
DEFAULT_SEED = 987654321


def budget_messages():
    """HERMGRASS_BUDGET_MESSAGES, or DEFAULT_BUDGET_MESSAGES when it is unset or empty."""
    value = os.environ.get("HERMGRASS_BUDGET_MESSAGES")
    if value and not value.strip().isdecimal():
        raise ValueError(f"HERMGRASS_BUDGET_MESSAGES must be a non-negative integer, got {value!r}")
    return int(value) if value else DEFAULT_BUDGET_MESSAGES


def _require_size(size: int, what: str):
    """Raise BudgetExceeded, naming the enumeration `what`, when its size
    exceeds `budget_messages()`."""
    budget = budget_messages()
    if size > budget:
        raise BudgetExceeded(f"{what} {size} exceeds budget {budget}")


def require_budget(spec: CodeSpec, method: str | None = None, max_t: int = 4) -> str:
    """The enumeration `method` names (default: the family's certifying one,
    "subfield" for the Hermitian family, "exhaustive" for the affine one),
    once it applies to the family and its size, worked out from `spec`
    alone, fits the budget.  An unknown method, or "subfield" on the affine
    family, raises ValueError before anything is sized; a size over budget
    raises BudgetExceeded.  A walk covers r^k messages (r = q for
    "subfield", the alphabet for "exhaustive"); "dual" up to `max_t` >= 3
    scans n(n-1)/2 column pairs times the alphabet's nonzero scalars, and
    up to max_t <= 2 scans none.  Both sizes are held to the one budget."""
    if method not in (None, "subfield", "exhaustive", "dual"):
        raise ValueError(f"unknown enumeration method {method!r}")
    if method == "subfield" and spec.family != FAMILY_HERMITIAN:
        raise ValueError("subfield enumeration applies to the Hermitian family")
    if method == "dual":
        if max_t >= 3:
            _require_size(spec.n * (spec.n - 1) // 2 * (spec.alphabet - 1), "pair search size")
        return method
    if method is None:
        method = "subfield" if spec.family == FAMILY_HERMITIAN else "exhaustive"
    r = spec.q if method == "subfield" else spec.alphabet
    _require_size(r**spec.k, f"message space {r}^{spec.k} =")
    return method


# weight -----------------------------------------------------------------------


def weight(codeword) -> int:
    return int(np.count_nonzero(np.asarray(codeword)))


# closed forms -----------------------------------------------------------------


def distance_formula(family: str, ell: int, q: int):
    """(d, witness) of the family's closed form, the witness attaining d.
    Hermitian: q^(ell^2) - q^(ell^2 - 1) - q^(ell^2 - 3), attained by the
    2x2 principal minor plus one ((None, None) at ell < 2, where it has
    none).  Affine: prod_{i=0..ell-1} (q^ell - q^i) = #GL_ell(F_q), attained
    by the full determinant."""
    if family == FAMILY_HERMITIAN:
        if ell < 2:
            return None, None
        m = ell * ell
        return q**m - q ** (m - 1) - q ** (m - 3), {((1, 2), (1, 2)): 1, ((), ()): 1}
    d = 1
    for i in range(ell):
        d *= q**ell - q**i
    full = tuple(range(1, ell + 1))
    return d, {(full, full): 1}


def dual_distance_formula(q: int) -> int:
    """Dual minimum distance of the Hermitian code at ell >= 2: 4 at q = 2
    (`dual_word_weight4`), 3 otherwise (`dual_word_weight3`)."""
    return 4 if q == 2 else 3


# streaming weight of a function ----------------------------------------------


def weight_of_function(f: dict, ell: int, q: int, family: str = FAMILY_HERMITIAN) -> int:
    """weight(ev(f)) without building a generator: f is evaluated and
    weighed on one decoded chunk of positions at a time, so memory stays at
    one chunk's; over at most BUILD_LIMIT positions.  A minor outside
    `minors.basis(ell)` raises ValueError before any chunk is decoded."""
    basis = mn.basis(ell)
    for minor in f:
        if minor not in basis:
            raise ValueError(f"minor {minor} not valid for ell={ell}")
    n = q ** (ell * ell)
    if n > BUILD_LIMIT:
        raise BudgetExceeded(f"q^(ell^2) = {n} exceeds build limit {BUILD_LIMIT}")
    tower = tower_for_q(q)
    return sum(weight(linalg.combine(tower, [eval_minor_vector(tower, E, m) for m in f],
                                     list(f.values())))
               for _, E in decoded_chunks(tower, ell, family))


# projective weight engine -----------------------------------------------------


def gray_steps(radix: int, k: int):
    """Reflected radix-ary Gray walk over k digits from all zeros.

    Yields (j, old, new, digits) for each of radix^k - 1 steps: step s
    moves digit j, the radix-adic valuation of s, by one in its direction,
    which turns at 0 and radix - 1.  The digits list is live, not a copy.
    """
    a, o = [0] * k, [1] * k
    for s in range(1, radix**k):
        j = 0
        while s % radix == 0:
            s, j = s // radix, j + 1
        old = a[j]
        a[j] = new = old + o[j]
        if new == 0 or new == radix - 1:
            o[j] = -o[j]
        yield j, old, new, a


@functools.cache
def _digit_lanes(p):
    """(w, add, flag) for base-p digits in lanes of w bits, 64 // w to a
    uint64 word: add sums two words lane by lane mod p, and flag(x, out)
    sets, in out (a buffer of x's shape, which may be x), the top bit of
    exactly the nonzero lanes of x and clears the rest.  At p = 2 a lane is
    a bit: add is XOR and x is its own flag, out unused.  At odd p, w =
    bit_length(2(p - 1)) holds the sum t of two digits, and add subtracts p
    from the lanes where t >= p, where t + 2^(w-1) - p reaches the top bit;
    a digit, below 2^(w-1), is nonzero where adding 2^(w-1) - 1 reaches it.
    No lane carries into the next."""
    if p == 2:
        return 1, np.bitwise_xor, lambda x, out: x
    w = (2 * (p - 1)).bit_length()
    ones, half = sum(1 << i for i in range(0, 64 // w * w, w)), 1 << w - 1
    top, up, nonzero = (np.uint64(ones * c) for c in (half, half - p, half - 1))

    def add(a, b):
        t = a + b
        t -= (((t + up) & top) >> np.uint64(w - 1)) * np.uint64(p)
        return t

    return w, add, lambda x, out: np.bitwise_and(np.add(x, nonzero, out=out), top, out=out)


def _additive_form(tower, rows, scalars, fiber=0):
    """(pack, add, weigh) for the words the engine adds and weighs.

    pack makes a word a table of one combination, and a walk's table grows
    along its last axis.  The walked state is kept negated: it holds -s for
    the message s of the walked digits.  weigh(x, out) gives the weight of
    every table combination plus that message from x, the table XORed with
    the state, which it reads and does not write; out is a buffer of one
    plane of x that it may overwrite.

    An index is the base-p digit vector of its element.  The values of
    every combination span a subspace of F_p^(2e), and projecting onto the
    pivot digits of its row-reduced basis is linear and injective on it,
    so a word is one plane per pivot digit, each position's digit in a lane
    of `_digit_lanes`, in a word-major table (planes, words, combinations).
    T + s is zero exactly where T equals the negated state S in every
    plane, so weigh ORs x = T ^ S over the planes and counts its flagged
    lanes.

    fiber = m > 0 packs on fiber lanes instead.  A fiber is a block of F =
    q^m consecutive positions, which share every position digit but the
    first m (the first row of an affine matrix at m = ell, h_00 at m = 1),
    and x in F_q^m is those digits.  On each fiber a word is b + sum_j a_j
    x_j, and pack packs its coefficients b = v[x = 0] and a_j = v[x = e_j] -
    b, n / F of each, as m + 1 word-aligned segments of the same lanes; the
    map is F_p-linear, so words still add.  Such an affine function has F
    zeros where a = b = 0, none where only a = 0, and F / q where a is not
    0, so weigh ORs the a segments into one flag, ORs that with b's flag,
    and returns F #[a or b] - (F / q) #[a], two counts.  That holds only
    for values in F_q (scalars times row entries) and rows that b + sum_j
    a_j x_j rebuilds on every fiber; on any other rows the form raises
    ValueError, after the first fiber of each row or after all of them.
    weigh.fiber is m (0 for positions), from which a worker process builds
    the form again.
    """
    p, q, n = tower.p, tower.q, rows.shape[1]
    w, add, flag = _digit_lanes(p)
    per, place, fp = 64 // w, p ** np.arange(2 * tower.e), tower_for_q(p)
    F, segs = q**fiber, fiber + 1

    def coefficients(v):
        # b = v at x = 0 and a_j = v at x = e_j minus b, on each fiber
        v = v.reshape(v.shape[:-1] + (-1, F))
        b = v[..., 0]
        return np.array([b] + [tower.add_np[v[..., q**j], tower.neg_np[b]] for j in range(fiber)])

    def rebuilt(part):
        # b + sum_j a_j x_j at every point x of every fiber
        b, *a = coefficients(part)
        v = b[..., None]
        for aj, xj in zip(a, tower.subfield_np[np.arange(F) // q ** np.arange(fiber)[:, None] % q]):
            v = tower.add_np.take(v.astype(np.intp) * tower.qq + tower.mul_np[:, xj].take(aj, axis=0))
        return v.reshape(part.shape)

    # a fiber layout checks the first fiber of every row before all of them: most rows that
    # do not fit fail there
    for part in (rows[:, :F], rows) if fiber else (rows,):
        values = np.unique(tower.mul_np[np.ix_(scalars, np.flatnonzero(np.bincount(part.ravel())))])
        if fiber and (n % F or (tower.subfield_digit_np[values] < 0).any()
                      or not np.array_equal(rebuilt(part), part)):
            raise ValueError(f"the rows are not F_q-affine on fibers of {F} positions")
    digits = values[:, None] // place % p
    basis = digits[linalg.rref(fp, digits.T)[1]]  # the values at the pivots of the transpose
    pivots = linalg.rref(fp, basis)[1] or [0]
    # lanes[j, a]: the w bits of pivot digit j of the element a
    lanes = (np.arange(tower.qq) // place[pivots, None] % p)[..., None] >> np.arange(w) & 1
    lanes, shape = lanes.astype(np.uint8), (len(pivots), segs * -(-n // F // per), per * w)

    def pack(v):
        # the per * w <= 64 lane bits of each word fill its 8 bytes, the last zero-padded; a
        # fiber word has one word-aligned segment per coefficient
        bits = np.zeros(shape, dtype=np.uint8)
        v = coefficients(v) if fiber else v[None]
        bits.reshape(shape[0], segs, -1)[..., :v.shape[1] * w] = \
            lanes.take(v, axis=1).reshape(shape[0], segs, -1)
        return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)

    def count(x, out):
        return np.add.reduce(np.bitwise_count(flag(x, out)), axis=0, dtype=np.int32)

    def weigh(x, out):
        x = x[0] if len(x) == 1 else np.bitwise_or.reduce(x, axis=0, out=out)
        if not fiber:
            return np.add.reduce(np.bitwise_count(flag(x, out)), axis=0, dtype=np.int32)
        y, o = x.reshape(segs, -1, x.shape[-1]), out.reshape(segs, -1, x.shape[-1])
        a = np.bitwise_or.reduce(y[1:], axis=0, out=o[1]) if fiber > 1 else y[1]
        # F #[a or b] - (F / q) #[a]: a fiber of F points has F / q zeros where a is not 0
        weights = count(np.bitwise_or(a, y[0], out=o[0]), o[0])
        weights *= q
        return np.multiply(np.subtract(weights, count(a, o[1]), out=weights), F // q, out=weights)

    weigh.fiber = fiber  # the layout, from which a worker process builds the form again
    return pack, add, weigh


def _plan(tower, rows, scalars, lead, threads=1):
    """(form, kt, jobs): how a walk covers the messages whose first `lead`
    digits are not all zero, one per scalar class.

    form is the `_additive_form` of the walk; the table takes the last kt
    digits.  A Gray step weighs r^kt packed rows at a fixed cost about that
    of weighing TABLE_BYTES more, so kt minimizes (steps + 1) * table +
    steps * TABLE_BYTES, the smallest kt on ties, among the tables of at
    most 8 * TABLE_BYTES (or kt = 0), where steps = sum over the heads of
    r^(k - kt - len(head)) counts the Gray states and the 1 the table's
    fill.  It never takes a lead digit unless lead = k, where the one
    all-zero head puts the zero message into the table for the reducer to
    mask.  The projective heads (0,)*i + (1,) over the lead digits, refined
    by ceil(log_r threads) more digits for threads > 1 (which moves no
    step), are dealt round-robin into at most `threads` jobs, longest
    walks first.

    The same cost chooses the form's layout, from sizes alone: positions,
    or fiber lanes on m digits, for m = 1 (h_00) and m = ell, with ell read
    off n = q^(ell^2) (the first row of an affine matrix).  A fiber word
    takes (m + 1) ceil(n / (q^m per)) lane words a plane instead of
    ceil(n / per), a step weighs a second count, 2 * TABLE_BYTES instead of
    TABLE_BYTES, and building and checking the layout costs 16 *
    TABLE_BYTES + 128 k n m once.  A fiber layout is costed only where its
    words are fewer and that last cost is below the position layout's
    whole cost, and built only where it costs least; one that does not
    fit the rows raises, and the next cheapest layout is taken, positions
    at the latest.
    """
    k, r, n, q = len(rows), len(scalars), rows.shape[1], tower.q
    form = _additive_form(tower, rows, scalars)
    planes, per = len(form[0](rows[0])), 64 // _digit_lanes(tower.p)[0]

    def words(m):  # the lane words of a row's plane on m fiber digits (m = 0: positions)
        return (m + 1) * -(-n // q**m // per)

    def setup(m):  # building and checking a fiber layout
        return (m > 0) * (16 * TABLE_BYTES + 128 * k * n * m)

    def layout(m):
        # (cost, kt, m) of the cheapest table; a fiber layout costs a second count each step
        row_bytes = 8 * planes * words(m)

        def cost(kt):
            h = min(lead, k - kt)  # the heads' lengths: 1..h, and h once more when h < lead
            steps = (r ** (k - kt) - r ** (k - kt - h)) // (r - 1) + (h < lead) * r ** (k - kt - h)
            return (steps + 1) * r**kt * row_bytes + steps * (1 + (m > 0)) * TABLE_BYTES

        return min((cost(t) + setup(m), t, m)
                   for t in range(most + 1) if t == 0 or r**t * row_bytes <= 8 * TABLE_BYTES)

    most = k if lead == k else k - lead
    fibers = {1, math.isqrt(round(math.log(max(n, 1), q)))}
    layouts = [layout(0)]
    layouts += [layout(m) for m in fibers if words(m) < words(0) and setup(m) < layouts[0][0]]
    for _, kt, m in sorted(layouts):
        with contextlib.suppress(ValueError):  # a fiber that does not fit: the next layout
            form = _additive_form(tower, rows, scalars, m) if m else form
            break
    h = min(lead, k - kt)
    heads = [(0,) * i + (1,) for i in range(h)] + [(0,) * h] * (h < lead)
    if threads > 1:
        m = next(m for m in itertools.count(1) if r**m >= threads)
        heads = [head + tail for head in heads
                 for tail in itertools.product(range(r), repeat=min(m, k - kt - len(head)))]
    heads.sort(key=len)
    return form, kt, [heads[t::threads] for t in range(threads) if heads[t::threads]]


def _walk(tower, rows, scalars, form, kt, heads):
    """The engine: yields (head, walked, weights) for each Gray state.

    The messages covered are those whose leading digits extend one of
    `heads`; the digits after the head and before the last kt are
    Gray-walked (`walked`, a live list), and weights[i] is the weight of
    the message completed by the i-th combination, in lexicographic digit
    order, of the last kt rows.  The word a head digit or a Gray step adds
    to the (negated) state, -c * rows[i], is packed once per walk for each
    (i, c), so a walk packs the zero word and at most k (r - 1) scaled
    words, not one per step.

    The table is filled in place, one slice per scaled tabled row, and is
    kept XORed with the state: a move from S to S' XORs it with S ^ S', a
    single word, so a weigh makes no table-sized temporary.  No packed word
    is written to, the zero word and the cached scaled words included.
    """
    pack, add, weigh = form
    kw, r = len(rows) - kt, len(scalars)
    word = functools.cache(lambda i, c: pack(tower.mul_np[tower.neg(c)][rows[i]]))
    state = zero = pack(np.zeros(rows.shape[1], dtype=np.uint8))
    table = np.zeros(zero.shape[:-1] + (r**kt,), dtype=zero.dtype)
    # lexicographic digit order: each tabled row, the last first, is the next
    # more significant digit, and its multiples fill the next slices
    for t, row in enumerate(rows[kw:][::-1]):
        for c in range(1, r):
            table[..., c * r**t:(c + 1) * r**t] = add(table[..., :r**t],
                                                      pack(tower.mul_np[scalars[c]][row]))
    out = np.empty(table.shape[1:], dtype=table.dtype)
    for head in heads:
        h = len(head)
        moved = functools.reduce(add, [word(i, scalars[d]) for i, d in enumerate(head) if d], zero)
        table ^= state ^ moved
        state, walked = moved, [0] * (kw - h)
        yield head, walked, weigh(table, out)
        for j, old, new, walked in gray_steps(r, kw - h):
            moved = add(state, word(h + j, tower.sub(scalars[new], scalars[old])))
            table ^= state ^ moved
            state = moved
            yield head, walked, weigh(table, out)


def _least_weight(tower, rows, scalars, kt, heads, form=None, fiber=0):
    """Least (weight, digits) over the nonzero messages `_walk` covers; a
    worker process, which is passed no form, builds its own, of the
    layout on `fiber` digits that the plan chose."""
    form = form or _additive_form(tower, rows, scalars, fiber)
    best = (rows.shape[1] + 1,)
    for head, walked, weights in _walk(tower, rows, scalars, form, kt, heads):
        if not any(head):
            weights[0] = rows.shape[1] + 1  # the zero message
        i = int(np.argmin(weights))
        if weights[i] <= best[0]:
            tail = tuple(map(int, np.unravel_index(i, (len(scalars),) * kt)))
            best = min(best, (int(weights[i]), head + tuple(walked) + tail))
    return best


def _weights_by_digits(tower, rows, scalars):
    """(digits, weight) of every message of two or more rows whose first
    digit is 1.  The r^k messages of the rows are bounded by
    `budget_messages()`."""
    rows = np.asarray(rows, dtype=np.uint8)
    r, k = len(scalars), len(rows)
    _require_size(r**k, f"message space {r}^{k} =")
    form, kt, [heads] = _plan(tower, rows, scalars, 1)
    tails = list(itertools.product(range(r), repeat=kt))
    for head, walked, weights in _walk(tower, rows, scalars, form, kt, heads):
        prefix = head + tuple(walked)
        for tail, w in zip(tails, weights.tolist()):
            yield prefix + tail, w


def min_weight_over_combinations(tower, rows, scalars, *, threads=1, lead=None):
    """Minimum weight over the coefficient vectors (coefficients drawn from
    scalars) of the given rows whose first `lead` digits (default: all) are
    not all zero, with the lexicographically smallest witness digit vector
    on ties.

    Projective: only the messages whose first nonzero digit is 1 are
    weighed.  The scalars must form a field with scalars[0] = 0 and
    scalars[1] = 1; then every message is a scalar multiple of such a
    representative of equal weight, and the representative is the
    lexicographically smallest member of its class, so the result is the
    minimum over all the messages covered.

    Returns (weight, digits, messages_searched), messages_searched being
    the (r^lead - 1) r^(k - lead) messages covered.  The r^k messages of
    the rows are bounded by `budget_messages()`.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    scalars = [int(s) for s in scalars]
    k, r = len(rows), len(scalars)
    lead = k if lead is None else lead
    if not 1 <= lead <= k:
        raise ValueError(f"lead must be in 1..{k}, got {lead}")
    if scalars[:2] != [0, 1]:
        raise ValueError("scalars must start with 0 and 1")
    if not set(tower.mul_np[np.ix_(scalars, scalars)].flat) <= set(scalars):
        raise ValueError("scalars are not closed under multiplication")
    _require_size(r**k, f"message space {r}^{k} =")
    form, kt, jobs = _plan(tower, rows, scalars, lead, threads)
    if len(jobs) == 1:
        best = _least_weight(tower, rows, scalars, kt, jobs[0], form)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            walk = functools.partial(_least_weight, tower, rows, scalars, kt, fiber=form[2].fiber)
            best = min(pool.map(walk, jobs))
    return best[0], best[1], (r**lead - 1) * r ** (k - lead)


# distance certificates --------------------------------------------------------


def _spec_fields(spec: CodeSpec) -> dict:
    """The code a certificate is about, its first fields."""
    return {"family": spec.family, "q": spec.q, "ell": spec.ell, "n": spec.n, "k": spec.k}


@dataclass
class DistanceCertificate:
    spec: CodeSpec
    d: int
    method: str  # Formula | WitnessOnly | ExhaustiveFull | ExhaustiveSubfield
    witness: dict | None
    messages_searched: int

    def as_dict(self) -> dict:
        out = {**_spec_fields(self.spec), "d": self.d, "method": self.method,
               "messages_searched": self.messages_searched}
        if self.witness is not None:
            out["witness"] = mn.format_combination(self.witness)
        if self.messages_searched:  # an enumeration names the generator it walked
            out["generator"] = self.spec.header
        return out


@dataclass
class DualDistanceCertificate:
    spec: CodeSpec
    d_dual: int
    columns: tuple
    coefficients: tuple
    exhausted_below: int  # every size < this was exhaustively ruled out

    def as_dict(self) -> dict:
        return {**_spec_fields(self.spec), "d_dual": self.d_dual, "columns": list(self.columns),
                "coefficients": list(self.coefficients),
                "exhausted_below": self.exhausted_below, "generator": self.spec.header}


def _walk_certificate(gen: GeneratorMatrix, method, rows, combos, scalars,
                      threads) -> DistanceCertificate:
    """Certify the least-weight combination of `rows`; combos[i] is the
    function whose evaluation is rows[i], so the witness is the same
    combination of combos, and its evaluation must attain the weight."""
    tower = gen.tower
    w, digits, searched = min_weight_over_combinations(tower, rows, scalars, threads=threads)
    message = linalg.combine(tower, [gen.message(f) for f in combos], [scalars[d] for d in digits])
    witness = gen.combination(message)
    require(weight(gen.encode(witness)) == w, f"witness does not attain the searched weight {w}")
    return DistanceCertificate(gen.spec, w, method, witness, searched)


def min_distance_exhaustive(gen: GeneratorMatrix, *, threads: int = 1) -> DistanceCertificate:
    """Minimum weight over every nonzero message of the code's alphabet."""
    return _walk_certificate(gen, "ExhaustiveFull", gen.rows, [{m: 1} for m in gen.basis],
                             gen.scalars, threads)


def min_distance_subfield(gen: GeneratorMatrix, *, threads: int = 1) -> DistanceCertificate:
    """Minimum weight over all nonzero F_q-combinations of the F_q row basis
    (`fq_basis`).

    Equals the true minimum distance of the Hermitian code because its
    minimum-weight words are scalar multiples of subfield-valued words;
    `require_budget` refuses it on the affine family.
    """
    require_budget(gen.spec, "subfield")
    combos = fq_basis(gen.spec.ell, gen.spec.q)
    return _walk_certificate(gen, "ExhaustiveSubfield", subfield_rows(gen, combos), combos,
                             list(gen.tower.subfield), threads)


def min_distance(gen: GeneratorMatrix, method: str | None = None, *,
                 threads: int = 1) -> DistanceCertificate:
    """Certified minimum distance by the enumeration `method` names, by
    default the family's certifying one: subfield for the Hermitian family,
    exhaustive for the affine family, where "subfield" raises ValueError.
    Its size is bounded by `require_budget`, which refuses a method it does
    not know; "dual" names no walk and is refused before anything is sized."""
    if method == "dual":
        raise ValueError("the dual pair scan does not certify a minimum distance")
    if require_budget(gen.spec, method) == "subfield":
        return min_distance_subfield(gen, threads=threads)
    return min_distance_exhaustive(gen, threads=threads)


def min_distance_formula(family: str, ell: int, q: int) -> DistanceCertificate:
    """Formula-only certificate; upgraded to WitnessOnly when the canonical
    witness can be evaluated (n <= BUILD_LIMIT) and confirms the value."""
    spec = CodeSpec(family, q, ell)
    d, wit = distance_formula(family, ell, q)
    if d is None:
        raise ValueError("no closed form for the Hermitian family at ell < 2")
    if spec.n <= BUILD_LIMIT:
        w = weight_of_function(wit, ell, q, family)
        require(w == d, f"witness weight {w} contradicts formula value {d}")
        return DistanceCertificate(spec, d, "WitnessOnly", wit, 0)
    return DistanceCertificate(spec, d, "Formula", None, 0)


# dual distance ----------------------------------------------------------------


def _verify_dual_word(gen: GeneratorMatrix, positions, coeffs) -> bool:
    """Whether the word with coeffs at positions is orthogonal to every row."""
    return not linalg.combine(gen.tower, gen.rows[:, list(positions)].T, coeffs).any()


def _dual_word(gen: GeneratorMatrix, positions, coeffs):
    """(positions, coeffs) sorted by position, after requiring the positions
    to be distinct and the word to be orthogonal to every generator row."""
    require(len(set(positions)) == len(positions), "support positions are not distinct")
    positions, coeffs = zip(*sorted(zip(map(int, positions), coeffs)))
    require(_verify_dual_word(gen, positions, coeffs),
            f"weight-{len(positions)} word is not orthogonal to the code")
    return positions, coeffs


def _packer(tower, k):
    """(pack, key) for vectors of k field indices along the last axis.

    pack stores each index as its 2e base-p digits in the lanes of
    `_digit_lanes`, b = 2e w bits to an element (at p = 2 the index itself),
    64 // b elements to a uint64 word.  Lanes hold reduced digits, so vectors
    are equal exactly when their words are, and a sum's words are the lane
    sum of the words.  key views a vector's words as one value, a uint64 or
    a raw byte string, so keys sort, search and compare at any width.
    """
    w = _digit_lanes(tower.p)[0]
    b = 2 * tower.e * w
    per = 64 // b
    words = -(-k // per)
    dtype = np.dtype(np.uint64) if words == 1 else np.dtype((np.void, 8 * words))
    lanes = linalg._lanes(tower, w)[0][1].astype(np.uint64)  # the lane word of 1 * a

    def pack(vecs):
        out = np.zeros(vecs.shape[:-1] + (words,), dtype=np.uint64)
        for c in range(k):
            # at p = 2 the lanes of an index are its bits: it is its own lane word
            v = vecs[..., c].astype(np.uint64) if w == 1 else lanes[vecs[..., c]]
            out[..., c // per] |= v << np.uint64(c % per * b)
        return out

    return pack, lambda w: np.ascontiguousarray(w).view(dtype).reshape(w.shape[:-1])


def _normal_forms(tower, vecs):
    """(forms, leads): each nonzero vector along the last axis scaled by the
    inverse of its first nonzero entry, and that entry."""
    leads = np.take_along_axis(vecs, (vecs != 0).argmax(axis=-1)[..., None], axis=-1)
    return tower.mul_np[tower.inv_np[leads], vecs], leads[..., 0]


def _first_repeat(keys, at, seen, seen_at):
    """The first of `keys` that occurred before, scanning them, at the
    increasing positions `at`, after the sorted keys `seen`, each at its
    first position `seen_at`.

    Returns ((position, first position), seen, seen_at) for that key, or,
    when no key repeats, (None, seen, seen_at) with the keys merged in.
    """
    uniq, first = np.unique(keys, return_index=True)
    where = np.searchsorted(seen, keys)
    earlier = np.zeros(len(keys), dtype=bool)
    if len(seen):
        earlier = seen[where.clip(max=len(seen) - 1)] == keys
    repeat = np.ones(len(keys), dtype=bool)
    repeat[first] = earlier[first]
    if repeat.any():
        s = int(repeat.argmax())
        partner = seen_at[where[s]] if earlier[s] else at[first[np.searchsorted(uniq, keys[s])]]
        return (int(at[s]), int(partner)), seen, seen_at
    where = np.searchsorted(seen, uniq)
    return None, np.insert(seen, where, uniq), np.insert(seen_at, where, at[first])


def _first_member(keys, members):
    """(s, i) for the first of `keys` that is in the sorted array
    `members`, members[i] being that key, or None.  Whether any key is a
    member is asked of the sorted keys, and the unsorted ones are searched
    only when one is."""
    found = np.sort(keys)
    if not (found[np.searchsorted(found, members).clip(max=len(found) - 1)] == members).any():
        return None
    where = np.searchsorted(members, keys).clip(max=len(members) - 1)
    s = int((members[where] == keys).argmax())
    return s, int(where[s])


def _pair_blocks(n, r):
    """(i0, i1) for each block of rows i0 <= i < i1 of the pair scan over n
    columns and r scalars: the first block is one row and each next one
    twice as many, up to TABLE_BYTES // (n r) rows, or one row when that
    is none.  The scan takes a block as one rectangle, its rows by the
    columns i0 < j < n, so it holds at most TABLE_BYTES sums, or one
    row's, those with j <= i blanked."""
    most = max(1, TABLE_BYTES // (n * r))
    i0, rows = 0, 1
    while i0 < n - 1:
        i1 = min(n - 1, i0 + rows)
        yield i0, i1
        i0, rows = i1, min(2 * rows, most)


def dual_min_distance(gen: GeneratorMatrix, max_t: int = 4) -> DualDistanceCertificate:
    """Smallest t <= max_t such that t generator columns are linearly
    dependent, with the dependency coefficients (a weight-t dual codeword).

    Sizes are searched in increasing order; every size below the returned
    one is exhaustively ruled out.  Scalars a range over the code's
    alphabet.  Vectors are compared by their packed keys (`_packer`): t = 1
    is a zero column and t = 2 the first column whose projective normal
    form an earlier column has.  The pair sums col_i + a col_j are scanned
    in (i, j, a) order, in blocks of rows i (`_pair_blocks`), a block as
    one rectangle, rows i0 <= i < i1 by columns i0 < j < n, whose pairs
    j <= i take the zero vector's key, neither a sum nor a member once
    t <= 2 is ruled out; the rest are in scan order.  t = 3 is the first
    sum whose raw key is the key of a multiple lam col_m, lam in the
    alphabet (its coefficient is -lam): an F_q-valued sum is only ever an
    F_q multiple of an F_q column.  t = 4 is the first sum i < j whose
    normal form an earlier sum has, with the first such earlier sum.  Sums
    are brought to normal forms only until that repeat; after it a block
    is only tested for t = 3.
    """
    if not 1 <= max_t <= 4:
        raise ValueError("max_t must be in 1..4")
    tower = gen.tower
    spec = gen.spec
    require_budget(spec, "dual", max_t)
    n = spec.n
    nonzero = np.array(gen.scalars[1:])
    mul, neg, inv = tower.mul, tower.neg, tower.inv
    cols = gen.rows.T
    pack, key = _packer(tower, spec.k)
    add = _digit_lanes(tower.p)[1]

    def finish(t, positions, coeffs):
        scale = inv(coeffs[positions.index(min(positions))])
        positions, coeffs = _dual_word(gen, positions, [mul(scale, c) for c in coeffs])
        return DualDistanceCertificate(spec, t, positions, coeffs, t)

    # t = 1: a zero column
    zero = np.flatnonzero(~cols.any(axis=1))
    if zero.size:
        return finish(1, (int(zero[0]),), (1,))
    if max_t == 1:
        raise NoneFoundWithinBound(1)

    # t = 2: two proportional columns
    forms, leads = _normal_forms(tower, cols)
    keys = key(pack(forms))
    repeat, _, _ = _first_repeat(keys, np.arange(n), keys[:0], np.arange(0))
    if repeat:
        i, j = repeat
        return finish(2, (j, i), (inv(int(leads[j])), neg(inv(int(leads[i])))))
    if max_t == 2:
        raise NoneFoundWithinBound(2)

    # t = 3 and t = 4: col_i + a col_j, never zero since t = 2 is ruled out.
    # A sum is named by its rank (i n + j) r + s in the scan, a = nonzero[s].
    r = len(nonzero)
    scaled = tower.mul_np[nonzero[:, None], cols[:, None]]  # scaled[m, s] = nonzero[s] col_m
    words = pack(scaled)
    members = key(words).reshape(-1)
    order = np.argsort(members)
    members = members[order]
    # the zero vector's key: neither a multiple of a column nor a pair sum
    blank = key(np.zeros(words.shape[-1:], np.uint64))
    t4, seen, seen_at = None, keys[:0], np.arange(0)

    def pair_sum(rank):
        (i, j), s = divmod(rank // r, n), rank % r
        return int(i), int(j), int(nonzero[s]), tower.add_np[cols[i], scaled[j, s]]

    for i0, i1 in _pair_blocks(n, r):
        # rows [i0, i1) by columns (i0, n), nonzero[0] = 1: with the pairs
        # j <= i blanked, the rest are in scan order
        block = key(add(words[i0:i1, None, :1], words[None, i0 + 1:]))
        for row in range(1, i1 - i0):
            block[row, :row] = blank
        hit = _first_member(block.reshape(-1), members)
        if hit is not None:
            i, j, s = map(int, np.unravel_index(hit[0], block.shape))
            m, lam = divmod(int(order[hit[1]]), r)
            return finish(3, (i0 + i, i0 + 1 + j, m), (1, int(nonzero[s]), neg(int(nonzero[lam]))))
        if max_t == 4 and t4 is None:
            I, J = np.arange(i0, i1)[:, None], np.arange(i0 + 1, n)
            upper = I < J
            sums = tower.add_np[cols[i0:i1, None, None], scaled[i0 + 1:]][upper]
            forms = _normal_forms(tower, sums)[0]
            at = ((I * n + J)[upper][:, None] * r + np.arange(r)).reshape(-1)
            t4, seen, seen_at = _first_repeat(key(pack(forms)).reshape(-1), at, seen, seen_at)
    if t4 is None:
        raise NoneFoundWithinBound(max_t)
    (i, j, a, s), (i2, j2, a2, s2) = map(pair_sum, t4)
    inv1, inv2 = (inv(int(_normal_forms(tower, v)[1])) for v in (s, s2))
    return finish(4, (i2, j2, i, j), (inv2, mul(inv2, a2), neg(inv1), neg(mul(inv1, a))))

# dual minimum-weight support families ----------------------------------------


def _translates_word(gen: GeneratorMatrix, H, translations, coeffs):
    """The dual word with coeffs on the positions of H + M, M running over
    `translations` (H the zero matrix when None)."""
    tower, ell = gen.tower, gen.spec.ell
    H = np.zeros((ell, ell), np.uint8) if H is None else H
    supports = translate(tower, H, np.stack(translations, axis=-1))
    return _dual_word(gen, encode(tower, ell, FAMILY_HERMITIAN, supports), coeffs)


def dual_word_weight3(gen: GeneratorMatrix, alpha: int, c0: int = 1,
                      H=None, b=None):
    """Weight-3 dual codeword for q > 2 on the support {H, H + b*b,
    H + alpha b*b} with coefficients (c0, -alpha/(alpha-1) c0, 1/(alpha-1) c0).

    Returns (positions, coefficients), orthogonality-verified against every
    generator row.
    """
    tower = gen.tower
    ell = gen.spec.ell
    q = gen.spec.q
    if q <= 2:
        raise ValueError("weight-3 dual words require q > 2")
    if not (tower.in_base_subfield(alpha) and alpha not in (0, 1)):
        raise ValueError(f"alpha must lie in F_q minus {{0, 1}}, got {alpha}")
    if c0 == 0:
        raise ValueError("c0 must be nonzero")
    b = np.eye(ell, dtype=np.uint8)[0] if b is None else np.asarray(b, dtype=np.uint8)
    if not b.any():
        raise ValueError("b must be a nonzero vector")
    M = outer(tower, b, b)
    den = tower.inv(tower.sub(alpha, 1))
    coeffs = [c0, tower.mul(tower.neg(tower.mul(alpha, den)), c0), tower.mul(den, c0)]
    return _translates_word(gen, H, [np.zeros_like(M), M, tower.mul_np[alpha, M]], coeffs)


def dual_word_weight4(gen: GeneratorMatrix, H=None, a1=None, a2=None):
    """Weight-4 dual codeword for q = 2 on the support {H, H + a1*a1,
    H + a2*a1 + a1*a2, H + a1*a1 + a2*a1 + a1*a2}, all coefficients 1.

    a1, a2 must be linearly independent over F_{q^2}.
    """
    tower = gen.tower
    ell = gen.spec.ell
    if gen.spec.q != 2:
        raise ValueError("the four-matrix family is the q = 2 case")
    a1 = np.eye(ell, dtype=np.uint8)[0] if a1 is None else a1
    a2 = np.eye(ell, dtype=np.uint8)[1] if a2 is None else a2
    if linalg.rank(tower, [a1, a2]) != 2:
        raise ValueError("a1, a2 must be linearly independent")
    M1 = outer(tower, a1, a1)
    M2 = tower.add_np[outer(tower, a2, a1), outer(tower, a1, a2)]
    return _translates_word(gen, H, [np.zeros_like(M1), M1, M2, tower.add_np[M1, M2]], (1, 1, 1, 1))


def dual_support_families(gen: GeneratorMatrix, seed: int = DEFAULT_SEED) -> list:
    """50 randomized verified minimum-weight dual codewords: the
    three-matrix family for q > 2, the four-matrix family for q = 2."""
    import random

    tower = gen.tower
    ell = gen.spec.ell
    q = gen.spec.q
    rng = random.Random(seed)
    out = []
    for _ in range(50):
        H = decode(tower, ell, FAMILY_HERMITIAN, rng.randrange(q ** (ell * ell)))
        if q == 2:
            while True:
                a1 = tuple(rng.randrange(tower.qq) for _ in range(ell))
                a2 = tuple(rng.randrange(tower.qq) for _ in range(ell))
                if linalg.rank(tower, (a1, a2)) == 2:
                    break
            out.append(dual_word_weight4(gen, H, a1, a2))
        else:
            alpha = rng.choice([s for s in tower.subfield if s not in (0, 1)])
            c0 = rng.randrange(1, tower.qq)
            while True:
                b = tuple(rng.randrange(tower.qq) for _ in range(ell))
                if any(b):
                    break
            out.append(dual_word_weight3(gen, alpha, c0, H, b))
    return out


# counting identities ---------------------------------------------------------------


def hyperbolic_zero_count(tower: FieldTower, lam: int) -> int:
    """Solutions over F_q of (x1 + a)(x2 + b) = lam: 2q - 1 when lam = 0,
    q - 1 otherwise.  Computed both by formula and by brute force on
    x1 x2 = lam; they must agree.  x1 -> x1 + a and x2 -> x2 + b are
    bijections of F_q, so the count does not depend on a or b."""
    if not tower.in_base_subfield(lam):
        raise ValueError("lam must lie in F_q")
    q = tower.q
    formula = 2 * q - 1 if lam == 0 else q - 1
    sub = tower.subfield_np
    brute = int(np.count_nonzero(tower.mul_np[sub[:, None], sub] == lam))
    require(brute == formula, f"hyperbolic count mismatch: formula {formula}, brute {brute}")
    return brute


def system_solution_count(tower: FieldTower, a, b) -> int:
    """Brute-force count of solutions X in F_{q^2}^n of the norm/cross-term
    system x_i^(q+1) = a_i, x_i x_j^q = b[i][j] (i != j); asserted <= q + 1."""
    n = len(a)
    if n > 3:
        raise ValueError("n <= 3 required")
    for v in a:
        if not tower.in_base_subfield(v):
            raise ValueError("a_i must lie in F_q")
    X = np.indices((tower.qq,) * n, dtype=np.intp).reshape(n, -1)  # column = one vector
    ok = np.ones(X.shape[1], dtype=bool)
    for i in range(n):
        ok &= tower.norm_np[X[i]] == a[i]
        for j in range(n):
            if i != j:
                ok &= tower.mul_np[X[i], tower.conj_np[X[j]]] == b[i][j]
    count = int(np.count_nonzero(ok))
    require(count <= tower.q + 1, f"system has {count} solutions, exceeding q + 1 = {tower.q + 1}")
    return count


def random_system(tower: FieldTower, n: int, rng, consistent: bool = True):
    """(a, b) for the norm/cross-term system; consistent systems are built
    from a random solution vector."""
    if consistent:
        X = [rng.randrange(tower.qq) for _ in range(n)]
        a = [tower.norm(x) for x in X]
        b = [[tower.mul(X[i], tower.conjugate(X[j])) for j in range(n)] for i in range(n)]
    else:
        a = [rng.choice(tower.subfield) for _ in range(n)]
        b = [[rng.randrange(tower.qq) for _ in range(n)] for _ in range(n)]
    return a, b


# weight classifiers ------------------------------------------------------------


def _stratum(gen: GeneratorMatrix, k: int, self_conjugate: bool):
    """(rows, combos, scalars, lead) of the walk, over the messages whose
    first `lead` digits are not all zero, whose least weight is that of the
    words whose maximal minors have size k.  The size-k rows lead, and the
    rows of size < min(k, 2) follow; combos[i] is the function of rows[i],
    from the F_q basis with scalars F_q when `self_conjugate`, from the
    minor basis with the code's alphabet otherwise.

    At ell = 2 these are all the rows of size <= k.  At k = ell = 3 the
    2-minor rows are left out, by translation clearing: its translation
    takes a self-conjugate word det + C + L (C of size 2, L of degree
    <= 1) to det plus a degree <= 1 part, at equal weight, since a
    translation permutes positions.  The clearing matrix and the 2-minor
    part of det∘translate(H) are F_q-linear in C, so clearing the nine F_q
    basis rows of size 2, checked here before any walk, clears every C.
    """
    ell, q = gen.spec.ell, gen.spec.q
    fq = fq_basis(ell, q)
    if k > 2:
        full = tuple(range(1, k + 1))
        for g in fq:
            if len(next(iter(g))[0]) == 2:
                require(verify_translation_clearing(gen, {(full, full): 1, **g}, full),
                        f"the clearing translation leaves a 2-minor of det + {g}")
    if self_conjugate:
        combos, scalars, rows = fq, gen.tower.subfield, subfield_rows(gen, fq)
    else:
        combos, scalars, rows = [{m: 1} for m in gen.basis], gen.scalars, gen.rows
    size = [len(next(iter(f))[0]) for f in combos]
    order = _stratum_order(size, k)
    return rows[order], [combos[i] for i in order], scalars, size.count(k)


def _stratum_order(size, k):
    """Indices of the stratum's rows among functions whose minors have the
    sizes `size`: the size-k ones, then those of size < min(k, 2)."""
    return ([i for i, z in enumerate(size) if z == k]
            + [i for i, z in enumerate(size) if z < min(k, 2)])


def classify_weights_l2(q: int) -> dict:
    """Exhaustive weights of the self-conjugate functions with the full 2x2
    minor normalized to 1: the ell = 2 det stratum over F_q (`_stratum`)
    with its det digit 1.

    Exactly two weights occur: q^4 - q^3 + q^2 - q and q^4 - q^3 - q.  Two
    sign conventions circulate for the predicate picking out the larger
    weight (they differ only outside characteristic 2); both are tested
    against brute force and the matching one is reported.
      plus_f0 form:   f0 + f12^(q+1) - f11 f22 = 0
      minus_f0 form:  f12^(q+1) - f0 + f11 f22 = 0
    """
    gen = build_generator(FAMILY_HERMITIAN, 2, q)
    tower = gen.tower
    rows, combos, sub, _ = _stratum(gen, 2, True)
    digits, weights = map(np.array, zip(*_weights_by_digits(tower, rows, sub)))
    # coefficient of each minor in every message: its column of the combos'
    # messages, combined with the digits' scalars
    coeffs = np.array(sub, dtype=np.uint8)[digits].T
    messages = np.array([gen.message(f) for f in combos], dtype=np.uint8)
    f0, f11, f12, f22 = (linalg.combine(tower, coeffs, messages[:, gen.basis.index(m)])
                         for m in (((), ()), ((1,), (1,)), ((1,), (2,)), ((2,), (2,))))
    w_high = q**4 - q**3 + q**2 - q
    w_low = q**4 - q**3 - q
    weights_seen = set(np.unique(weights).tolist())
    is_high = weights == w_high
    count_high = int(is_high.sum())
    prod, nrm = tower.mul_np[f11, f22], tower.norm_np[f12]
    plus_ok = bool(np.array_equal(tower.add_np[f0, nrm] == prod, is_high))
    minus_ok = bool(np.array_equal(tower.add_np[nrm, prod] == f0, is_high))
    expected = {w_high, w_low}
    require(weights_seen == expected,
            f"observed weights {sorted(weights_seen)} != expected {sorted(expected)}")
    resolved = {(True, True): "both", (True, False): "plus_f0",
                (False, True): "minus_f0", (False, False): "neither"}[plus_ok, minus_ok]
    family_size = q**3 * q**2
    return {
        "q": q,
        "family_size": family_size,
        "weights": sorted(weights_seen),
        "expected_weights": sorted(expected),
        "count_weight_high": count_high,
        "count_weight_low": family_size - count_high,
        "plus_f0_predicate_matches": plus_ok,
        "minus_f0_predicate_matches": minus_ok,
        "resolved_predicate": resolved,
    }


def verify_l3_bounds(q: int = 2) -> dict:
    """The least weight of the self-conjugate ell = 3 det stratum
    (`min_weight_by_max_minor`, which walks det plus the degree <= 1 part,
    the stratum cleared by translation), against the structural lower bound
    q^9 - q^8 - q^6 + q^5 - q^4 + q^3.

    Also pins the two special weights: weight(det) must equal the invertible
    count q^3 (q-1)(q^2+1)(q^3-1) (an alternative printed expansion of it,
    q^9 - q^8 + q^7 - 2 q^6 - q^4 + q^3, drops a q^5 term and is reported
    for comparison), and weight(det + c) for c != 0 must equal
    q^9 - q^8 - q^6 + q^5 + q^3.
    """
    stratum = min_weight_by_max_minor(3, 3, q, self_conjugate_only=True)
    gen = build_generator(FAMILY_HERMITIAN, 3, q)
    det = ((1, 2, 3), (1, 2, 3))
    bound = q**9 - q**8 - q**6 + q**5 - q**4 + q**3
    det_product_form = count_invertible(3, q)
    det_alt_expansion = q**9 - q**8 + q**7 - 2 * q**6 - q**4 + q**3
    det_plus_expected = q**9 - q**8 - q**6 + q**5 + q**3
    weight_det = weight(gen.encode({det: 1}))
    det_plus_weights = {weight(gen.encode({det: 1, ((), ()): c})) for c in gen.tower.subfield if c}
    report = {
        "q": q,
        "family_size": stratum["functions_examined"],
        "min_weight": stratum["min_weight"],
        "bound": bound,
        "all_above_bound": stratum["min_weight"] >= bound,
        "weight_det": weight_det,
        "weight_det_product_form": det_product_form,
        "weight_det_matches_product_form": weight_det == det_product_form,
        "weight_det_alt_expansion": det_alt_expansion,
        "weight_det_matches_alt_expansion": weight_det == det_alt_expansion,
        "weight_det_plus_const": sorted(det_plus_weights),
        "weight_det_plus_const_expected": det_plus_expected,
    }
    require(report["all_above_bound"], "a family member falls below the structural bound")
    require(weight_det == det_product_form, "weight(det) does not match the invertible count")
    require(det_plus_weights == {det_plus_expected},
            "weight(det + c) does not match its closed form")
    return report

# minimum weight stratified by maximal-minor size --------------------------------


def induction_bound(k: int, q: int) -> int:
    """Lower bound for the minimum weight when the largest support minor is a
    principal k x k minor: q^(k^2) - q^(k^2-1) - q^(k^2-3) + q^(k^2-2k) - 1.
    The paper's bound, for k >= 2."""
    m = k * k
    return q**m - q ** (m - 1) - q ** (m - 3) + q ** (m - 2 * k) - 1


def min_weight_by_max_minor(ell: int, k: int, q: int,
                            self_conjugate_only: bool = False) -> dict:
    """Exhaustive minimum weight over the combinations whose maximal support
    minors all have size exactly k (over the F_q basis when
    `self_conjugate_only`), checked against the induction bound at k = ell.

    The stratum must be read off the message digits: at ell = 2 the support
    classes nest, so the class is the largest minor size among the nonzero
    digits, and at k = ell it is "the det digit is nonzero"; any other
    (ell, k) raises ValueError, as does ell < 2, where the induction bound
    does not hold, and ell > 3, where one translation does not clear the
    det stratum to degree <= 1.  The walk is the stratum's rows (`_stratum`):
    at ell = 3 det leads the degree <= 1 rows, the clearing checked first.
    Its r^rows messages (r = q when `self_conjugate_only`, the alphabet
    otherwise) are sized before the build, the rows chosen from the minor
    basis by the stratum's own rule (`_stratum_order`).

    At k = ell the self-conjugate minimum is also the minimum over every
    combination.  Take a word c whose det coefficient a is nonzero and a
    beta with Tr(beta a) != 0: beta c + (beta c)^q is self-conjugate, its
    det coefficient is Tr(beta a), and its support lies inside c's.  So the
    cleared walk over the alphabet, which holds the cleared self-conjugate
    words, finds the same minimum.
    """
    if ell < 2:
        raise ValueError(f"the induction bound needs ell >= 2, got {ell}")
    if not 0 <= k <= ell:
        raise ValueError("need 0 <= k <= ell")
    if ell != 2 and k != ell:
        raise ValueError(f"the stratum k = {k} at ell = {ell} is not read off the digits")
    if ell > 3:
        raise ValueError(f"one translation clears the det stratum to degree <= 1 only "
                         f"up to ell = 3, got {ell}")
    spec = CodeSpec(FAMILY_HERMITIAN, q, ell)
    sizes = [len(I) for I, _ in mn.basis(ell)]
    r, m = q if self_conjugate_only else spec.alphabet, len(_stratum_order(sizes, k))
    _require_size(r**m, f"message space {r}^{m} =")
    gen = build_generator(FAMILY_HERMITIAN, ell, q)
    rows, _, scalars, lead = _stratum(gen, k, self_conjugate_only)
    best, _, count = min_weight_over_combinations(gen.tower, rows, scalars, lead=lead)
    report = {
        "ell": ell,
        "k": k,
        "q": q,
        "self_conjugate_only": self_conjugate_only,
        "functions_examined": count,
        "min_weight": best,
    }
    if k == ell:
        bound = induction_bound(k, q)
        report["bound"] = bound
        report["meets_bound"] = best >= bound
        require(report["meets_bound"], f"minimum weight {best} falls below bound {bound}")
    return report


# translation clearing -----------------------------------------------------------


def translation_clearing_matrix(tower: FieldTower, ell: int, f: dict, I: tuple):
    """The Hermitian translation H with entries h_{i,j} =
    (-1)^(a+b-1) f_{I minus i, I minus j} (a, b the positions of i, j in I),
    zero outside I x I."""
    H = np.zeros((ell, ell), dtype=np.uint8)
    for a, i in enumerate(I, start=1):
        for b, j in enumerate(I, start=1):
            key = (tuple(x for x in I if x != i), tuple(x for x in I if x != j))
            v = f.get(key, 0)
            if (a + b) % 2 == 0:
                v = tower.neg(v)
            H[i - 1, j - 1] = v
    return H


def verify_translation_clearing(gen: GeneratorMatrix, f: dict, I: tuple) -> bool:
    """Translate f, scaled to det coefficient 1, by the clearing matrix and
    check (on its word, permuted by the translation and interpolated) that
    no (|I|-1)-minor with rows and columns inside I survives in the
    support.  A clearing matrix that is not Hermitian makes the translation
    raise ValueError."""
    tower = gen.tower
    ell = gen.spec.ell
    I = tuple(sorted(I))
    if not mn.is_self_conjugate(tower, f):
        raise ValueError("f must be self-conjugate")
    if (I, I) not in mn.maximal_minors(f):
        raise ValueError(f"the principal minor on {I} is not maximal in f")
    message = tower.mul_np[tower.inv(f[(I, I)])][gen.message(f)]
    H = translation_clearing_matrix(tower, ell, gen.combination(message), I)
    word = gen.encode_message(message)
    translated = gen.interpolate(word[translate_permutation(tower, ell, H)])
    si = set(I)
    target = len(I) - 1
    for (Ip, Jp) in mn.support(translated):
        if len(Ip) == target and set(Ip) <= si and set(Jp) <= si:
            return False
    return True


# spread reduction ----------------------------------------------------------------


def spread_reduction_step(gen: GeneratorMatrix, f: dict):
    """One spread-reduction move: relabel rows/columns so the chosen maximal
    minor of minimal spread sits at I = [k], J = {s-k+1..s}, then apply the
    congruence by I + lambda E_{1,s}, both as permutations of the word of f,
    each interpolated back to a combination.

    lambda is the first nonzero scalar whose congruence keeps the reduced
    minor (I, J - s + 1) in the support; NoValidLambda is raised when none
    does.  Returns (f_new, info); f_new has identical weight (both
    transforms are position permutations) and its support contains that
    size-k minor of spread <= s-1.
    """
    tower = gen.tower
    ell = gen.spec.ell
    maximal = mn.maximal_minors(f)
    if not maximal:
        raise ValueError("zero combination")
    M = min(maximal, key=lambda m: (mn.spread(m), len(m[0]), m))
    k = len(M[0])
    s = mn.spread(M)
    if s <= k:
        raise ValueError(
            f"maximal minor of minimal spread has spread {s} = size {k}; nothing to reduce"
        )
    I, J = set(M[0]), set(M[1])
    # pi maps new labels to old: [1..s-k] <- I\J, [s-k+1..k] <- I&J,
    # [k+1..s] <- J\I, the rest in order
    groups = [sorted(I - J), sorted(I & J), sorted(J - I), sorted(set(range(1, ell + 1)) - (I | J))]
    pi = dict(enumerate(itertools.chain(*groups), start=1))
    P = np.eye(ell, dtype=np.uint8)[[pi[i] - 1 for i in range(1, ell + 1)]]
    w1 = gen.encode(f)[congruence_permutation(tower, ell, P)]
    reduced = (tuple(range(1, k + 1)), (1, *range(s - k + 1, s)))
    A = np.eye(ell, dtype=np.uint8)
    for lam in range(1, tower.qq):
        A[0, s - 1] = lam  # I + lam E_{1,s}: adds lam times row s to row 1
        f2 = gen.interpolate(w1[congruence_permutation(tower, ell, A)])
        if f2.get(reduced, 0):
            return f2, {"minor": M, "size": k, "spread": s, "relabeling": pi, "lambda": lam,
                        "new_minor": reduced}
    raise NoValidLambda("no scalar keeps the reduced minor alive")
