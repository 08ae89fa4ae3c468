"""The projective weight engine and the one budget every enumeration is
sized against.

Enumeration is projective, one message per scalar class (first nonzero
digit 1): a mixed-radix Gray walk over the leading digits adds one scaled
row per step and weighs a table of every combination of the trailing rows
against it in one vectorized operation.  Words are packed one way in every
characteristic and every layout, as base-p digits in lanes of w bits
(`_additive_form`, `_digit_lanes`), one plane per pivot digit of the one
value basis a walk scans its rows for (`_lane_basis`): fiber lanes, a
word's affine coefficients along its first m position digits (every minor
uses each row of X at most once, so a word is affine in h_00 and, for the
affine family, in the whole first row of X), whose zeros on each fiber
follow from two flags; positions are the fibers of one position, m = 0,
whose one coefficient is the word.  Each scaled row is packed once per walk
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
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import itertools
import math
import os

import numpy as np

from . import linalg
from .codebuild import FAMILY_HERMITIAN, CodeSpec
from .errors import BudgetExceeded, indices
from .galois import tower_for_q
from .linalg import TABLE_BYTES

DEFAULT_BUDGET_MESSAGES = 2**24


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


def _lane_basis(tower, rows, scalars):
    """(values, lanes): the walk's one scan of the values its words take.

    values are the distinct products of the scalars with the entries of
    the rows, sorted.  An index is the base-p digit vector of its element;
    the values of every combination span a subspace of F_p^(2e), and
    projecting onto the pivot digits of its row-reduced basis is linear and
    injective on it, so a word is one plane per pivot digit.  lanes[j, a]
    holds the w bits of `_digit_lanes` of pivot digit j of the element a,
    and len(lanes) is the number of planes of every layout.
    """
    p, fp, place = tower.p, tower_for_q(tower.p), tower.p ** np.arange(2 * tower.e)
    entries = np.flatnonzero(np.bincount(rows.ravel()))
    values = np.unique(tower.muls(np.asarray(scalars)[:, None], entries))
    digits = values[:, None] // place % p
    pivots = linalg.rref(fp, digits)[0] or [0]  # pivot columns depend only on the row space
    lanes = np.arange(tower.qq) // place[pivots, None] % p
    return values, (lanes[..., None] >> np.arange(_digit_lanes(p)[0]) & 1).astype(np.uint8)


def _additive_form(tower, rows, basis, fiber=0):
    """(pack, add, weigh) for the words the engine adds and weighs, on the
    lanes of `basis`, the `_lane_basis` of the walk.

    pack makes a word a table of one combination, and a walk's table grows
    along its last axis.  The walked state is kept negated: it holds -s for
    the message s of the walked digits.  weigh(x, out) gives the weight of
    every table combination plus that message from x, the table XORed with
    the state, which it reads and does not write; out is a buffer of one
    plane of x that it may overwrite.

    A word is packed on fiber lanes on m = `fiber` position digits.  A
    fiber is a block of F = q^m consecutive positions, which share every
    position digit but the first m (the first row of an affine matrix at m
    = ell, h_00 at m = 1), and x in F_q^m is those digits; positions are
    the fibers of one position, m = 0.  On each fiber a word is b + sum_j
    a_j x_j, and pack packs its coefficients b = v[x = 0] and a_j = v[x =
    e_j] - b, n / F of each, as m + 1 word-aligned segments of the same
    lanes, one plane per pivot digit, in a word-major table (planes, words,
    combinations).  The map is F_p-linear, so words still add, and a
    coefficient, a difference of values, lies in the values' span.

    T + s is zero exactly where T equals the negated state S in every
    plane, so weigh ORs x = T ^ S over the planes and counts its flagged
    lanes; at m = 0 that is the weight.  An affine function on a fiber has
    F zeros where a = b = 0, none where only a = 0, and F / q where a is
    not 0, so at m > 0 weigh ORs the a segments into one flag, ORs that
    with b's flag, and returns F #[a or b] - (F / q) #[a], two counts.
    That holds only for values in F_q (the basis's values, read once by
    `_lane_basis`) and rows that b + sum_j a_j x_j rebuilds on every fiber;
    on any other rows the form raises ValueError, after the first fiber of
    each row or after all of them.  weigh.fiber is m, from which a worker
    process builds the form again.
    """
    q, n = tower.q, rows.shape[1]
    w, add, flag = _digit_lanes(tower.p)
    (values, lanes), F, segs, per = basis, q**fiber, fiber + 1, 64 // w
    shape = (len(lanes), segs * -(-n // F // per), per * w)

    def coefficients(v):
        # b = v at x = 0 and a_j = v at x = e_j minus b, on each fiber
        v = v.reshape(v.shape[:-1] + (-1, F))
        b = v[..., 0]
        return np.array([b] + [tower.adds(v[..., q**j], tower.neg_np[b]) for j in range(fiber)])

    def rebuilt(part):
        # b + sum_j a_j x_j at every point x of every fiber
        b, *a = coefficients(part)
        v = b[..., None]
        for aj, xj in zip(a, tower.subfield_np[np.arange(F) // q ** np.arange(fiber)[:, None] % q]):
            v = tower.adds(v, tower.muls(aj[..., None], xj))
        return v.reshape(part.shape)

    # the first fiber of every row is checked before all of them: most rows that do not fit
    # fail there
    if fiber and (n % F or (tower.subfield_digit_np[values] < 0).any()
                  or not all(np.array_equal(rebuilt(part), part) for part in (rows[:, :F], rows))):
        raise ValueError(f"the rows are not F_q-affine on fibers of {F} positions")

    def pack(v):
        # the per * w <= 64 lane bits of each word fill its 8 bytes, the last zero-padded; a
        # word has one word-aligned segment per coefficient
        bits = np.zeros(shape, dtype=np.uint8)
        bits.reshape(shape[0], segs, -1)[..., :n // F * w] = \
            lanes.take(coefficients(v), axis=1).reshape(shape[0], segs, -1)
        return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)

    def count(x, out):
        return np.add.reduce(np.bitwise_count(flag(x, out)), axis=0, dtype=np.int32)

    def weigh(x, out):
        x = x[0] if len(x) == 1 else np.bitwise_or.reduce(x, axis=0, out=out)
        if not fiber:
            return count(x, out)
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

    The same cost chooses the form's layout, from sizes alone: fiber lanes
    on m digits for m = 0 (positions), m = 1 (h_00) and m = ell, with ell
    read off n = q^(ell^2) (the first row of an affine matrix).  The rows'
    one `_lane_basis` gives every layout's planes.  A layout on m digits
    takes (m + 1) ceil(n / (q^m per)) lane words a plane; at m > 0 a step
    weighs a second count, 2 * TABLE_BYTES instead of TABLE_BYTES, and
    building and checking the layout costs 16 * TABLE_BYTES + 128 k n m
    once.  A fiber layout whose one-off cost alone reaches the position
    layout's whole cost is not costed: it could not be cheapest.  Only the
    cheapest layout is built; a fiber that does not fit the rows raises,
    and the next cheapest is built, positions at the latest, which always
    fit.
    """
    k, r, n, q = len(rows), len(scalars), rows.shape[1], tower.q
    basis = _lane_basis(tower, rows, scalars)
    planes, per = len(basis[1]), 64 // _digit_lanes(tower.p)[0]

    def setup(m):  # building and checking a fiber layout
        return (m > 0) * (16 * TABLE_BYTES + 128 * k * n * m)

    def layout(m):
        # (cost, kt, m) of the cheapest table; a fiber layout costs a second count each step
        row_bytes = 8 * planes * (m + 1) * -(-n // q**m // per)

        def cost(kt):
            h = min(lead, k - kt)  # the heads' lengths: 1..h, and h once more when h < lead
            steps = (r ** (k - kt) - r ** (k - kt - h)) // (r - 1) + (h < lead) * r ** (k - kt - h)
            return (steps + 1) * r**kt * row_bytes + steps * (1 + (m > 0)) * TABLE_BYTES

        return min((cost(t) + setup(m), t, m)
                   for t in range(most + 1) if t == 0 or r**t * row_bytes <= 8 * TABLE_BYTES)

    most = k if lead == k else k - lead
    layouts = [layout(0)]
    layouts += [layout(m) for m in {1, math.isqrt(round(math.log(max(n, 1), q)))}
                if setup(m) < layouts[0][0]]
    for _, kt, m in sorted(layouts):
        with contextlib.suppress(ValueError):  # a fiber that does not fit: the next layout
            form = _additive_form(tower, rows, basis, m)
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
    form = form or _additive_form(tower, rows, _lane_basis(tower, rows, scalars), fiber)
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
    the rows are bounded by `budget_messages()`.  Rows that are not a k x
    n matrix, or an entry of them or a scalar outside [0, q^2), raise
    ValueError, once per walk.
    """
    rows = indices(rows, tower.qq, f"rows must hold elements of F_{tower.qq}").astype(np.uint8)
    scalars = indices(scalars, tower.qq, f"scalars must lie in F_{tower.qq}").tolist()
    if rows.ndim != 2:
        raise ValueError(f"rows must be a k x n matrix, got shape {rows.shape}")
    k, r = len(rows), len(scalars)
    lead = k if lead is None else lead
    if not 1 <= lead <= k:
        raise ValueError(f"lead must be in 1..{k}, got {lead}")
    if scalars[:2] != [0, 1]:
        raise ValueError("scalars must start with 0 and 1")
    if not set(tower.muls(np.asarray(scalars)[:, None], scalars).flat) <= set(scalars):
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
