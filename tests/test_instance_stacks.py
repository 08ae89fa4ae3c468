"""Random instances as stacks: `strata.system_solution_count` on m systems
and `dual.dual_word_weight3` / `dual_word_weight4` on m instances, checked
against one-at-a-time calls and plain loops; a bad instance refuses the
whole stack before any lookup; and `verify` makes one stacked call per
cell, not one per instance."""

import itertools
import random

import numpy as np
import pytest

from hermgrass import dual as du
from hermgrass import strata as st
from hermgrass import verify
from hermgrass.codebuild import FAMILY_HERMITIAN, build_generator
from hermgrass.galois import tower_for_q
from hermgrass.hermitian import decode


def loop_count(t, a, b):
    """Solutions X of F_{q^2}^n of x_i x_j^q = a_i (i = j), b[i][j] (i !=
    j), by a plain loop over every vector and scalar field operations."""
    n = len(a)
    return sum(all(t.mul(X[i], t.conjugate(X[j])) == (a[i] if i == j else b[i][j])
                   for i in range(n) for j in range(n))
               for X in itertools.product(range(t.qq), repeat=n))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_system_count_equals_single_calls_and_a_loop(q, n):
    t = tower_for_q(q)
    rng = random.Random(10 * q + n)
    systems = [st.random_system(t, n, rng, consistent=(i % 3 != 2)) for i in range(12)]
    a, b = zip(*systems)
    counts = st.system_solution_count(t, a, b)
    assert counts.shape == (12,)
    singles = [st.system_solution_count(t, ai, bi) for ai, bi in systems]
    assert all(type(count) is int for count in singles)
    assert counts.tolist() == singles == [loop_count(t, ai, bi) for ai, bi in systems]
    assert max(singles) > 1 and (min(singles) == 0 or n == 1)  # each a_1 in F_q is a norm


def test_stacked_system_count_of_no_systems():
    t = tower_for_q(3)
    assert st.system_solution_count(t, np.zeros((0, 2), int), np.zeros((0, 2, 2), int)).shape == (0,)


def families(q, ell, m, seed):
    """m random instances of the dual-word family at (ell, q): H positions,
    then (alpha, c0, b) for q > 2 or (a1, a2) for q = 2."""
    t = tower_for_q(q)
    rng = random.Random(seed)
    alphas = [s for s in t.subfield if s not in (0, 1)]
    draws = []
    while len(draws) < m:
        H = rng.randrange(q ** (ell * ell))
        u, v = ([rng.randrange(t.qq) for _ in range(ell)] for _ in range(2))
        if q == 2 and du._independent(t, u, v):
            draws.append((H, u, v))
        elif q > 2 and any(u):
            draws.append((H, rng.choice(alphas), rng.randrange(1, t.qq), u))
    return draws


@pytest.mark.parametrize("ell, q", [(2, 2), (2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("given_h", [False, True])
def test_stacked_dual_words_equal_single_calls(ell, q, given_h):
    gen = build_generator(FAMILY_HERMITIAN, ell, q)
    t = gen.tower
    draws = families(q, ell, 7, seed=ell + q)
    H = decode(t, ell, FAMILY_HERMITIAN, np.array([d[0] for d in draws]))
    if q == 2:
        a1, a2 = ([d[k] for d in draws] for k in (1, 2))
        stacked = du.dual_word_weight4(gen, H if given_h else None, a1, a2)
        singles = [du.dual_word_weight4(gen, H[..., s] if given_h else None, a1[s], a2[s])
                   for s in range(len(draws))]
    else:
        alpha, c0, b = ([d[k] for d in draws] for k in (1, 2, 3))
        stacked = du.dual_word_weight3(gen, alpha, c0, H if given_h else None, b)
        singles = [du.dual_word_weight3(gen, alpha[s], c0[s], H[..., s] if given_h else None, b[s])
                   for s in range(len(draws))]
    assert stacked == singles


def test_a_part_given_once_is_shared_by_the_stack():
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    words = du.dual_word_weight3(gen, [2, 2], 1, b=[(1, 0), (0, 1)])
    assert words == [du.dual_word_weight3(gen, 2, 1, b=b) for b in [(1, 0), (0, 1)]]
    with pytest.raises(ValueError, match="1-D stack"):
        du.dual_word_weight3(gen, [[2, 2]])


@pytest.mark.parametrize("call", [
    lambda gen4, gen9: st.system_solution_count(
        gen9.tower, [[1, 1], [1, 1]], [[[0, 1], [1, 0]], [[0, 99], [1, 0]]]),
    lambda gen4, gen9: st.system_solution_count(
        gen9.tower, [[1, 1], [1, 1]], [[[0, 1], [1, 0]], [[0, 1], [1]]]),
    lambda gen4, gen9: du.dual_word_weight3(gen9, [2, 2], [1, 1], None, [(1, 0), (99, 0)]),
    lambda gen4, gen9: du.dual_word_weight3(gen9, [2, 2], [1, 1], None, [(1, 0), (1,)]),
    lambda gen4, gen9: du.dual_word_weight4(gen4, None, [(1, 0), (1, 0)], [(0, 1), (2, 0)]),
], ids=["system count, a term 99", "system count, a ragged b", "weight-3 words, b entry 99",
        "weight-3 words, a ragged b", "weight-4 words, a dependent pair"])
def test_a_bad_instance_refuses_the_stack_before_any_lookup(monkeypatch, call):
    """No system key table, encode or orthogonality product is reached."""
    def reached(*args):
        raise AssertionError("looked up a refused stack")

    gen4, gen9 = (build_generator(FAMILY_HERMITIAN, 2, q) for q in (2, 3))
    for module, name in ((st, "_system_keys"), (du, "encode"), (du, "_verify_dual_word")):
        monkeypatch.setattr(module, name, reached)
    with pytest.raises(ValueError):
        call(gen4, gen9)


def counting(monkeypatch, module, name):
    """Wrap module.name so that each call is appended to the returned list."""
    calls, original = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_system_solutions_check_makes_one_call_per_cell(monkeypatch):
    calls = counting(monkeypatch, st, "system_solution_count")
    assert verify.check_system_solutions(1) == "900 systems, all within the q+1 bound"
    assert len(calls) <= 9


@pytest.mark.parametrize("ell, q", [(2, 2), (2, 3), (3, 2)])
def test_dual_support_families_make_one_call_per_cell(monkeypatch, ell, q):
    calls3 = counting(monkeypatch, du, "dual_word_weight3")
    calls4 = counting(monkeypatch, du, "dual_word_weight4")
    words = du.dual_support_families(build_generator(FAMILY_HERMITIAN, ell, q), seed=1)
    assert len(words) == 50
    assert calls3 + calls4 == ["dual_word_weight4" if q == 2 else "dual_word_weight3"]
