"""One shortlex BFS per generating set: ``core.generated`` agrees with the
two-sided closure and the shortlex forms it replaces, refuses what is not an
element index, and the layers that check generation and factor many
elements run one BFS per generator tuple."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenindex import (
    automatic,
    cli,
    core,
    factories,
    growth,
    present,
    relgreen,
    rewrite,
    schutz,
)
from greenindex.errors import EmptyGenerators, NotInSubsemigroup, OutOfRange

from helpers import (
    outcome,
    random_pairs,
    reference_closure,
    reference_factorize_element,
    reference_shortlex_forms,
    small_tables,
)


def _t3_ideal():
    t3 = factories.full_transformation_monoid(3)
    ideal = core.SubSemigroup(
        parent=t3,
        members=frozenset(i for i, m in enumerate(t3.names) if len(set(m)) < 3),
    )
    return t3, ideal


def test_factorizer_agrees_with_definition(instances):
    cases = [(sem, a) for _n, sem, _t, a, _b in instances]
    cases += [(sem, sorted(sub.members)) for sem, sub in random_pairs(15)]
    cases += [(sem, list(reversed(sub.sorted_members())))
              for sem, sub in random_pairs(5, seed=7)]
    for sem, gens in cases:
        over = core.generated(sem, gens)
        for target in sem.elements:
            want = outcome(reference_factorize_element, sem, gens, target)
            assert outcome(over.word, target) == want


def test_factorizer_unreachable_and_empty(z6):
    over = core.generated(z6, (3,))
    assert over.word(0) == (3, 3)
    with pytest.raises(NotInSubsemigroup, match=r"^1 is not generated by \[3\]$"):
        over.word(1)
    # an empty generating set fails when the BFS is asked for, not later
    with pytest.raises(EmptyGenerators):
        core.generated(z6, [])


def test_generates_matches_closure(z6):
    for sem, sub in random_pairs(20, seed=3):
        gens = sub.sorted_members()[:2]
        assert core.generated(sem, gens).members == reference_closure(sem, gens)
        assert core.generated(sem, sub.members).members == sub.members
    assert core.generated(z6, [1]).members == set(z6.elements)
    assert core.generated(z6, [2]).members == {0, 2, 4}
    assert core.generated(z6, [3]).members == {0, 3}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 9), st.data())
def test_generated_matches_reference_bfs(n, pick, data):
    # random tables: every associative table of order <= 3, or a pool
    # semigroup of order <= 40
    if data.draw(st.booleans()):
        tables = small_tables(n)
        sem = core.validate_table(tables[pick % len(tables)])
    else:
        sem = random_pairs(1, seed=pick)[0][0]
    elems = st.integers(0, sem.order - 1)
    gens = data.draw(st.lists(elems, min_size=1, max_size=4))
    for order in (sorted(gens), sorted(gens, reverse=True), gens + gens[::-1]):
        over = core.generated(sem, order)
        assert over.gens == tuple(dict.fromkeys(order))
        assert over.members == reference_closure(sem, order)
        want = reference_shortlex_forms(sem, order)
        assert list(over.words.items()) == list(want.items())
        assert core.closure(sem, order).members == over.members


@pytest.mark.parametrize("bad", [-1, "n", True], ids=["negative", "n", "bool"])
def test_generators_must_be_element_indices(z6, bad):
    # -1 used to wrap to element 5: generated(Z6, [-1]) listed 7 "elements"
    # and growth_function(Z6, [-1], 3) returned (1, 2, 3, 4)
    n = z6.order
    bad = n if bad == "n" else bad
    with pytest.raises(OutOfRange):
        core.generated(z6, [1, bad])
    with pytest.raises(OutOfRange):
        core.closure(z6, [bad])
    # growth runs in S^1, so the adjoined identity n is an index there
    s1_bad = n + 1 if bad == n else bad
    with pytest.raises(OutOfRange):
        growth.growth_function(z6, [1, s1_bad], 3)
    with pytest.raises(OutOfRange):
        growth.out_ball(z6, [s1_bad], 0, 2)
    with pytest.raises(OutOfRange):
        growth.out_ball(z6, [1], s1_bad, 2)
    assert growth.growth_function(z6, [1, n], 3) == (1, 2, 3, 4)


@pytest.mark.parametrize("twin", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("first", [False, True], ids=["int_first", "twin_first"])
def test_each_letter_is_checked_before_deduplication(z6, t03, twin, first):
    # a bool or float equals its int: deduplicating first accepted
    # [1, True] but refused [True, 1], and [1, 1.0] ended in a TypeError
    def both(x):
        return [twin, x] if first else [x, twin]

    refused = rf"^generator {twin!r} not in \[0, 6\)$"
    green = relgreen.relative_green(z6, t03)
    conn = relgreen.connectors(green)
    with pytest.raises(OutOfRange, match=refused):
        rewrite.schreier_generators(z6, both(1), t03, green, conn)
    with pytest.raises(OutOfRange, match=refused):
        automatic.structure_for_finite(z6, both(1))
    with pytest.raises(OutOfRange, match=refused):
        growth.domination_check(z6, t03, sorted({*green.reps, 6}), both(3), 2)


@pytest.fixture()
def bfs_calls(monkeypatch):
    """Counts ``core.generated`` calls by (semigroup, generator tuple), in
    every module that calls it."""
    calls = Counter()
    real = core.generated

    def counted(sem, gens):
        gens = tuple(gens)
        calls[id(sem), gens] += 1
        return real(sem, gens)

    for module in (core, growth, present, rewrite, schutz, automatic, cli):
        if hasattr(module, "generated"):
            monkeypatch.setattr(module, "generated", counted)
    return calls


def _cases(instances):
    """Each instance over a fresh copy of its semigroup, whose generation
    memo holds nothing that an earlier test left there."""
    out = []
    for _n, sem, sub, _a, _b in instances:
        fresh = dataclasses.replace(sem)
        out.append((fresh, core.SubSemigroup(parent=fresh, members=sub.members)))
    out.append(_t3_ideal())
    return out


def _once_each(calls):
    return bool(calls) and set(calls.values()) == {1}


def test_domination_derives_forms_once(instances, bfs_calls):
    for sem, sub in _cases(instances):
        green = relgreen.relative_green(sem, sub)
        r_set = sorted(set(green.reps) | {sem.order})
        bfs_calls.clear()
        growth.domination_check(sem, sub, r_set, sub.sorted_members(), 4)
        assert _once_each(bfs_calls)


def test_growth_derives_forms_once(instances, bfs_calls):
    for sem, sub in _cases(instances):
        n = sem.order
        gens = sub.sorted_members()
        bfs_calls.clear()
        # the ball reads the series' BFS: the same letters, n left out
        growth.growth_function(sem, [*gens, n, gens[0]], 6)
        growth.out_ball(sem, [n, *gens], n - 1, 3)
        assert bfs_calls == {(id(sem), tuple(gens)): 1}
        # R adds nothing beyond B, so A's BFS is B's
        whole = core.SubSemigroup(parent=sem, members=frozenset(sem.elements))
        bfs_calls.clear()
        growth.domination_check(sem, whole, [n], list(sem.elements), 3)
        assert bfs_calls == {(id(sem), tuple(sem.elements)): 1}


def test_presentation_layers_derive_forms_once(instances, bfs_calls):
    for sem, sub in _cases(instances):
        green = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(green)
        q_pres, q_assign = present.sub_table_presentation(sem, sub)
        bfs_calls.clear()
        packs = present.build_schutz_packs(sem, sub, green, q_pres, q_assign)
        base = (id(sem), tuple(sorted(set(q_assign.values()))))
        assert bfs_calls == {base: 1}
        # synthesis reads the packs' BFS of the base letters, and verifies
        # each class group over its own letters
        present.synthesize_presentation(q_pres, q_assign, packs, green, conn)
        assert _once_each(bfs_calls) and len(bfs_calls) > 1


def test_verification_derives_forms_once(instances, bfs_calls):
    # the generation check's BFS also spells the rules of the letters
    for sem, sub in _cases(instances):
        for pres, assign, target in (
                (*present.presentation_from_table(sem), sem),
                (*present.sub_table_presentation(sem, sub), sub)):
            bfs_calls.clear()
            assert present.verify_presentation(pres, target, assign)
            assert _once_each(bfs_calls)


def test_schreier_factorizer_derives_forms_once(instances, bfs_calls):
    for sem, sub in _cases(instances):
        green = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(green)
        gens = list(sem.elements)
        bfs_calls.clear()
        _bset, factorizer = rewrite.schreier_generators(sem, gens, sub, green, conn)
        # the generation check's BFS also serves the factorizer
        assert sum(bfs_calls.values()) == 1
        for t in sub.sorted_members():
            factorizer(t)
        assert sum(bfs_calls.values()) == 1
