"""Shortlex forms are derived once per generating set: the factorizer agrees
with its definition, and the layers that factor many elements run one
shortlex BFS per generator tuple."""

from collections import Counter

import pytest

from greenindex import core, factories, growth, present, relgreen, rewrite
from greenindex.errors import EmptyGenerators, NotInSubsemigroup, OutOfRange

from helpers import outcome, random_pairs, reference_factorize_element


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
        factor = core.shortlex_factorizer(sem, gens)
        for target in sem.elements:
            want = outcome(reference_factorize_element, sem, gens, target)
            assert outcome(factor, target) == want
            assert outcome(core.factorize_element, sem, gens, target) == want


def test_factorizer_unreachable_and_empty(z6):
    factor = core.shortlex_factorizer(z6, (3,))
    assert factor(0) == (3, 3)
    with pytest.raises(NotInSubsemigroup, match=r"^1 is not generated by \[3\]$"):
        factor(1)
    # like shortlex_forms, an empty generating set fails on the first lookup
    empty = core.shortlex_factorizer(z6, [])
    with pytest.raises(EmptyGenerators):
        empty(0)


def test_generates_matches_closure(z6):
    for sem, sub in random_pairs(20, seed=3):
        gens = sub.sorted_members()[:2]
        assert core.generates(sem, gens, sub.members) == (
            core.closure(sem, gens).members == sub.members)
        assert core.generates(sem, sub.members, sub.members)
    assert core.generates(z6, [1], z6.elements)
    assert not core.generates(z6, [2], z6.elements)
    assert core.generates(z6, [3], {0, 3})
    with pytest.raises(EmptyGenerators):
        core.generates(z6, [], z6.elements)
    with pytest.raises(OutOfRange):
        core.generates(z6, [6], z6.elements)


@pytest.fixture()
def forms_calls(monkeypatch):
    calls = Counter()
    real = core.shortlex_forms

    def counted(sem, gens):
        calls[tuple(gens)] += 1
        return real(sem, gens)

    monkeypatch.setattr(core, "shortlex_forms", counted)
    return calls


def _cases(instances):
    out = [(sem, sub) for _n, sem, sub, _a, _b in instances]
    out.append(_t3_ideal())
    return out


def test_domination_derives_forms_once(instances, forms_calls):
    for sem, sub in _cases(instances):
        green = relgreen.relative_green(sem, sub)
        r_set = sorted(set(green.reps) | {sem.order})
        forms_calls.clear()
        growth.domination_check(sem, sub, r_set, sub.sorted_members(), 4)
        assert forms_calls and max(forms_calls.values()) == 1


def test_presentation_layers_derive_forms_once(instances, forms_calls):
    for sem, sub in _cases(instances):
        green = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(green)
        q_pres, q_assign = present.sub_table_presentation(sem, sub)
        forms_calls.clear()
        packs = present.build_schutz_packs(sem, sub, green, q_pres, q_assign)
        assert max(forms_calls.values(), default=0) <= 1
        forms_calls.clear()
        present.synthesize_presentation(q_pres, q_assign, packs, green, conn,
                                        verify_inputs=False)
        assert max(forms_calls.values(), default=0) <= 1


def test_schreier_factorizer_derives_forms_once(instances, forms_calls):
    for sem, sub in _cases(instances):
        green = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(green)
        gens = list(sem.elements)
        _bset, factorizer = rewrite.schreier_generators(sem, gens, sub, green, conn)
        assert not forms_calls  # the forms wait for the first call
        for t in sub.sorted_members():
            factorizer(t)
        assert sum(forms_calls.values()) == 1
        forms_calls.clear()
