import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenindex import core, factories, growth, relgreen, rewrite, schutz
from greenindex.errors import (
    BudgetExceeded,
    HypothesisFails,
    InputError,
    NotGenerating,
)
from helpers import (
    ladder_pairs,
    nonperm_ideal,
    outcome,
    random_pairs,
    reference_balls,
    reference_domination_check,
    small_tables,
)


def test_ball_radius_zero(z6):
    assert growth.out_ball(z6, [1], 4, 0) == {4}
    assert growth.out_ball(z6, [1], z6.order, 0) == {z6.order}


def test_ball_saturates_at_closure(z6):
    ball = growth.out_ball(z6, [2], 1, 10)
    closure_set = core.closure(z6, [2]).members
    assert ball == {1} | {z6.mul(1, c) for c in closure_set}
    for radius in range(6, 10):
        assert growth.out_ball(z6, [2], 1, radius) == ball


def test_blackbox_ball():
    nat = core.BlackBoxSemigroup(multiply=operator.add, generators=(1,))
    for m in range(6):
        assert len(growth.out_ball(nat, [1], 0, m)) == m + 1
    assert sorted(growth.out_ball(nat, [1], 0, 4)) == [0, 1, 2, 3, 4]


def test_budget(z6):
    nat = core.BlackBoxSemigroup(multiply=operator.add, generators=(1,))
    with pytest.raises(BudgetExceeded):
        growth.out_ball(nat, [1], 0, 100, budget=10)
    with pytest.raises(InputError):
        growth.out_ball(z6, [1], 0, -1)


def test_growth_series_examples(z6):
    assert growth.growth_function(factories.trivial(), [0], 4) == (1, 2, 2, 2, 2)
    assert growth.growth_function(z6, [1], 9) == (1, 2, 3, 4, 5, 6, 7, 7, 7, 7)
    nat = core.BlackBoxSemigroup(multiply=operator.add, generators=(1,))
    assert growth.growth_function(nat, [1], 8) == tuple(range(1, 10))


def test_series_monotone_and_bounded(instances):
    for _name, sem, sub, a_gens, _b in instances:
        series = growth.growth_function(sem, list(a_gens), sem.order + 3)
        assert all(x <= y for x, y in zip(series, series[1:]))
        assert series[-1] <= sem.order + 1


def test_subsemigroup_growth_below_parent(z6, t03):
    g_t = growth.growth_function(z6, [3], 8)
    g_s = growth.growth_function(z6, [3, 1, 2], 8)
    assert all(t <= s for t, s in zip(g_t, g_s))


def test_domination_z6(z6, t03):
    rep = growth.domination_check(z6, t03, [6, 1, 2], [3], 12)
    assert rep.k1 == 3
    assert rep.holds
    assert rep.rows[0][0] == 0
    for m, gs, bound in rep.rows:
        assert gs <= bound


def test_domination_whole_semigroup(z6):
    full = core.SubSemigroup(parent=z6, members=frozenset(range(6)))
    rep = growth.domination_check(z6, full, [6], [1], 8)
    assert rep.k1 == 1 and rep.holds


def test_domination_semilattice():
    z4, z2 = factories.zmod(4), factories.zmod(2)
    s, t = core.strong_semilattice(z4, z2, factories.mod_reduction(z4, z2))
    green_reps = [4]  # one complement class; its representative
    rep = growth.domination_check(s, t, [s.order] + green_reps, [1], 12)
    assert rep.holds


def test_domination_hypothesis_failure(z6, t03):
    with pytest.raises(HypothesisFails):
        growth.domination_check(z6, t03, [6], [3], 5)
    with pytest.raises(HypothesisFails):
        growth.domination_check(z6, t03, [1, 2], [3], 5)  # missing identity


def test_domination_rejects_generators_not_generating_t(z6, t03):
    # 1 lies outside T = {0, 3}; it used to pass and report "holds"
    with pytest.raises(NotGenerating):
        growth.domination_check(z6, t03, [0, 1, 2, 6], [1], 6)
    # 0 lies in T but generates only {0}
    with pytest.raises(NotGenerating):
        growth.domination_check(z6, t03, [0, 1, 2, 6], [0], 6)


def test_domination_refuses_a_negative_m_max(z6, t03):
    # it used to report that the inequality holds, with no rows
    with pytest.raises(InputError, match="^m_max must be nonnegative$"):
        growth.domination_check(z6, t03, [6, 1, 2], [3], -1)


def test_growth_series_is_ball_sizes(instances):
    # one BFS gives the same series as one out-ball per radius
    cases = [(sem, list(a)) for _n, sem, _t, a, _b in instances]
    cases += [(sem, sorted(sub.members)) for sem, sub in random_pairs(12)]
    for sem, gens in cases:
        m_max = sem.order + 2
        want = [len(growth.out_ball(sem, gens, sem.order, m))
                for m in range(m_max + 1)]
        assert list(growth.growth_function(sem, gens, m_max)) == want
    for gens in ([1], [2, 3], [1, -1]):
        nat = core.BlackBoxSemigroup(multiply=operator.add, generators=(1,))
        want = [len(growth.out_ball(nat, gens, growth.IDENTITY, m))
                for m in range(9)]
        assert list(growth.growth_function(nat, gens, 8)) == want


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 9), st.data())
def test_finite_balls_match_reference_bfs(n, pick, data):
    # the ball of radius r is start plus start * x for every x whose
    # shortlex word has at most r letters; the adjoined identity n may be a
    # generator, and duplicates and an empty list are allowed
    tables = small_tables(n)
    sem = core.validate_table(tables[pick % len(tables)])
    gens = data.draw(st.lists(st.integers(0, n), max_size=4))
    m_max = n + 2
    sizes = tuple(len(ball) for ball in reference_balls(sem, gens, n, m_max))
    for m in range(m_max + 1):
        assert growth.growth_function(sem, gens, m) == sizes[:m + 1]
    for start in range(n + 1):
        want = reference_balls(sem, gens, start, m_max)
        for radius in range(m_max + 1):
            assert growth.out_ball(sem, gens, start, radius) == want[radius]


def test_finite_balls_match_reference_bfs_on_pool():
    for sem, sub in random_pairs(10):
        n = sem.order
        gens = sorted(sub.members)[:3]
        for g in (gens, gens + [n], gens + gens[:1], [], [n]):
            want = reference_balls(sem, g, n, 4)
            assert growth.growth_function(sem, g, 4) == \
                tuple(len(ball) for ball in want)
            for start in (0, n - 1, n):
                assert growth.out_ball(sem, g, start, 4) == \
                    reference_balls(sem, g, start, 4)[4]


def test_growth_series_budget():
    nat = core.BlackBoxSemigroup(multiply=operator.add, generators=(1,))
    # the ball of radius 10 is the identity and 1..10: exactly the budget
    assert growth.growth_function(nat, [1], 10, budget=11)[-1] == 11
    with pytest.raises(BudgetExceeded):
        growth.growth_function(nat, [1], 11, budget=11)
    with pytest.raises(BudgetExceeded):
        growth.out_ball(nat, [1], growth.IDENTITY, 11, budget=11)
    with pytest.raises(InputError):
        growth.growth_function(nat, [1], -1)
    with pytest.raises(InputError):
        growth.growth_function(object(), [1], 3)


def _domination_cases(sem, sub, rng_r, rng_b):
    green = relgreen.relative_green(sem, sub)
    n = sem.order
    r_set = sorted(set(green.reps) | {n})
    members = sub.sorted_members()
    yield r_set, members
    yield r_set, [members[0]]
    yield r_set, list(rng_b)
    yield r_set[:-1], members            # identity missing
    yield [n], members                   # too few representatives
    yield r_set + [n + 2], members       # not an S^1 index
    yield list(rng_r) + [n], members


def test_domination_refuses_r_elements_that_are_not_indices(z6, t03):
    with pytest.raises(InputError, match=r"^R element 1\.5 is not an S\^1 index$"):
        growth.domination_check(z6, t03, [6, 1.5, 2], [3], 4)
    for bad in ("a", True, None):
        with pytest.raises(InputError, match="is not an S\\^1 index"):
            growth.domination_check(z6, t03, [6, bad, 2], [3], 4)


def test_domination_matches_reference_on_fixed_instances(instances):
    for _name, sem, sub, a_gens, b_gens in instances:
        n = sem.order
        for r_set, gens in _domination_cases(sem, sub, range(n), a_gens):
            for m_max in (0, 3, 8):
                got = outcome(growth.domination_check, sem, sub, r_set, gens, m_max)
                want = outcome(reference_domination_check, sem, sub, r_set, gens, m_max)
                assert got == want, (_name, r_set, gens, m_max)
        got = outcome(growth.domination_check, sem, sub, [n, *a_gens], b_gens, 6)
        assert got == outcome(reference_domination_check, sem, sub,
                              [n, *a_gens], b_gens, 6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 9), st.data())
def test_domination_matches_reference_on_small_tables(n, pick, data):
    tables = small_tables(n)
    sem = core.validate_table(tables[pick % len(tables)])
    elems = st.integers(0, n - 1)
    sub = core.closure(sem, data.draw(st.lists(elems, min_size=1, max_size=2)))
    r_set = data.draw(st.lists(st.integers(-1, n + 1), max_size=n + 2))
    b_gens = data.draw(st.lists(elems, min_size=0, max_size=3))
    m_max = data.draw(st.integers(0, 5))
    for r, b in ((r_set, b_gens), (r_set, sorted(sub.members)),
                 (r_set + [n], sorted(sub.members))):
        assert outcome(growth.domination_check, sem, sub, r, b, m_max) == \
            outcome(reference_domination_check, sem, sub, r, b, m_max)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.data())
def test_domination_matches_reference_on_random_pairs(seed, data):
    sem, sub = random_pairs(1, seed=seed)[0]
    n = sem.order
    extra = data.draw(st.lists(st.integers(0, n), max_size=4))
    b_gens = data.draw(st.lists(st.sampled_from(sub.sorted_members()),
                                min_size=1, max_size=3))
    for r_set, gens in _domination_cases(sem, sub, extra, b_gens):
        assert outcome(growth.domination_check, sem, sub, r_set, gens, 4) == \
            outcome(reference_domination_check, sem, sub, r_set, gens, 4)


def test_domination_matches_the_double_loop_over_harvested_generators():
    # k2 over the distinct products of A against the reference's double
    # loop over A x A, the whole report compared: the ladder, T4 over its
    # ideal (|B| = |T| = 232) and random pairs; R is the representatives
    # with the adjoined identity, then with extra elements; B is the
    # Schreier harvest, reversed, and with a duplicate
    for sem, sub in ladder_pairs() + [nonperm_ideal(4)] + random_pairs(25):
        green = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(green)
        b_gens = sorted(rewrite.schreier_generators(
            sem, schutz.find_generating_set(sem), sub, green, conn)[0])
        n = sem.order
        r_set = sorted(set(green.reps) | {n})
        for r in (r_set, r_set + list(range(0, n, 3))):
            for b in (b_gens, b_gens[::-1], b_gens + b_gens[:1]):
                got = outcome(growth.domination_check, sem, sub, r, b, 4)
                assert got == outcome(reference_domination_check,
                                      sem, sub, r, b, 4), (n, r, b)


def test_domination_refuses_a_subsemigroup_of_another_semigroup():
    # T = {0, 2, 4} of Z6 is checked in its own parent, so Z8 is refused,
    # and an equal copy of Z6 is not
    z6 = factories.zmod(6)
    t = core.closure(z6, [2])
    with pytest.raises(InputError, match="^subsemigroup belongs to another semigroup$"):
        growth.domination_check(factories.zmod(8), t, [8, 1, 3, 5, 7, 6], [2], 4)
    copy = core.validate_table(z6.table)
    assert growth.domination_check(copy, t, [6, 1], [2], 4) == \
        growth.domination_check(z6, t, [6, 1], [2], 4)
