import operator

import pytest

from greenindex import core, factories, growth
from greenindex.errors import (
    BudgetExceeded,
    HypothesisFails,
    InputError,
    NotGenerating,
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
