import pytest

from greenindex import core, factories, relgreen
from greenindex.errors import InputError, InternalInconsistency, OutOfRange

from helpers import (
    fixed_instances,
    ladder_pairs,
    nonperm_ideal,
    random_pairs,
    reference_connectors,
    reference_h_class_of,
    reference_relative_green,
    small_pool,
    small_tables,
)
from hypothesis import given, settings
from hypothesis import strategies as st


def test_z6_example(z6, t03):
    g = relgreen.relative_green(z6, t03)
    assert [sorted(c) for c in g.complement_classes] == [[1, 4], [2, 5]]
    assert g.reps == (1, 2)
    assert g.green_index == 3
    assert relgreen.rees_index(z6, t03) == 4


def test_whole_semigroup_gives_index_one(z6):
    full = core.SubSemigroup(parent=z6, members=frozenset(range(6)))
    g = relgreen.relative_green(z6, full)
    assert g.complement_classes == ()
    assert g.green_index == 1
    assert relgreen.rees_index(z6, full) == 0


def test_rees_index_refuses_a_subsemigroup_of_another_semigroup():
    foreign = core.SubSemigroup(
        parent=factories.zmod(6), members=frozenset({0, 3}))
    with pytest.raises(InputError, match="belongs to another semigroup"):
        relgreen.rees_index(factories.zmod(4), foreign)
    # an equal parent built apart is the same semigroup
    assert relgreen.rees_index(factories.zmod(6), foreign) == 4


def test_semilattice_instance_has_index_two():
    z2 = factories.zmod(2)
    s, t = core.strong_semilattice(
        z2, factories.trivial(), factories.collapse_to_trivial(z2)
    )
    g = relgreen.relative_green(s, t)
    assert g.green_index == 2
    assert relgreen.rees_index(s, t) == 1


def _edge_pairs():
    """T = S, |T| = 1, and T whose greedy generators are a single element:
    a monogenic S over itself and over <a^2>."""
    z6, mono = factories.zmod(6), factories.monogenic(2, 3)
    return [(z6, core.SubSemigroup(parent=z6, members=frozenset(range(6)))),
            (z6, core.closure(z6, [0])), (z6, core.closure(z6, [3])),
            (mono, core.closure(mono, [0])), (mono, core.closure(mono, [1]))]


def _assert_ids_match_reference(sem, sub):
    g = relgreen.relative_green(sem, sub)
    assert (g.r_id, g.l_id, g.h_id) == reference_relative_green(sem, sub)


def test_class_ids_match_principal_sets():
    edges = _edge_pairs()
    for sem, sub in ladder_pairs() + [nonperm_ideal(4)] + edges:
        _assert_ids_match_reference(sem, sub)
    sizes = {(len(sub), len(sub._t_gens)) for _sem, sub in edges}
    assert {(1, 1), (4, 1), (3, 1)} <= sizes


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.data())
def test_class_ids_match_principal_sets_on_random_subsemigroups(pick, data):
    pool = small_pool()
    sem = pool[pick % len(pool)]
    gens = data.draw(st.lists(st.integers(0, sem.order - 1),
                              min_size=1, max_size=3))
    _assert_ids_match_reference(sem, core.closure(sem, gens))


def test_classes_respect_subsemigroup(instances):
    pairs = [(s, t) for _n, s, t, _a, _b in instances] + random_pairs(15)
    for sem, sub in pairs:
        g = relgreen.relative_green(sem, sub)
        for ids in (g.r_id, g.l_id, g.h_id):
            by_class = {}
            for u in sem.elements:
                by_class.setdefault(ids[u], set()).add(u)
            for cls in by_class.values():
                inside = cls & sub.members
                assert inside == cls or not inside
        assert g.green_index == len(g.complement_classes) + 1


def test_r_left_congruence_l_right_congruence(instances):
    for _name, sem, sub, _a, _b in instances:
        g = relgreen.relative_green(sem, sub)
        for a in sem.elements:
            for u in sem.elements:
                for v in sem.elements:
                    if g.r_id[u] == g.r_id[v]:
                        assert g.r_id[sem.mul(a, u)] == g.r_id[sem.mul(a, v)]
                    if g.l_id[u] == g.l_id[v]:
                        assert g.l_id[sem.mul(u, a)] == g.l_id[sem.mul(v, a)]


def test_translation_bijections_between_l_classes(z6, t03):
    # for R-related u, v with u*p = v and v*q = u, right translation by p
    # maps the L-class of u onto the L-class of v, preserving R-classes,
    # with the translation by q as inverse
    sem, sub = z6, t03
    g = relgreen.relative_green(sem, sub)
    n = sem.order
    t_one = list(sub.sorted_members()) + [n]
    for u in sem.elements:
        for v in sem.elements:
            if g.r_id[u] != g.r_id[v]:
                continue
            p = next(t for t in t_one if sem.mul1(u, t) == v)
            q = next(t for t in t_one if sem.mul1(v, t) == u)
            l_u = [x for x in sem.elements if g.l_id[x] == g.l_id[u]]
            l_v = {x for x in sem.elements if g.l_id[x] == g.l_id[v]}
            image = [sem.mul1(x, p) for x in l_u]
            assert set(image) == l_v
            assert len(set(image)) == len(l_u)
            for x in l_u:
                assert g.r_id[sem.mul1(x, p)] == g.r_id[x]
                assert sem.mul1(sem.mul1(x, p), q) == x


def test_green_index_of_normal_subgroup_is_group_index():
    z6 = factories.zmod(6)
    sub = core.closure(z6, [2])  # index-2 subgroup {0,2,4}
    assert relgreen.relative_green(z6, sub).green_index == 2
    s3 = factories.symmetric_group(3)
    a3 = core.closure(s3, [3])  # the 3-cycles + identity, normal of index 2
    assert len(a3.members) == 3
    assert relgreen.relative_green(s3, a3).green_index == 2


def test_connector_equations_hold_exhaustively(instances):
    for _name, sem, sub, _a, _b in instances:
        g = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(g)
        n = sem.order
        t_one = set(sub.members) | {n}
        for s in range(n + 1):
            for i in range(g.class_count):
                j = conn.left_class[s][i]
                sig = conn.left_factor[s][i]
                assert sig in t_one
                prod = sem.mul1(s, g.rep_of(i))
                assert prod == sem.mul1(g.rep_of(j), sig)
                assert (j == 0) == (prod == n or prod in sub.members)
                j2 = conn.right_class[i][s]
                tau = conn.right_factor[i][s]
                assert tau in t_one
                prod2 = sem.mul1(g.rep_of(i), s)
                assert prod2 == sem.mul1(tau, g.rep_of(j2))
                assert (j2 == 0) == (prod2 == n or prod2 in sub.members)


def test_adjoined_identity_acts_trivially(z6, t03):
    g = relgreen.relative_green(z6, t03)
    conn = relgreen.connectors(g)
    n = z6.order
    for i in range(g.class_count):
        assert conn.left_class[n][i] == i
        assert conn.left_factor[n][i] == n
        assert conn.right_class[i][n] == i
        assert conn.right_factor[i][n] == n


def test_connector_witness_example(z6, t03):
    # multiplying the representative 1 on the left by the element 1 lands in
    # the class {2, 5}, with factor chosen so that 2 = 2 + factor
    g = relgreen.relative_green(z6, t03)
    conn = relgreen.connectors(g)
    i = g.class_of(1)
    j = conn.left_class[1][i]
    assert sorted(g.complement_classes[j - 1]) == [2, 5]
    assert z6.mul1(g.rep_of(j), conn.left_factor[1][i]) == 2


def test_eggbox_dot_deterministic(z6, t03):
    g = relgreen.relative_green(z6, t03)
    dot = relgreen.eggbox_dot(g)
    assert dot == relgreen.eggbox_dot(g)
    assert "digraph eggbox" in dot
    assert 'BGCOLOR="lightgrey"' in dot
    assert "0 3" in dot
    full = core.SubSemigroup(parent=z6, members=frozenset(range(6)))
    assert "BGCOLOR" not in relgreen.eggbox_dot(relgreen.relative_green(z6, full))


def test_h_class_of_matches_scan_on_fixed_instances():
    for _name, sem, sub, _a, _b in fixed_instances():
        g = relgreen.relative_green(sem, sub)
        for x in sem.elements:
            assert g.h_class_of(x) == reference_h_class_of(g, x)


def test_h_class_of_refuses_indices_outside_s(z6, t03):
    g = relgreen.relative_green(z6, t03)
    for x in (-1, 6, 1.0, True):
        with pytest.raises(OutOfRange):
            g.h_class_of(x)


def test_rep_of_refuses_indices_outside_the_classes(z6, t03):
    # -1 used to return reps[-2], the last complement class's representative
    g = relgreen.relative_green(z6, t03)
    assert [g.rep_of(i) for i in range(g.class_count)] == [6, 1, 2]
    for i in (-1, 3, 1.0, True):
        with pytest.raises(OutOfRange, match="^class index"):
            g.rep_of(i)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 9), st.data())
def test_h_class_of_matches_scan_on_small_tables(n, pick, data):
    tables = small_tables(n)
    sem = core.validate_table(tables[pick % len(tables)])
    gens = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
    g = relgreen.relative_green(sem, core.closure(sem, gens))
    for x in sem.elements:
        assert g.h_class_of(x) == reference_h_class_of(g, x)


def test_relative_green_refuses_a_subsemigroup_of_another_semigroup():
    # {0, 2, 4} is closed in Z6 but not in Z8 (2 + 4 = 6), and 4 is no
    # element of Z4
    t = core.SubSemigroup(parent=factories.zmod(6), members=frozenset({0, 2, 4}))
    for other in (factories.zmod(8), factories.zmod(4)):
        with pytest.raises(InputError, match="another semigroup"):
            relgreen.relative_green(other, t)
    # an equal parent built separately is the same semigroup
    assert relgreen.relative_green(factories.zmod(6), t).green_index == 2


def _assert_connectors_match_reference(sem, sub):
    g = relgreen.relative_green(sem, sub)
    conn = relgreen.connectors(g)
    assert conn == reference_connectors(g)
    # what rewrite's pushes skip: the adjoined identity n acts trivially,
    # and the right push from class 0 fixes every letter of T^1
    n, zero = sem.order, relgreen.IDENTITY_CLASS
    for i in range(g.class_count):
        assert conn.left_class[n][i] == i and conn.left_factor[n][i] == n
        assert conn.right_class[i][n] == i and conn.right_factor[i][n] == n
    for t in sub.t_one():
        assert conn.right_class[zero][t] == zero
        assert conn.right_factor[zero][t] == t


def test_connectors_refuse_green_data_without_a_witness(z6, t03):
    # 2 joins 1's class, but 1 + {0, 3, 1} never reaches 2
    g = relgreen.relative_green(z6, t03)
    broken = relgreen.GreenData(sem=z6, sub=t03, r_id=g.r_id, l_id=g.l_id,
                                h_id=(0, 1, 1, 2, 3, 4))
    with pytest.raises(InternalInconsistency,
                       match=r"^no T\^1 witness; GreenData is broken$"):
        relgreen.connectors(broken)


@pytest.mark.parametrize(
    "inst",
    [inst[:3] for inst in fixed_instances()]
    + [("t3_ideal", *nonperm_ideal(3)), ("t4_ideal", *nonperm_ideal(4))],
    ids=lambda inst: inst[0],
)
def test_connectors_match_linear_scan(inst):
    _name, sem, sub = inst
    _assert_connectors_match_reference(sem, sub)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.data())
def test_connectors_match_linear_scan_on_random_subsemigroups(pick, data):
    pool = small_pool()
    sem = pool[pick % len(pool)]
    gens = data.draw(st.lists(st.integers(0, sem.order - 1),
                              min_size=1, max_size=3))
    _assert_connectors_match_reference(sem, core.closure(sem, gens))
