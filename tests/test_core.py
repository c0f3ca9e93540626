import copy
import dataclasses
import enum
import functools
import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenindex import (
    automatic,
    core,
    factories,
    growth,
    present,
    relgreen,
    rewrite,
    schutz,
)
from greenindex.errors import (
    DomainMismatch,
    EmptyGenerators,
    InputError,
    InvalidHomomorphism,
    NotAssociative,
    NotClosed,
    NotGenerating,
    NotInSubsemigroup,
    OutOfRange,
)

from helpers import (
    class_pairs,
    fixed_instances,
    ladder_pairs,
    nonperm_ideal,
    random_pairs,
    reference_closure,
    reference_not_closed,
    reference_relative_green,
    reference_shortlex_forms,
    reference_size_order_generators,
    reference_validate_table,
    small_pool,
    small_tables,
)


def test_prod1_is_the_mul1_fold_on_the_ladder():
    for k, (sem, _sub) in enumerate(ladder_pairs()):
        rng = random.Random(k)
        n = sem.order
        words = [(), (n,), (n, n)]
        for _ in range(200):
            word = rng.choices(range(n), k=rng.randrange(12))
            for _ in range(rng.randrange(4)):
                word.insert(rng.randrange(len(word) + 1), n)
            words.append(tuple(word))
        for word in words:
            assert sem.prod1(word) == functools.reduce(sem.mul1, word, n)


def test_validate_right_zero():
    sem = core.validate_table([[0, 1], [0, 1]])
    assert sem.order == 2
    assert sem.identity is None


def test_validate_z2_identity():
    sem = core.validate_table([[0, 1], [1, 0]])
    assert sem.identity == 0


def test_validate_non_associative_reports_witness():
    with pytest.raises(NotAssociative) as exc:
        core.validate_table([[0, 1], [0, 0]])
    x, y, z = exc.value.witness
    t = [[0, 1], [0, 0]]
    assert t[t[x][y]][z] != t[x][t[y][z]]
    # the triple (1,1,1) is itself a witness for this table
    assert t[t[1][1]][1] != t[1][t[1][1]]


def test_validate_out_of_range_and_shape():
    with pytest.raises(OutOfRange):
        core.validate_table([[0, 2], [0, 0]])
    with pytest.raises(InputError):
        core.validate_table([[0, 1], [0]])
    with pytest.raises(InputError):
        core.validate_table([])


def _verdict(validate, table):
    """The semigroup a validation returns, or the type, message and witness
    of the ``NotAssociative`` it raises."""
    try:
        return validate(table)
    except NotAssociative as exc:
        return type(exc), str(exc), exc.witness


def _zero_tables(n):
    """The left-zero, right-zero and null tables of order n.  Only all of S
    generates the first two; every product in the null table is 0, so its
    n - 1 nonzero elements generate it when n >= 2."""
    return (
        [[x] * n for x in range(n)],
        [list(range(n)) for _ in range(n)],
        [[0] * n for _ in range(n)],
    )


def _associative_bases():
    """Z_n and the min-semilattice of orders 1..8, the zero tables, and the
    tables of the fixed instances."""
    out = []
    for n in range(1, 9):
        out.append([[(x + y) % n for y in range(n)] for x in range(n)])
        out.append([[min(x, y) for y in range(n)] for x in range(n)])
        out.extend(_zero_tables(n))
    out.extend([list(row) for row in inst[1].table] for inst in fixed_instances())
    return out


ASSOCIATIVE_BASES = _associative_bases()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_validate_matches_cubic_reference_on_random_tables(table):
    assert _verdict(core.validate_table, table) == \
        _verdict(reference_validate_table, table)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ASSOCIATIVE_BASES), st.data())
def test_validate_matches_cubic_reference_with_one_cell_changed(base, data):
    # one wrong cell of an associative table puts the first witness
    # anywhere in the scan, often far from (0, 0, 0)
    n = len(base)
    cell = st.integers(0, n - 1)
    i, j, v = data.draw(cell), data.draw(cell), data.draw(cell)
    table = [list(row) for row in base]
    table[i][j] = v
    assert _verdict(core.validate_table, table) == \
        _verdict(reference_validate_table, table)


@pytest.mark.parametrize("n", range(1, 9))
def test_validate_matches_cubic_reference_on_zero_tables(n):
    for table in _zero_tables(n):
        assert core.validate_table(table) == reference_validate_table(table)


Digit = enum.IntEnum("Digit", [(f"d{v}", v) for v in range(5)])
Z5 = [[(x + y) % 5 for y in range(5)] for x in range(5)]
BAD_ENTRIES = [
    (True, InputError, "= True is not an integer"),
    (2.0, InputError, "= 2.0 is not an integer"),
    ("1", InputError, "= '1' is not an integer"),
    (-1, OutOfRange, "= -1 not in [0, 5)"),
    (5, OutOfRange, "= 5 not in [0, 5)"),
    (10 ** 20, OutOfRange, f"= {10 ** 20} not in [0, 5)"),
]


@pytest.mark.parametrize("row_type", [list, tuple])
@pytest.mark.parametrize("cell", [(0, 0), (2, 3), (4, 4)])
@pytest.mark.parametrize("value, kind, text", BAD_ENTRIES)
def test_validate_names_the_bad_entry(value, kind, text, cell, row_type):
    i, j = cell
    for later in (None, "later"):
        table = [list(row) for row in Z5]
        if later is not None and cell != (4, 4):
            table[4][4] = later  # a later bad entry does not hide the first
        table[i][j] = value
        with pytest.raises(InputError) as exc:
            core.validate_table([row_type(row) for row in table])
        assert exc.type is kind
        assert str(exc.value) == f"entry table[{i}][{j}] {text}"


def test_validate_accepts_int_subclass_entries():
    plain = core.validate_table(Z5)
    assert core.validate_table([[Digit(v) for v in row] for row in Z5]) == plain
    mixed = [list(row) for row in Z5]
    mixed[2][3] = Digit(mixed[2][3])
    assert core.validate_table(mixed) == plain
    with pytest.raises(NotAssociative):
        core.validate_table([[Digit(0), Digit(1)], [Digit(0), Digit(0)]])


def test_light_generators_on_t4_and_zero_tables():
    t4 = factories.full_transformation_monoid(4)
    gens = core._right_generators(t4.table)[0]
    assert len(gens) == 3  # the rank of T_4
    assert core.generated(t4, gens).members == frozenset(t4.elements)
    for n in range(1, 9):
        left, right, null = _zero_tables(n)
        assert sorted(core._right_generators(left)[0]) == list(range(n))
        assert sorted(core._right_generators(right)[0]) == list(range(n))
        assert sorted(core._right_generators(null)[0]) == (
            list(range(1, n)) if n >= 2 else [0])


def _check_rank_order(sem, sub):
    """Light's A generates S and T's B generates exactly T, both from the
    |x*S| that validate_table keeps, and the Green ids are those of the
    definition; A and its size-then-index reference."""
    rows = sem.table
    kept = core._rank_order(rows, sem.elements, sem._row_sizes)
    assert kept == core._rank_order(rows, sem.elements)
    gens = core._right_generators(rows, kept)[0]
    assert core.generated(sem, gens).members == frozenset(sem.elements)
    assert core.generated(sem, sub._t_gens).members == sub.members
    green = relgreen.relative_green(sem, sub)
    assert (green.r_id, green.l_id, green.h_id) == \
        reference_relative_green(sem, sub)
    return gens, reference_size_order_generators(sem, sem.elements)


def test_rank_order_on_the_ladder_and_random_pairs():
    for sem, sub in ladder_pairs():
        gens, ref = _check_rank_order(sem, sub)
        assert len(gens) <= len(ref)
    for sem, sub in random_pairs(40):
        _check_rank_order(sem, sub)


def test_rank_order_pins_t3_t4_and_a_cyclic_group():
    for k, b_size in ((3, 4), (4, 8)):
        tk, ideal = nonperm_ideal(k)
        assert len(core._right_generators(tk.table)[0]) == 3
        assert len(ideal._t_gens) == b_size
    z64 = factories.zmod(64)
    assert core._right_generators(z64.table)[0] == [1]
    assert reference_size_order_generators(z64, z64.elements) == (0, 1)
    # every element of order at least 8 = 64.bit_length() + 1 ties with 1,
    # so 2 (order 32) comes before 3 (order 64)
    assert core._rank_order(z64.table, z64.elements)[:3] == [1, 2, 3]


def test_subsemigroup_refuses_members_that_are_not_indices(z6):
    for members in ({"a"}, {0.0, 3.0}, {True}, {0, -3}, {0, 6}):
        with pytest.raises(OutOfRange):
            core.SubSemigroup(parent=z6, members=frozenset(members))
    with pytest.raises(OutOfRange, match=r"member 6 not in \[0, 6\)"):
        core.SubSemigroup(parent=z6, members=frozenset({6}))


@pytest.mark.parametrize("value", [True, 2.0, 2.5, -1])
def test_every_count_and_bound_is_an_int_of_at_least_its_least(z6, t03, value):
    # True used to count as 1 and 6.5 or 1.5 to pass a comparison; 2.0
    # ended in a TypeError
    struct = automatic.structure_for_finite(z6, [1])
    pres, assign = present.presentation_from_table(z6)
    q, qa = present.sub_table_presentation(z6, t03)
    green = relgreen.relative_green(z6, t03)
    packs = present.build_schutz_packs(z6, t03, green, q, qa)
    calls = [
        ("max_len", lambda x: automatic.verify_structure_report(struct, z6, x)),
        ("m_max", lambda x: growth.growth_function(z6, [1], x)),
        ("m_max", lambda x: growth.domination_check(z6, t03, [6], [3], x)),
        ("radius", lambda x: growth.out_ball(z6, [1], 0, radius=x)),
        ("max_classes", lambda x: present.verify_presentation(
            pres, z6, assign, max_classes=x)),
        ("max_classes", lambda x: present.enumerate_presentation(pres, x)),
        ("max_classes", lambda x: present.synthesize_presentation(
            q, qa, packs, green, relgreen.connectors(green), max_classes=x)),
    ]
    for what, call in calls:
        if value == -1:
            least = "positive" if what == "max_classes" else "nonnegative"
            message = f"{what} must be {least}"
        else:
            message = f"{what} must be an integer, not {value!r}"
        with pytest.raises(InputError) as info:
            call(value)
        assert str(info.value) == message, what


@pytest.mark.parametrize("value", [True, 1.0])
def test_a_class_index_is_an_int_not_a_bool_or_a_float(z6, t03, value):
    # True used to name class 1, and 1.0 ended in a TypeError
    green = relgreen.relative_green(z6, t03)
    message = f"complement class {value!r} not in [1, {green.class_count})"
    for call in (lambda: schutz.class_group(green, value),
                 lambda: schutz.check_L_R_transport(green, value, 1),
                 lambda: schutz.check_L_R_transport(green, 1, value)):
        with pytest.raises(OutOfRange) as info:
            call()
        assert str(info.value) == message


def test_closure_examples(z6):
    assert core.closure(z6, [2]).members == {0, 2, 4}
    assert core.closure(z6, [3]).members == {0, 3}
    assert core.closure(z6, range(6)).members == set(range(6))
    with pytest.raises(EmptyGenerators):
        core.closure(z6, [])
    with pytest.raises(OutOfRange):
        core.closure(z6, [6])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.data())
def test_closure_idempotent_and_monotone(seed, data):
    sem, _ = random_pairs(1, seed=seed)[0]
    k = data.draw(st.integers(1, min(3, sem.order)))
    gens = data.draw(
        st.lists(st.integers(0, sem.order - 1), min_size=k, max_size=k)
    )
    sub = core.closure(sem, gens)
    again = core.closure(sem, sub.members)
    assert again.members == sub.members
    extra = data.draw(st.integers(0, sem.order - 1))
    bigger = core.closure(sem, list(gens) + [extra])
    assert sub.members <= bigger.members


def test_subsemigroup_validation(z6):
    with pytest.raises(NotClosed):
        core.SubSemigroup(parent=z6, members=frozenset({1}))
    with pytest.raises(NotClosed):
        core.SubSemigroup(parent=z6, members=frozenset())
    sub = core.SubSemigroup(parent=z6, members=frozenset({0, 3}))
    assert core._target_domain(sub) == (z6, [0, 3])
    assert core._target_domain(z6) == (z6, list(range(6)))


def test_subsemigroup_keeps_any_iterable_of_members_as_a_frozenset(z6):
    def packs_and_verdict(sub):
        q, qa = present.sub_table_presentation(z6, sub)
        green = relgreen.relative_green(z6, sub)
        packs = present.build_schutz_packs(z6, sub, green, q, qa)
        return packs, present.verify_presentation(q, sub, qa)

    want = core.SubSemigroup(parent=z6, members=frozenset({0, 3}))
    for members in ([0, 3], (0, 3), {0, 3}, [3, 0, 3]):
        sub = core.SubSemigroup(parent=z6, members=members)
        assert type(sub.members) is frozenset
        assert sub == want and hash(sub) == hash(want)
        assert repr(sub) == repr(want)
        assert sub.complement() == want.complement() == {1, 2, 4, 5}
        assert packs_and_verdict(sub) == packs_and_verdict(want)
    assert packs_and_verdict(want)[1] is True


def _walk(sem, members):
    """The greedy walk over the sorted members, checked to reach exactly
    the closure of its generators and every member; the elements in the
    order the walk reached them."""
    gens, reached = core._right_generators(sem.table, sorted(members))
    assert set(reached) == reference_closure(sem, gens)
    assert members <= set(reached)
    return list(reached)


def _assert_subsemigroup_matches_pairwise_scan(sem, members):
    _walk(sem, members)
    expected = reference_not_closed(sem, members)
    if expected is None:
        sub = core.SubSemigroup(parent=sem, members=members)
        assert sub.members == members
        assert core.generated(sem, sub._t_gens).members == members
    else:
        with pytest.raises(NotClosed) as exc:
            core.SubSemigroup(parent=sem, members=members)
        assert str(exc.value) == expected


def test_subsemigroup_matches_pairwise_scan_on_every_small_table():
    for n in (1, 2, 3):
        for table in small_tables(n):
            sem = core.validate_table(table)
            for mask in range(1, 1 << n):
                members = frozenset(x for x in range(n) if mask >> x & 1)
                _assert_subsemigroup_matches_pairwise_scan(sem, members)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9), st.data())
def test_subsemigroup_matches_pairwise_scan_on_random_subsets(pick, data):
    # a closure, one element more or less, or any subset: both verdicts
    pool = small_pool()
    sem = pool[pick % len(pool)]
    elt = st.integers(0, sem.order - 1)
    members = set(core.closure(sem, data.draw(
        st.lists(elt, min_size=1, max_size=3))).members)
    how = data.draw(st.sampled_from(["closure", "add", "drop", "subset"]))
    if how == "add":
        members.add(data.draw(elt))
    elif how == "drop" and len(members) > 1:
        members.discard(data.draw(st.sampled_from(sorted(members))))
    elif how == "subset":
        members = data.draw(st.sets(elt, min_size=1))
    _assert_subsemigroup_matches_pairwise_scan(sem, frozenset(members))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10 ** 9), st.data())
def test_subsemigroup_accepts_exactly_the_closed_subsets_of_small_tables(
        n, pick, data):
    tables = small_tables(n)
    sem = core.validate_table(tables[pick % len(tables)])
    members = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    if data.draw(st.booleans()):
        members = core.closure(sem, members).members
    _assert_subsemigroup_matches_pairwise_scan(sem, frozenset(members))


def test_walk_that_leaves_t_before_reaching_every_member(z6):
    # from 2 the walk reaches 4, outside T = {2, 3}, before 3 is added
    members = frozenset({2, 3})
    order = _walk(z6, members)
    assert order.index(4) < order.index(3)
    assert reference_not_closed(z6, members) is not None
    _assert_subsemigroup_matches_pairwise_scan(z6, members)


def test_subsemigroup_checks_emptiness_and_members_before_closure(z6):
    with pytest.raises(NotClosed, match=r"^subsemigroup is empty$"):
        core.SubSemigroup(parent=z6, members=frozenset())
    for bad in (6, -1, 2.0):  # {1, bad} is not closed either
        with pytest.raises(OutOfRange) as exc:
            core.SubSemigroup(parent=z6, members=frozenset({1, bad}))
        assert str(exc.value) == f"member {bad!r} not in [0, 6)"


def test_homomorphism_validation():
    z4, z2 = factories.zmod(4), factories.zmod(2)
    phi = factories.mod_reduction(z4, z2)
    assert [phi(x) for x in range(4)] == [0, 1, 0, 1]
    with pytest.raises(InvalidHomomorphism):
        core.Homomorphism(source=z4, target=z2, mapping=(0, 1, 1, 0))
    for image in (True, 1.0, "1", -1, 2):  # not an index of Z2
        with pytest.raises(InvalidHomomorphism) as exc:
            core.Homomorphism(source=z2, target=z2, mapping=(0, image))
        assert str(exc.value) == f"image {image!r} outside target"
    assert core.Homomorphism(source=z2, target=z2, mapping=(0, 1))(1) == 1


def test_strong_semilattice_example_orders():
    z2 = factories.zmod(2)
    s, t = core.strong_semilattice(
        z2, factories.trivial(), factories.collapse_to_trivial(z2)
    )
    assert s.order == 3
    assert t.members == {0, 1}
    assert t.complement() == {2}

    z4 = factories.zmod(4)
    s2, t2 = core.strong_semilattice(
        z4, z2, factories.mod_reduction(z4, z2)
    )
    assert s2.order == 6
    # mixed products push the first-factor through the homomorphism
    assert s2.mul(1, 4) == 4 + 1  # 1 maps to 1 in Z2, 1 + 0 = 1 in the copy
    assert s2.mul(4, 1) == 4 + 1

    with pytest.raises(DomainMismatch):
        core.strong_semilattice(z2, z2, factories.mod_reduction(z4, z2))


def test_strong_semilattice_identity_copy():
    z2 = factories.zmod(2)
    ident = core.Homomorphism(source=z2, target=z2, mapping=(0, 1))
    s, t = core.strong_semilattice(z2, z2, ident)
    assert s.order == 4
    assert s.mul(0, 2) == 2  # lands in the second copy
    assert s.mul(1, 3) == 2
    assert s.mul(3, 1) == 2


def test_is_group_is_cancellative():
    z2 = factories.zmod(2)
    assert core.is_group(z2)
    assert core.is_cancellative(z2)
    rz = factories.right_zero(2)
    assert not core.is_group(rz)
    assert not core.is_cancellative(rz)


def test_cancellative_implies_group_order_up_to_3():
    for n in (1, 2, 3):
        for table in small_tables(n):
            sem = core.validate_table(table)
            if core.is_cancellative(sem):
                assert core.is_group(sem)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 9))
def test_cancellative_implies_group_random_tables(n, pick):
    # random associative tables, sampled from the exhaustive enumeration
    tables = small_tables(n)
    table = tables[pick % len(tables)]
    sem = core.validate_table(table)
    if core.is_cancellative(sem):
        assert core.is_group(sem)


def test_shortlex_factorize(z6):
    assert core.generated(z6, [3]).word(3) == (3,)
    assert core.generated(z6, [3]).word(0) == (3, 3)
    assert core.generated(z6, [1]).word(4) == (1, 1, 1, 1)
    assert core.generated(z6, [2, 3]).word(2) == (2,)
    with pytest.raises(NotInSubsemigroup):
        core.generated(z6, [3]).word(1)
    forms = core.generated(z6, [1]).words
    assert len(forms) == 6
    assert forms[5] == (1,) * 5


def test_black_box_spot_check():
    good = core.BlackBoxSemigroup(multiply=operator.add, generators=(1, 2))
    assert good.spot_check_associativity() is None
    bad = core.BlackBoxSemigroup(multiply=operator.sub, generators=(1, 2))
    witness = bad.spot_check_associativity()
    assert witness is not None
    a, b, c = witness
    assert (a - b) - c != a - (b - c)


def test_json_round_trip(z6):
    data = z6.to_json_dict()
    again = core.FiniteSemigroup.from_json_dict(data)
    assert again == z6
    with pytest.raises(InputError):
        core.FiniteSemigroup.from_json_dict({"order": 3, "table": [[0]]})


def _count_generated(monkeypatch):
    """The generating sets of every ``core.generated`` call from now on."""
    calls, real = [], core.generated

    def counting(sem, gens):
        gens = list(gens)
        calls.append(gens)
        return real(sem, gens)

    monkeypatch.setattr(core, "generated", counting)
    return calls


def _t3_ideal_classes():
    sem, sub = nonperm_ideal(3)
    green = relgreen.relative_green(sem, sub)
    return sem, sub, green, class_pairs(sem, sub, green)


def _check_t(sub, gens):
    """T's generation check over ``gens``: what the extended and
    Schutzenberger generators and domination run."""
    return core._generating(sub.parent, gens, sub.members, "T")


def test_one_generation_check_of_t_per_rung(monkeypatch):
    # certify's order: the extended generators, every class's harvest,
    # then domination, all over the one B; domination adds the BFS of S
    # over A = B u R
    sem, sub, green, classes = _t3_ideal_classes()
    conn = relgreen.connectors(green)
    b_gens = sorted(rewrite.schreier_generators(
        sem, schutz.find_generating_set(sem), sub, green, conn)[0])
    r_set = sorted(set(green.reps) | {sem.order})
    calls = _count_generated(monkeypatch)
    rewrite.extended_generators(b_gens, green)
    for fam, grp in classes:
        schutz.schutz_generators(b_gens, fam, grp)
    growth.domination_check(sem, sub, r_set, b_gens, 4)
    a_letters = sorted(set(b_gens) | set(green.reps))
    assert len(classes) == 6 and calls == [b_gens, a_letters]


def test_generation_memo_keeps_answers_and_no_failure(monkeypatch):
    sem, sub, green, classes = _t3_ideal_classes()
    r_set = sorted(set(green.reps) | {sem.order})
    sets = [list(sub._t_gens), list(sub.sorted_members())]
    fresh = []
    for b in sets:  # each over its own copy of S, with an empty memo
        other = dataclasses.replace(sem)
        fresh.append(growth.domination_check(
            other, core.SubSemigroup(parent=other, members=sub.members),
            r_set, b, 5))
    assert fresh[0] != fresh[1]
    for k in range(6):  # alternating two generating sets
        b = sets[k % 2]
        assert _check_t(sub, b) == core.generated(sem, sorted(b))
        assert growth.domination_check(sem, sub, r_set, b, 5) == fresh[k % 2]
        assert rewrite.extended_generators(b, green) == frozenset(b) | set(green.reps)
    fam, grp = classes[0]
    calls = _count_generated(monkeypatch)
    # letters that do not generate T are an answer, kept like any other,
    # and the check refuses them each time
    bad = [min(sub.members)]
    for _ in range(3):
        for call in (lambda: rewrite.extended_generators(bad, green),
                     lambda: schutz.schutz_generators(bad, fam, grp),
                     lambda: growth.domination_check(sem, sub, r_set, bad, 3)):
            with pytest.raises(NotGenerating, match="does not generate T"):
                call()
    assert calls == [bad] and sem._last_generated[0] == tuple(bad)
    _check_t(sub, sets[1])
    kept = sem._last_generated
    # refused letters are never kept, before or after a pass
    for refused in ([], [-1], [sem.order], [True], [0.0], [*sets[1], True]):
        for call in (lambda: rewrite.extended_generators(refused, green),
                     lambda: schutz.schutz_generators(refused, fam, grp),
                     lambda: growth.domination_check(sem, sub, r_set, refused, 3),
                     lambda: core._generated(sem, refused)):
            with pytest.raises((EmptyGenerators, OutOfRange)):
                call()
            assert sem._last_generated is kept
    # no letters at all reach the public BFS, which refuses them
    assert [c for c in calls if c] == [bad, sorted(sets[1])]
    calls.clear()
    _check_t(sub, reversed(sets[1]))  # the same letters in another order
    assert calls == []
    # a bool equals its int, but is refused as a generator every time
    z6 = factories.zmod(6)
    whole = core.SubSemigroup(parent=z6, members=frozenset(z6.elements))
    growth.domination_check(z6, whole, [z6.order], [1], 2)
    for b in ([True], [1.0]):
        with pytest.raises(OutOfRange):
            growth.domination_check(z6, whole, [z6.order], b, 2)


def test_generation_memo_is_per_semigroup(monkeypatch):
    sem, sub = nonperm_ideal(3)
    b_gens = list(sub._t_gens)
    _check_t(sub, b_gens)
    twin = core.SubSemigroup(parent=sem, members=sub.members)
    calls = _count_generated(monkeypatch)
    # a twin T shares its parent, and so the parent's memo
    assert _check_t(twin, b_gens) == _check_t(sub, b_gens)
    assert calls == []
    # an equal semigroup is another object, with a memo of its own
    other = dataclasses.replace(sem)
    assert other == sem
    assert _check_t(core.SubSemigroup(parent=other, members=sub.members),
                    b_gens) == _check_t(sub, b_gens)
    assert calls == [sorted(b_gens)]
    consts = core.SubSemigroup(parent=sem, members=frozenset(
        i for i, m in enumerate(sem.names) if len(set(m)) == 1))
    with pytest.raises(NotGenerating):
        _check_t(consts, b_gens)
    assert calls == [sorted(b_gens)]


def test_generation_memo_leaves_the_dataclass_as_it_was():
    sem, sub = nonperm_ideal(3)
    twin_sem = dataclasses.replace(sem)
    twin = core.SubSemigroup(parent=twin_sem, members=sub.members)
    before = [(repr(x), hash(x)) for x in (sem, sub)]
    _check_t(sub, sub._t_gens)
    assert [(repr(x), hash(x)) for x in (sem, sub)] == before
    assert sem == twin_sem and hash(sem) == hash(twin_sem)
    assert sub == twin and hash(sub) == hash(twin)
    assert [f.name for f in dataclasses.fields(sem)] == [
        "order", "table", "identity", "names"]
    assert [f.name for f in dataclasses.fields(sub)] == ["parent", "members"]
    for clone in (copy.copy(sub), copy.deepcopy(sub),
                  pickle.loads(pickle.dumps(sub))):
        assert clone == sub and hash(clone) == hash(sub)
        assert repr(clone) == repr(sub) and clone.t_one() == sub.t_one()
        assert _check_t(clone, sub._t_gens).members == sub.members
    for clone in (copy.copy(sem), copy.deepcopy(sem),
                  pickle.loads(pickle.dumps(sem))):
        assert clone == sem and hash(clone) == hash(sem)
        assert repr(clone) == repr(sem)
        assert core._generated(clone, sub._t_gens).members == sub.members


def test_generation_memo_agrees_with_the_reference_bfs():
    # two letter sets alternate over each pair, so every caller meets the
    # memo both holding its letters and holding the other set
    for sem, sub in random_pairs(25):
        n = sem.order
        letter_sets = [sub.sorted_members(), schutz.find_generating_set(sem)]
        for k in range(6):
            gens = list(letter_sets[k % 2])
            if k >= 2:
                gens.reverse()  # the order is not part of the key
            want = reference_shortlex_forms(sem, sorted(set(gens)))
            # the caller owns what the public BFS gives, and may change it
            core.generated(sem, gens).words.clear()
            assert core._generated(sem, gens).words == want
            kept = sem._last_generated
            for refused in ([], [n], [*gens, True], [gens[0] + 0.0]):
                with pytest.raises((EmptyGenerators, OutOfRange)):
                    core._generated(sem, refused)
                assert sem._last_generated is kept
            assert growth._words(sem, [n, *gens]) == want
            assert growth.growth_function(sem, gens, 4) == tuple(
                1 + sum(len(w) <= m for w in want.values()) for m in range(5))
            pres = present.Presentation(
                tuple(f"x{g}" for g in gens), ())
            assign = {f"x{g}": g for g in gens}
            _over, tree = present._spelling(pres, sem, assign)
            assert tree == {n: (), **{x: tuple(f"x{g}" for g in w)
                                      for x, w in want.items()}}
            if set(want) == set(sem.elements):
                st = automatic.structure_for_finite(sem, gens)
                assert set(st.acceptor.iter_words()) == {
                    tuple(f"a{g}" for g in w) for w in want.values()}
            if set(want) == sub.members:
                assert _check_t(sub, gens).words == want
