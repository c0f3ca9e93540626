import copy
import dataclasses
import math
import pickle
import random
import re
from itertools import product

import pytest
from helpers import (
    _base_pool,
    _reference_push,
    fixed_instances,
    ladder_pairs,
    nonperm_ideal,
    random_pairs,
    reference_schreier_set,
    reference_signature,
    reference_two_pass,
    reference_word_equality_report,
    wp_context,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from greenindex import core, factories, relgreen, rewrite, schutz
from greenindex.errors import (
    InputError,
    InternalInconsistency,
    InvalidLetter,
    NotGenerating,
    NotInSubsemigroup,
    OutOfRange,
)


def setup_tables(sem, sub):
    green = relgreen.relative_green(sem, sub)
    return green, relgreen.connectors(green)


def test_empty_word_traces(z6, t03):
    green, conn = setup_tables(z6, t03)
    for i in range(green.class_count):
        tr = rewrite.push_right(i, (), conn)
        assert tr.output_word == () and tr.output_class == i
        tl = rewrite.push_left(i, (), conn)
        assert tl.output_word == () and tl.output_class == i


def test_push_right_z6_example(z6, t03):
    green, conn = setup_tables(z6, t03)
    i = green.class_of(1)
    tr = rewrite.push_right(i, (3,), conn)
    # 1 + 3 = 4 stays in the class {1, 4}
    assert tr.output_class == i
    assert z6.mul1(tr.output_word[0], green.rep_of(i)) == 4


@pytest.mark.parametrize("push", [rewrite.push_right, rewrite.push_left],
                         ids=["right", "left"])
@pytest.mark.parametrize("i, word", [
    (0, [-1]),    # read as the adjoined identity 6
    (-1, [1]),    # read as class 2
    (0, [True]),  # read as letter 1
    (0, [7]),     # a bare IndexError
    (True, [1]),
    (3, []),
], ids=["letter -1", "class -1", "letter True", "letter 7", "class True",
        "class 3"])
def test_pushes_refuse_out_of_range_values(z6, t03, push, i, word):
    # Z6 over {0, 3} has 3 classes and letters 0..6 (6 is the identity)
    _green, conn = setup_tables(z6, t03)
    with pytest.raises(OutOfRange):
        push(i, word, conn)


def test_equations_exhaustive_length_4(instances):
    for _name, sem, sub, _a, _b in instances:
        green, conn = setup_tables(sem, sub)
        n = sem.order
        for i in range(green.class_count):
            for length in range(5):
                for word in product(range(n), repeat=length):
                    tr = rewrite.push_right(i, word, conn)
                    lhs = sem.prod1([green.rep_of(i), *word])
                    rhs = sem.prod1([*tr.output_word, green.rep_of(tr.output_class)])
                    assert lhs == rhs
                    tl = rewrite.push_left(i, word, conn)
                    lhs2 = sem.prod1([*word, green.rep_of(i)])
                    rhs2 = sem.prod1([green.rep_of(tl.output_class), *tl.output_word])
                    assert lhs2 == rhs2


def test_subsemigroup_word_conclusions(instances):
    # with every letter inside T, the push lands in the class of the product
    for _name, sem, sub, _a, _b in instances:
        green, conn = setup_tables(sem, sub)
        n = sem.order
        members = sub.sorted_members()
        for i in range(green.class_count):
            for length in range(4):
                for word in product(members, repeat=length):
                    tr = rewrite.push_right(i, word, conn)
                    value = sem.prod1([green.rep_of(i), *word])
                    if value in sub.members or value == n:
                        assert tr.output_class == 0
                    else:
                        assert green.l_id[value] == green.l_id[green.rep_of(tr.output_class)]
                        if green.r_id[value] == green.r_id[green.rep_of(i)]:
                            assert green.h_id[value] == green.h_id[green.rep_of(tr.output_class)]
                    tl = rewrite.push_left(i, word, conn)
                    value2 = sem.prod1([*word, green.rep_of(i)])
                    if value2 in sub.members or value2 == n:
                        assert tl.output_class == 0
                    else:
                        assert green.r_id[value2] == green.r_id[green.rep_of(tl.output_class)]
                        if green.l_id[value2] == green.l_id[green.rep_of(i)]:
                            assert green.h_id[value2] == green.h_id[green.rep_of(tl.output_class)]


def test_push_left_from_identity_class_over_t(z6, t03):
    green, conn = setup_tables(z6, t03)
    for length in range(1, 4):
        for word in product(t03.sorted_members(), repeat=length):
            tl = rewrite.push_right(0, word, conn)
            assert tl.output_class == 0
            assert z6.prod1(tl.output_word) == z6.prod1(word)


def test_schreier_degenerate_whole_semigroup(z6):
    full = core.SubSemigroup(parent=z6, members=frozenset(range(6)))
    green, conn = setup_tables(z6, full)
    bset, factorizer = rewrite.schreier_generators(z6, [1], full, green, conn)
    assert bset == {1}
    assert core.closure(z6, bset).members == set(range(6))
    for t in range(6):
        word = factorizer(t)
        assert z6.prod1(word) == t


def test_schreier_z6(z6, t03):
    green, conn = setup_tables(z6, t03)
    bset, factorizer = rewrite.schreier_generators(z6, [1], t03, green, conn)
    assert core.closure(z6, bset).members == {0, 3}
    for t in (0, 3):
        word = factorizer(t)
        assert set(word) <= bset
        assert z6.prod1(word) == t
    with pytest.raises(NotInSubsemigroup):
        factorizer(1)
    with pytest.raises(NotGenerating):
        rewrite.schreier_generators(z6, [2], t03, green, conn)


def test_schreier_normal_subgroup_closure():
    s3 = factories.symmetric_group(3)
    a3 = core.closure(s3, [3])
    green, conn = setup_tables(s3, a3)
    bset, factorizer = rewrite.schreier_generators(s3, [2, 3], a3, green, conn)
    assert core.closure(s3, bset).members == a3.members
    for t in a3.sorted_members():
        assert s3.prod1(factorizer(t)) == t


def test_schreier_size_bound(instances):
    for _name, sem, sub, a_gens, _b in instances:
        green, conn = setup_tables(sem, sub)
        bset, _ = rewrite.schreier_generators(sem, list(a_gens), sub, green, conn)
        k1 = green.class_count
        assert len(bset) <= len(a_gens) * k1 * k1


def test_extended_generators(z6, t03):
    green, _conn = setup_tables(z6, t03)
    ext = rewrite.extended_generators([3], green)
    assert ext == {3, 1, 2}
    assert core.closure(z6, ext).members == set(range(6))
    full = core.SubSemigroup(parent=z6, members=frozenset(range(6)))
    green_full, _ = setup_tables(z6, full)
    assert rewrite.extended_generators([1], green_full) == {1}
    with pytest.raises(NotGenerating):
        rewrite.extended_generators([0], green)


def test_extended_generators_semilattice():
    z2 = factories.zmod(2)
    s, t = core.strong_semilattice(
        z2, factories.trivial(), factories.collapse_to_trivial(z2)
    )
    green, _ = setup_tables(s, t)
    ext = rewrite.extended_generators([1], green)
    assert core.closure(s, ext).members == set(range(3))


def _equal(w1, w2, ctx):
    return rewrite.word_equality_report(w1, w2, ctx).equal


def test_decide_word_equality_trivial_and_mixed(z6, t03):
    ctx = wp_context(z6, t03)
    assert _equal(("t3", "d1"), ("t3", "d1"), ctx)
    verdict = rewrite.word_equality_report(("t3",), ("d1",), ctx)
    assert not verdict.equal
    assert verdict.branch == "mixed"
    assert _equal((), (), ctx)
    assert not _equal((), ("t3",), ctx)
    with pytest.raises(InvalidLetter):
        _equal(("nope",), ("t3",), ctx)


def test_decide_word_equality_matches_evaluation(z6, t03):
    ctx = wp_context(z6, t03)
    letters = sorted(ctx.letter_eval)
    for len1 in range(1, 4):
        for w1 in product(letters, repeat=len1):
            for len2 in range(1, 4):
                for w2 in product(letters, repeat=len2):
                    expected = (
                        z6.prod1(ctx.letter_eval[a] for a in w1)
                        == z6.prod1(ctx.letter_eval[a] for a in w2)
                    )
                    assert _equal(w1, w2, ctx) == expected


def test_decide_branches(z6, t03):
    ctx = wp_context(z6, t03)
    both_t = rewrite.word_equality_report(("t3", "t3"), ("t0",), ctx)
    assert both_t.branch == "both_in_sub" and both_t.equal
    outside = rewrite.word_equality_report(("d1", "t3"), ("d1",), ctx)
    assert outside.branch == "both_outside" and not outside.equal
    same = rewrite.word_equality_report(("d1", "t0"), ("d1",), ctx)
    assert same.branch == "both_outside" and same.equal


def test_schreier_generators_refuses_other_green_data(z6, t03):
    # with the tables of {0, 2, 4} the factorizer of {0, 3} failed inside
    green, conn = setup_tables(z6, core.closure(z6, [2]))
    with pytest.raises(InputError, match="^subsemigroup does not match"):
        rewrite.schreier_generators(z6, [1], t03, green, conn)


def _assert_matches_reference(sem, sub, words):
    """Each word's signature agrees with ``reference_signature``, and the
    verdict on each pair of words with ``reference_word_equality_report``,
    which pushes every word valued outside T; the references get a context
    of their own, and the decider one that no signature call has filled."""
    ctx, ref_ctx = wp_context(sem, sub), wp_context(sem, sub)
    pairs = list(product(words, repeat=2))
    verdicts = [rewrite.word_equality_report(a, b, ctx) for a, b in pairs]
    assert verdicts == [reference_word_equality_report(a, b, ref_ctx)
                        for a, b in pairs]
    for w in words:
        assert rewrite._signature(w, ctx) == reference_signature(w, ref_ctx)


@pytest.mark.parametrize("inst", fixed_instances(), ids=lambda inst: inst[0])
def test_signature_matches_reference_on_short_words(inst):
    _name, sem, sub, _a, _b = inst
    letters = sorted(wp_context(sem, sub).letter_eval)
    words = [w for k in range(4) for w in product(letters, repeat=k)]
    _assert_matches_reference(sem, sub, words)


def _long_words(letters, class_letters, rng, count):
    """Words over all letters and over the class letters alone, of
    log-uniform length up to 400, then a nonempty word over the class
    letters followed by one over all letters, each half as long, so that
    more left pushes end outside class 0."""
    class_letters = class_letters or letters

    def length():
        return int(math.exp(rng.uniform(0.0, math.log(401)))) - 1

    out = [tuple(rng.choices(pool, k=length()))
           for pool in (letters, class_letters) for _ in range(count)]
    out += [tuple(rng.choices(class_letters, k=length() // 2 + 1)
                  + rng.choices(letters, k=length() // 2))
            for _ in range(count)]
    return out


def _signature_exit(word, ctx):
    """Where the reference pushes of a nonempty word end: "left" when the
    left push ends in class 0, "right" when the right push lands in T, else
    "back"."""
    first, i = _reference_push(ctx.conn, 0, [ctx.letter_eval[a] for a in word],
                               "left")
    if i == 0:
        return "left"
    _out, j = _reference_push(ctx.conn, i, first, "right")
    return "right" if j == 0 else "back"


def _assert_pushes_end_in_t_exactly_on_t_values(sem, sub, conn, words):
    """For each nonempty word of S elements: the left push of the identity
    and the right push of its class end in class 0 exactly when the word's
    value is in T, and the pushed output then folds to that value.  Returns
    how many words valued in T have a left push ending outside class 0."""
    late = 0
    for elems in words:
        value = sem.prod1(elems)
        first, i = _reference_push(conn, 0, elems, "left")
        pushed, j = _reference_push(conn, i, first, "right")
        assert (j == 0) == (value in sub.members)
        if j == 0:
            assert sem.prod1(pushed) == value
            late += i != 0
    return late


@pytest.mark.parametrize(
    "k", range(10),
    ids=[f"ladder{k}" for k in range(9)] + ["t4_ideal"])
def test_signature_matches_reference_on_long_words(k):
    sem, sub = (ladder_pairs() + [nonperm_ideal(4)])[k]
    ctx = wp_context(sem, sub)
    letters = sorted(ctx.letter_eval)
    class_letters = [a for a in letters if ctx.letter_eval[a] not in sub.members]
    words = _long_words(letters, class_letters, random.Random(k), 30)
    _assert_matches_reference(sem, sub, words)
    late = _assert_pushes_end_in_t_exactly_on_t_values(
        sem, sub, ctx.conn,
        [[ctx.letter_eval[a] for a in w] for w in words if w])
    if k == 9:  # the T4 sample takes every exit of the reference pushes
        exits = {_signature_exit(w, ctx) for w in words if w}
        assert exits == {"left", "right", "back"}
        assert late > 0  # words in T that only the fold decides at once


@pytest.mark.parametrize(
    "k", range(10),
    ids=[f"ladder{k}" for k in range(9)] + ["t4_ideal"])
def test_two_pass_matches_unconditional_scans(k):
    sem, sub = (ladder_pairs() + [nonperm_ideal(4)])[k]
    _green, conn = setup_tables(sem, sub)
    rng = random.Random(k)
    letters = [*sem.elements, sem.order]
    words = [()] + [tuple(rng.choices(letters, k=rng.randrange(1, 60)))
                    for _ in range(200)]
    results = [rewrite._two_pass(w, conn) for w in words]
    assert results == [reference_two_pass(w, conn) for w in words]
    # left pushes that end in class 0, and left pushes that end outside it
    assert {left[0] == relgreen.IDENTITY_CLASS
            for left, _out, _right in results} == {True, False}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.data())
def test_signature_matches_reference_on_random_semigroups(pick, data):
    pool = _base_pool()
    sem = pool[pick % len(pool)]
    gens = data.draw(st.lists(st.integers(0, sem.order - 1),
                              min_size=1, max_size=3))
    sub = core.closure(sem, gens)
    letters = sorted(wp_context(sem, sub).letter_eval)
    words = data.draw(st.lists(
        st.lists(st.sampled_from(letters), max_size=12).map(tuple),
        min_size=1, max_size=8))
    _assert_matches_reference(sem, sub, words)


def test_unknown_letter_is_named_and_not_cached(z6, t03):
    # the fold runs right to left, yet the leftmost unknown letter is named
    ctx = wp_context(z6, t03)
    for word, name in [(("t3", "nope", "zap"), "nope"),  # two unknown letters
                       (("t3", "d1", "nope"), "nope"),   # last
                       (("nope", "t3", "d1"), "nope"),   # first
                       (("nope",), "nope"),              # alone
                       (("zap", "t3", "nope"), "zap")]:  # two, at both ends
        with pytest.raises(InvalidLetter, match=f"^unknown letter '{name}'$"):
            rewrite.word_equality_report(word, ("t3",), ctx)
        assert word not in ctx._sig_cache
    assert ctx._sig_cache == {} and ctx._value_cache == {}


def test_only_words_outside_t_in_one_class_are_pushed(z6, t03):
    # Z6 over {0, 3}: d1 and d2 lie in the complement classes 1 and 2
    ctx = wp_context(z6, t03)

    def no_push(*args):
        raise AssertionError("a word was pushed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "_left_ends", no_push)
        assert rewrite.word_equality_report(("d1",), ("d2",), ctx) == \
            rewrite.WordVerdict(False, "both_outside",
                                "distinct complement classes 1 != 2")
        assert rewrite.word_equality_report(("t3", "t3"), ("d1", "d1"), ctx) == \
            rewrite.WordVerdict(False, "mixed",
                                "one word lands in T, the other outside")
        assert rewrite.word_equality_report((), ("d1",), ctx) == \
            rewrite.WordVerdict(False, "mixed", "only one word is empty")
        with pytest.raises(AssertionError, match="^a word was pushed$"):
            rewrite.word_equality_report(("d1", "t3"), ("d1",), ctx)
    assert ctx._sig_cache == {}
    assert ctx._value_cache == {("d1",): 1, ("d2",): 2, ("t3", "t3"): 0,
                                ("d1", "d1"): 2, (): z6.order, ("d1", "t3"): 4}
    assert rewrite.word_equality_report(("d1", "t3"), ("d1",), ctx) == \
        rewrite.WordVerdict(False, "both_outside",
                            "class 1, stabilizer residuals 3 and 0")


def test_pushes_end_in_the_class_of_the_value():
    # the stabilizer argument: a word valued outside T is h_K * r with r
    # in the stabilizer of H_K, so its pushes end in the class of its value
    rng = random.Random(29)
    pushed = 0
    for sem, sub in ladder_pairs() + [nonperm_ideal(4)] + random_pairs(25):
        ctx, ref_ctx = wp_context(sem, sub), wp_context(sem, sub)
        letters = sorted(ctx.letter_eval)
        class_letters = [a for a in letters
                         if ctx.letter_eval[a] not in sub.members] or letters
        for pool in (letters, class_letters) * 15:
            word = tuple(rng.choices(pool, k=rng.randrange(1, 40)))
            value = sem.prod1(ctx.letter_eval[a] for a in word)
            if value in sub.members:
                continue
            klass = ctx.green.class_of(value)
            assert reference_signature(word, ref_ctx)[1] == klass
            assert rewrite._signature(word, ctx)[1] == klass
            pushed += 1
    assert pushed > 400  # of 1,050 words


def test_pushes_land_in_t_exactly_when_the_value_does_on_random_pairs():
    rng = random.Random(27)
    for sem, sub in random_pairs(25):
        _green, conn = setup_tables(sem, sub)
        words = [rng.choices(sem.elements, k=rng.randrange(1, 30))
                 for _ in range(40)]
        _assert_pushes_end_in_t_exactly_on_t_values(sem, sub, conn, words)


@pytest.mark.parametrize("value", [-1, 6, True, "3"])
def test_hand_built_context_refuses_values_outside_s(z6, t03, value):
    ctx = wp_context(z6, t03)
    letter_eval = {**ctx.letter_eval, "x": value}
    message = re.escape(f"letter_eval entry {value!r} not in [0, 6)")
    with pytest.raises(OutOfRange, match=f"^{message}$"):
        rewrite.WordProblemContext(ctx.green, ctx.conn, letter_eval)


def test_hand_built_context_keeps_values_in_s(z6, t03):
    for sem, sub in ladder_pairs():
        ctx = wp_context(sem, sub)
        rebuilt = rewrite.WordProblemContext(
            ctx.green, ctx.conn, dict(ctx.letter_eval))
        assert rebuilt == ctx
    ctx = wp_context(z6, t03)
    extra = rewrite.WordProblemContext(
        ctx.green, ctx.conn, {**ctx.letter_eval, "x": 3})
    assert rewrite.word_equality_report(("x",), ("t3",), extra) == \
        rewrite.WordVerdict(True, "both_in_sub", "compared 3 and 3 in T")


def test_pushes_that_land_in_t_for_a_word_outside_t_raise(z6, t03):
    ctx = wp_context(z6, t03)
    conn = ctx.conn

    def zeros(rows):
        return tuple((0,) * len(row) for row in rows)

    broken = rewrite.WordProblemContext(ctx.green, dataclasses.replace(
        conn, left_class=zeros(conn.left_class),
        right_class=zeros(conn.right_class)), ctx.letter_eval)
    word = next((a,) for a, v in sorted(ctx.letter_eval.items()) if v == 1)
    with pytest.raises(InternalInconsistency,
                       match="^a word valued 1 outside T was pushed into T$"):
        rewrite.word_equality_report(word, word, broken)
    assert word not in broken._sig_cache
    # a word valued in T is still decided by its value alone
    assert rewrite.word_equality_report(("t3", "t3"), ("t0",), broken) == \
        rewrite.WordVerdict(True, "both_in_sub", "compared 0 and 0 in T")


def test_pushes_that_end_in_another_class_raise(z6, t03):
    # left pushes that swap the classes 1 and 2 of Z6 over {0, 3}
    ctx = wp_context(z6, t03)
    swap = (0, 2, 1)
    broken = rewrite.WordProblemContext(ctx.green, dataclasses.replace(
        ctx.conn, left_class=tuple(tuple(swap[c] for c in row)
                                   for row in ctx.conn.left_class)),
        ctx.letter_eval)
    word = ("d1", "t3")
    with pytest.raises(InternalInconsistency, match="^a word valued 4 in"
                       " class 1 was pushed to class 2$"):
        rewrite.word_equality_report(word, word, broken)
    assert word not in broken._sig_cache
    # words in distinct classes are told apart by their values alone
    assert rewrite.word_equality_report(word, ("d2",), broken) == \
        rewrite.WordVerdict(False, "both_outside",
                            "distinct complement classes 1 != 2")


def test_letter_eval_is_a_read_only_copy(z6, t03):
    ctx = wp_context(z6, t03)
    with pytest.raises(TypeError):
        ctx.letter_eval["x"] = -1
    assert ctx.letter_eval == {"t0": 0, "t3": 3, "d1": 1, "d2": 2}
    letter_eval = dict(ctx.letter_eval)
    own = rewrite.WordProblemContext(ctx.green, ctx.conn, letter_eval)
    assert own == ctx and own.letter_eval == letter_eval
    letter_eval.update(d1=-1, t3=1, x=3)  # after the context is built
    assert own == ctx
    pairs = [(("d1", "t3"), ("d1",)), (("d1", "d2"), ("t3",)), (("t3",), ("t0",))]
    assert [rewrite.word_equality_report(u, v, own) for u, v in pairs] == \
        [rewrite.word_equality_report(u, v, ctx) for u, v in pairs]
    with pytest.raises(InvalidLetter, match="^unknown letter 'x'$"):
        rewrite.word_equality_report(("x",), ("t3",), own)
    # copies and pickles rebuild the context, read-only, from a plain dict
    for copied in (copy.copy(own), copy.deepcopy(own),
                   pickle.loads(pickle.dumps(own))):
        assert copied == own and copied.letter_eval == ctx.letter_eval
        with pytest.raises(TypeError):
            copied.letter_eval["x"] = -1
        assert [rewrite.word_equality_report(u, v, copied) for u, v in pairs] \
            == [rewrite.word_equality_report(u, v, ctx) for u, v in pairs]
    # a context replaced with other letters starts from an empty cache
    moved = dataclasses.replace(own, letter_eval={**own.letter_eval, "d1": 3})
    assert rewrite.word_equality_report(("d1",), ("t3",), moved).equal


def test_hand_built_context_refuses_other_connectors(z6, t03):
    # with the connectors of {0, 2, 4}, two-letter words of {0, 3} were
    # pushed into InternalInconsistency
    ctx = wp_context(z6, t03)
    other = wp_context(z6, core.closure(z6, [2])).conn
    with pytest.raises(InputError,
                       match="^connector tables do not match the Green data$"):
        rewrite.WordProblemContext(ctx.green, other, ctx.letter_eval)


def _chain(conn, i, word, direction):
    """The classes a push visits, one ``_reference_push`` per letter, in
    ``RewriteTrace.steps`` order."""
    chain = [i]
    for s in (word if direction == "right" else reversed(word)):
        chain.append(_reference_push(conn, chain[-1], [s], direction)[1])
    return chain if direction == "right" else chain[::-1]


def _assert_pushes_match_reference(sem, conn, words, classes):
    """``push_right``/``push_left`` traces and the chain-free left push,
    through the connector tables, against ``_reference_push`` and
    ``_chain`` for each word of S^1 elements from each given class."""
    n = sem.order
    for word, i in product(words, classes):
        for push, direction in ((rewrite.push_right, "right"),
                                (rewrite.push_left, "left")):
            out, j = _reference_push(conn, i, word, direction)
            tr = push(i, word, conn)
            assert (tr.output_word, tr.output_class, tr.steps) == \
                (tuple(out), j, tuple(_chain(conn, i, word, direction)))
        # out and j are now the reference left push's
        assert rewrite._left_ends(i, word, conn.left_factor, conn.left_class,
                                  n) == (j, [b for b in reversed(out) if b != n])


@pytest.mark.parametrize(
    "k", range(10),
    ids=[f"ladder{k}" for k in range(9)] + ["t4_ideal"])
def test_pushes_match_reference(k):
    sem, sub = (ladder_pairs() + [nonperm_ideal(4)])[k]
    ctx = wp_context(sem, sub)
    rng = random.Random(k)
    letters = [*sem.elements, sem.order]  # the adjoined identity included
    words = [()] + [tuple(rng.choices(letters, k=rng.randrange(1, 120)))
                    for _ in range(12)]
    classes = rng.sample(range(ctx.green.class_count),
                         min(4, ctx.green.class_count))
    _assert_pushes_match_reference(sem, ctx.conn, words, classes)
    # the chain-free left push through the context's letter-keyed rows
    _rows, factor, klass = ctx._rows
    for i in classes:
        for word in _long_words(sorted(ctx.letter_eval), None, rng, 4):
            out, j = _reference_push(
                ctx.conn, i, [ctx.letter_eval[a] for a in word], "left")
            assert rewrite._left_ends(i, word, factor, klass, sem.order) == \
                (j, [b for b in reversed(out) if b != sem.order])


def test_pushes_match_reference_on_random_pairs():
    rng = random.Random(28)
    for sem, sub in random_pairs(25):
        _green, conn = setup_tables(sem, sub)
        letters = [*sem.elements, sem.order]
        words = [tuple(rng.choices(letters, k=rng.randrange(0, 30)))
                 for _ in range(6)]
        _assert_pushes_match_reference(
            sem, conn, words, range(conn.green.class_count))


def test_schreier_set_matches_the_triple_loop():
    # the columns of right_factor at the distinct left factors against
    # right_factor[j][left_factor[a][i]] over every a, j and i, on the
    # ladder, T4 over its ideal and random pairs; A is find_generating_set's,
    # that set reversed with a duplicate, and all of S
    for sem, sub in ladder_pairs() + [nonperm_ideal(4)] + random_pairs(25):
        green, conn = setup_tables(sem, sub)
        a_gens = list(schutz.find_generating_set(sem))
        for gens in (a_gens, a_gens[::-1] + a_gens[:1], list(sem.elements)):
            bset, _ = rewrite.schreier_generators(sem, gens, sub, green, conn)
            assert bset == reference_schreier_set(gens, green, conn)
