import copy
import dataclasses
import functools
import pickle
import re

import pytest
from helpers import (
    ladder_pairs,
    nonperm_ideal,
    outcome,
    random_pairs,
    reference_enumerate_presentation,
    reference_parse_word,
    reference_presents,
    reference_verify_by_enumeration,
    reference_verify_sub_presentation,
    small_tables,
)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from greenindex import core, factories, present, relgreen, rewrite
from greenindex.errors import (
    BadInputPresentation,
    BoundExceeded,
    DaggerViolation,
    InputError,
    InvalidLetter,
    OutOfRange,
)


def test_parse_word_tokenizes_multichar_letters():
    assert present.parse_word("bbb", ("b",)) == ("b", "b", "b")
    assert present.parse_word("d1b", ("b", "d1")) == ("d1", "b")
    assert present.parse_word(["d1", "b"], ("b", "d1")) == ("d1", "b")
    with pytest.raises(InvalidLetter):
        present.parse_word("c", ("b",))
    # far past the recursion limit, and a dead end retried only once
    assert present.parse_word("ab" * 3000, ("a", "b", "ab")) == ("ab",) * 3000
    with pytest.raises(InvalidLetter):
        present.parse_word("a" * 200 + "b", ("a", "aa", "aaa"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text("ab1", min_size=1, max_size=3), min_size=1, max_size=4),
       st.text("ab1", max_size=10))
def test_parse_word_matches_recursive_reference(alphabet, raw):
    assert outcome(present.parse_word, raw, alphabet) == \
        outcome(reference_parse_word, raw, alphabet)


def test_presentation_validation():
    with pytest.raises(InputError):
        present.Presentation(("a",), ((("a",), ()),))
    with pytest.raises(InvalidLetter):
        present.Presentation(("a",), ((("a",), ("b",)),))
    with pytest.raises(InputError):
        present.Presentation(("a", "a"), ())


@pytest.mark.parametrize("at", [0, 1, 2])
def test_presentation_names_its_first_bad_word(at):
    # a bad word first, in the middle or last of three relations; before
    # the last, a bad word of the other kind follows it there
    ok = (("a", "b"), ("b",))
    empty = (("a",), ())
    unknown = (("a",), ("b", "z"))
    for bad, later, error, message in (
            (empty, unknown, InputError, "relation words must be nonempty"),
            (unknown, empty, InvalidLetter, "relation uses unknown letter 'z'")):
        rels = [ok, ok, later if at < 2 else ok]
        rels[at] = bad
        with pytest.raises(error, match=f"^{message}$") as info:
            present.Presentation(("a", "b"), tuple(rels))
        assert info.type is error
    with pytest.raises(InputError, match="^duplicate letters in alphabet$"):
        present.Presentation(("a", "b", "a"), (ok,))


@pytest.mark.parametrize("rel", [(("a",), ("a",), ("a",)), (("a",),), None])
def test_a_relation_that_is_not_a_pair_is_refused(rel):
    for rels in ((rel,), ((("a",), ("a",)), rel)):
        with pytest.raises(InputError,
                           match="^each relation must be a pair of words$") as info:
            present.Presentation(("a",), rels)
        assert info.type is InputError


def test_presentation_stores_tuples_and_refuses_string_words():
    # lists are stored as tuples, so the presentation equals and hashes as
    # the tuple-built one; a string word is refused, not read letter by letter
    built = present.Presentation(("a",), ((("a", "a"), ("a",)),))
    for alphabet, rels in ((("a",), [(("a", "a"), ("a",))]),
                           (["a"], [[["a", "a"], ["a"]]])):
        pres = present.Presentation(alphabet, rels)
        assert pres == built and hash(pres) == hash(built)
        assert pres.alphabet == ("a",) and pres.relations == built.relations
    for rel in (("ab", "a"), (("a", "b"), "a")):
        with pytest.raises(InputError, match="is a string, not a sequence"):
            present.Presentation(("a", "b"), [rel])


def test_json_round_trip():
    pres = present.Presentation(
        ("b", "d1"), ((("b", "b", "b"), ("b",)), (("d1", "b"), ("b", "d1")))
    )
    data = pres.to_json_dict(assignment={"b": 3, "d1": 1})
    again, assign = present.Presentation.from_json_dict(data)
    assert again == pres
    assert assign == {"b": 3, "d1": 1}


def test_table_presentation_round_trip_small_orders():
    sems = [
        factories.trivial(),
        factories.zmod(2),
        factories.zmod(6),
        factories.right_zero(3),
        factories.full_transformation_monoid(2),
        factories.symmetric_group(3),
        factories.monogenic(3, 2),
        factories.rectangular_band(2, 3),
        factories.zmod(10),
    ]
    for sem in sems:
        pres, assign = present.presentation_from_table(sem)
        assert present.verify_presentation(pres, sem, assign)


def test_table_presentation_trivial():
    pres, assign = present.presentation_from_table(factories.trivial())
    assert pres.alphabet == ("x0",)
    assert pres.relations == ((("x0", "x0"), ("x0",)),)


def test_enumerate_examples():
    one = present.enumerate_presentation(
        present.Presentation(("a",), ((("a", "a"), ("a",)),)), 10
    )
    assert one.complete and one.size == 1

    two = present.enumerate_presentation(
        present.Presentation(("b",), ((("b", "b", "b"), ("b",)),)), 10
    )
    assert two.complete and two.size == 2
    assert two.reps == (("b",), ("b", "b"))

    three = present.enumerate_presentation(
        present.Presentation(
            ("a", "b"),
            (
                (("a", "b"), ("b", "a")),
                (("a", "a"), ("a",)),
                (("b", "b"), ("b",)),
            ),
        ),
        10,
    )
    assert three.complete and three.size == 3
    assert set(three.reps) == {("a",), ("b",), ("a", "b")}


def test_enumerate_is_deterministic():
    pres = present.Presentation(("b",), ((("b", "b", "b"), ("b",)),))
    r1 = present.enumerate_presentation(pres, 10)
    r2 = present.enumerate_presentation(pres, 10)
    assert r1 == r2


def test_enumerate_bound_exceeded():
    free = present.Presentation(("a",), ())
    result = present.enumerate_presentation(free, 5)
    assert not result.complete
    assert "bound" in result.reason


def test_enumerate_quotient_table_is_consistent(z6):
    pres, assign = present.presentation_from_table(z6)
    result = present.enumerate_presentation(pres, 100)
    assert result.complete and result.size == 6
    # the representatives evaluate bijectively onto Z6
    evals = [present.evaluate_word(z6, assign, w) for w in result.reps]
    assert sorted(evals) == list(range(6))


_LETTERS = ("a", "b", "c")


@st.composite
def _presentations(draw):
    alphabet = _LETTERS[:draw(st.integers(1, 3))]
    word = st.lists(st.sampled_from(alphabet), min_size=1,
                    max_size=5).map(tuple)
    rels = draw(st.lists(st.tuples(word, word), min_size=1, max_size=5))
    return present.Presentation(alphabet, tuple(rels))


_B_CUBED = present.Presentation(("b",), ((("b", "b", "b"), ("b",)),))


@settings(max_examples=300, deadline=None)
@given(_presentations(), st.sampled_from([1, 2, 5, 12, 40, 120, 300]))
@example(_B_CUBED, 2)  # complete
@example(_B_CUBED, 1)  # closed with one class too many
@example(present.Presentation(("a",), ((("a", "a"), ("a", "a")),)), 5)  # cap
def test_enumerate_matches_fixed_point_reference(pres, max_classes):
    got = present.enumerate_presentation(pres, max_classes)
    assert got == reference_enumerate_presentation(pres, max_classes)


def test_enumerate_sweep_traces_each_relation_once_from_the_root(
        z6, monkeypatch):
    # Both tables are total once every relation has been traced from the
    # root, so the sweep stops there, and the closing rounds read columns
    # without calling trace_define.
    calls = []
    trace = present._Table.trace_define

    def recording(self, node, word):
        calls.append((self.find(node), tuple(word)))
        return trace(self, node, word)

    monkeypatch.setattr(present._Table, "trace_define", recording)
    for pres in (_B_CUBED, present.presentation_from_table(z6)[0]):
        calls.clear()
        assert present.enumerate_presentation(pres, 100).complete
        pos = {a: i for i, a in enumerate(pres.alphabet)}
        assert calls == [(0, tuple(pos[a] for a in w))
                         for rel in pres.relations for w in rel]


def _closing(monkeypatch, pres, max_classes, drop_a_sweep_merge=False):
    """Enumerate and report the roots the sweep traced from, the closing
    rounds, and the merges those rounds made that identified two classes.
    With ``drop_a_sweep_merge`` the sweep skips its first such merge."""
    table_cls = present._Table
    trace, columns, merge = (table_cls.trace_define, table_cls.columns,
                             table_cls.merge)
    roots, rounds, merges, dropped = set(), [], [], []

    def tracing(self, node, word):
        roots.add(self.find(node))
        return trace(self, node, word)

    def numbering(self):
        rounds.append(None)
        return columns(self)

    def merging(self, x, y):
        if self.find(x) != self.find(y):
            if rounds:
                merges.append((x, y))
            elif drop_a_sweep_merge and not dropped:
                dropped.append((x, y))
                return None
        return merge(self, x, y)

    monkeypatch.setattr(table_cls, "trace_define", tracing)
    monkeypatch.setattr(table_cls, "columns", numbering)
    monkeypatch.setattr(table_cls, "merge", merging)
    result = present.enumerate_presentation(pres, max_classes)
    monkeypatch.undo()
    assert dropped or not drop_a_sweep_merge
    return result, len(roots), len(rounds), len(merges)


_CLASHING = present.Presentation(
    ("a", "b"), ((("b", "b"), ("a", "b", "a")), (("a", "b"), ("a",))))


def test_enumerate_closing_round_merges_a_clash(monkeypatch):
    # The sweep stops at a total table on which bb = aba does not yet hold
    # everywhere; the first round merges, the second is the certificate.
    result, _, rounds, merges = _closing(monkeypatch, _CLASHING, 10)
    assert rounds == 2 and merges >= 1
    assert result == reference_enumerate_presentation(_CLASHING, 10)
    assert result.size == 3


def test_enumerate_closing_rounds_catch_a_dropped_sweep_merge(monkeypatch):
    # On both the sweep reaches a total table without making up the merge
    # it skipped; the rounds trace every relation from every node, find it
    # again, and end at the reference.  So the final round is a real check.
    for pres in (_B_CUBED, _CLASHING):
        result, _, rounds, merges = _closing(monkeypatch, pres, 100,
                                             drop_a_sweep_merge=True)
        assert rounds >= 2 and merges >= 1
        assert result == reference_enumerate_presentation(pres, 100)


def _ladder_presentations():
    t3, ideal = nonperm_ideal(3)
    s4 = factories.symmetric_group(4)
    swap = s4.names.index("1023")
    for n in (8, 16, 24):
        yield present.presentation_from_table(factories.zmod(n))[0], n
    yield synth(t3, ideal)[0], 27
    yield synth(s4, core.closure(s4, [swap]))[0], 24


def test_enumerate_closes_the_ladder_in_one_clean_round(monkeypatch):
    # The gain over sweeping every node, counted rather than timed: the
    # sweep reaches a total table within four roots, and the first round
    # already certifies it.
    for pres, order in _ladder_presentations():
        result, roots, rounds, merges = _closing(monkeypatch, pres, 4 * order)
        assert result.size == order
        assert roots <= 4 and rounds == 1 and merges == 0


def test_verify_presentation_rejects_bad_relation(z6):
    pres = present.Presentation(("a",), ((("a", "a"), ("a",)),))
    assert not present.verify_presentation(pres, z6, {"a": 1})
    # relations hold but letters do not generate
    sub_only = present.Presentation(("a",), ((("a", "a", "a", "a"), ("a", "a")),))
    assert not present.verify_presentation(sub_only, z6, {"a": 2})


def test_quotient_with_long_representatives_is_refuted(z6):
    # <a | a^19 = a> holds in Z6 and a -> 1 generates it, but the quotient
    # has the 18 classes a, ..., a^18; a^18 used to exceed the
    # representative length bound, turning the refutation into BoundExceeded
    pres = present.Presentation(("a",), ((("a",) * 19, ("a",)),))
    result = present.enumerate_presentation(pres, 64)
    assert result.complete and result.size == 18
    assert present.verify_presentation(pres, z6, {"a": 1}) is False


def test_verify_presentation_raises_on_tight_bounds(z6):
    # <b | b^13 = b, b^9 = b^3> presents Z6 with b -> 1, but the rule
    # b^6 b = b is no relation, so the enumerator decides, within its bound
    pres = present.Presentation(
        ("b",), ((("b",) * 13, ("b",)), (("b",) * 9, ("b",) * 3)))
    with pytest.raises(BoundExceeded):
        present.verify_presentation(pres, z6, {"b": 1}, max_classes=2)
    assert present.verify_presentation(pres, z6, {"b": 1}) is True


@pytest.fixture()
def enumerations(monkeypatch):
    """Counts ``present.enumerate_presentation`` calls."""
    calls = []
    real = present.enumerate_presentation

    def counted(pres, max_classes):
        calls.append(pres)
        return real(pres, max_classes)

    monkeypatch.setattr(present, "enumerate_presentation", counted)
    return calls


def test_table_presentation_certifies_by_its_rules(z6, enumerations):
    # Z6's table presentation used to be BoundExceeded at max_classes=2;
    # its relations are its rules, read either way round
    pres, assign = present.presentation_from_table(z6)
    flipped = present.Presentation(
        pres.alphabet, tuple((v, u) for u, v in pres.relations))
    for p in (pres, flipped):
        assert present.verify_presentation(p, z6, assign, max_classes=2) is True
    assert enumerations == []


def test_rule_relations_are_never_evaluated(monkeypatch):
    # every relation of these is a rule, which holds by construction, so
    # neither synthesis nor verification evaluates one
    def evaluated(*args):
        raise AssertionError("a relation word was evaluated")

    monkeypatch.setattr(present, "evaluate_word", evaluated)
    z64 = factories.zmod(64)
    t4, ideal = nonperm_ideal(4)
    prod, prod_ideal = ladder_pairs()[-1]
    for (pres, assign), target in (
            (present.presentation_from_table(z64), z64),
            (present.sub_table_presentation(t4, ideal), ideal),
            (synth(prod, prod_ideal), prod)):
        assert present.verify_presentation(pres, target, assign) is True


@pytest.mark.parametrize("bound", [0, -1])
def test_verification_refuses_a_bound_below_one(z6, t03, bound):
    # a presentation with its rules never reaches the enumerator, which
    # used to be the only check of the bound
    pres, assign = present.presentation_from_table(z6)
    with pytest.raises(InputError, match="^max_classes must be positive$"):
        present.verify_presentation(pres, z6, assign, max_classes=bound)
    with pytest.raises(InputError, match="^max_classes must be positive$"):
        synth(z6, t03, max_classes=bound)


@pytest.mark.parametrize("bound", [0, -1])
def test_a_bound_below_one_is_refused_before_generation(t03, bound):
    # 2 does not generate Z4, which used to return False before the bound
    # was looked at; a base that does not present T used to raise
    # BadInputPresentation first
    z4 = factories.zmod(4)
    pres = present.Presentation(("x2",), ((("x2", "x2"), ("x2",)),))
    with pytest.raises(InputError, match="^max_classes must be positive$"):
        present.verify_presentation(pres, z4, {"x2": 2}, max_classes=bound)
    with pytest.raises(InputError, match="^max_classes must be positive$"):
        present.enumerate_presentation(pres, bound)
    bad = present.Presentation(("b",), ((("b", "b"), ("b",)),))
    with pytest.raises(InputError, match="^max_classes must be positive$"):
        synth(t03.parent, t03, bad, {"b": 3}, max_classes=bound)


@pytest.mark.parametrize("bound", [True, 2.5, "3", None])
def test_a_bound_that_is_not_an_int_is_refused(z6, t03, bound):
    message = f"^max_classes must be an integer, not {re.escape(repr(bound))}$"
    pres, assign = present.presentation_from_table(z6)
    with pytest.raises(InputError, match=message):
        present.enumerate_presentation(pres, bound)
    if bound is None:  # no bound: verification and synthesis pick their own
        return
    with pytest.raises(InputError, match=message):
        present.verify_presentation(pres, z6, assign, max_classes=bound)
    with pytest.raises(InputError, match=message):
        synth(z6, t03, max_classes=bound)


def _rule_cases():
    """(presentation, target, assignment, is_table) for every table
    presentation the ladder builds (each T base and each class-group pack),
    each synthesized S presentation, and the table presentations of Z_n
    for n <= 64."""
    for sem, sub in ladder_pairs():
        green = relgreen.relative_green(sem, sub)
        q, qa = present.sub_table_presentation(sem, sub)
        yield q, sub, qa, True
        packs = present.build_schutz_packs(sem, sub, green, q, qa)
        for pack in packs.values():
            yield (pack.presentation, pack.schutz.group, pack.letter_to_group,
                   True)
        pres, assign = present.synthesize_presentation(
            q, qa, packs, green, relgreen.connectors(green))
        yield pres, sem, assign, False
    for n in range(1, 65):
        z = factories.zmod(n)
        pres, assign = present.presentation_from_table(z)
        yield pres, z, assign, True


def _near_misses(pres, target, assign, is_table):
    """(kind, presentation, assignment) one step short of the rules, or
    beside them: the first or the last relation dropped, every relation
    reversed, the middle relation given twice, a relation whose right-hand
    side is another element's letter, the same false relation added in the
    middle beside the rule it shares a left side with, the assignment's
    values rotated, and, for a table presentation, a second letter y for
    the first letter's element e with the relations ay = (ae), ya = (ea)
    and yy = (ee) but not y = e."""
    sem = target.parent if isinstance(target, core.SubSemigroup) else target
    letters, rels = pres.alphabet, pres.relations
    yield "dropped", present.Presentation(letters, rels[1:]), assign
    yield "dropped", present.Presentation(letters, rels[:-1]), assign
    yield "reversed", present.Presentation(
        letters, tuple((v, u) for u, v in rels)), assign
    mid = len(rels) // 2
    yield "duplicated", present.Presentation(
        letters, rels[:mid + 1] + rels[mid:]), assign

    def falsified(u, v):
        """(u, (a,)) for the first letter a whose element is not v's."""
        value = present.evaluate_word(sem, assign, v)
        return next((((u, (a,)),) for a in letters if assign[a] != value), ())

    wrong = falsified(*rels[0])
    if wrong:  # the letters' elements are not all one
        yield "wrong", present.Presentation(letters, wrong + rels[1:]), assign
        yield "false extra", present.Presentation(
            letters, rels[:mid] + falsified(*rels[mid]) + rels[mid:]), assign
    values = [assign[a] for a in letters]
    yield "rotated", pres, dict(zip(letters, values[1:] + values[:1]))
    if is_table:
        letter_of = {assign[a]: a for a in letters}
        e = assign[letters[0]]
        extra = tuple(
            pair for a in letters for pair in (
                ((a, "y"), (letter_of[sem.mul(assign[a], e)],)),
                (("y", a), (letter_of[sem.mul(e, assign[a])],))))
        extra += ((("y", "y"), (letter_of[sem.mul(e, e)],)),)
        yield "second letter", present.Presentation(
            letters + ("y",), rels + extra), {**assign, "y": e}


def _order(target):
    return len(target) if isinstance(target, core.SubSemigroup) else target.order


def _against_enumerator(pres, target, assign, enumerations):
    """``verify_presentation``'s outcome, which must be the enumerator's
    under a bound of 32 classes per element, and whether it enumerated.
    ``present._presents`` must also agree with ``reference_presents``,
    which evaluates every relation before it looks the rules up, on the
    outcome and on whether to enumerate."""
    bound = 32 * _order(target) + 32
    enumerations.clear()
    got = outcome(present.verify_presentation, pres, target, assign, bound)
    enumerated = bool(enumerations)
    assert got == outcome(reference_verify_by_enumeration,
                          pres, target, assign, bound)
    sem = target.parent if isinstance(target, core.SubSemigroup) else target
    tree = present._spelling(pres, sem, assign)[1]
    enumerations.clear()
    new = outcome(present._presents, pres, sem, assign, tree, bound)
    new_enumerated = bool(enumerations)
    enumerations.clear()
    assert new == outcome(reference_presents, pres, sem, assign, bound)
    assert new_enumerated == bool(enumerations)
    return got, enumerated


def _check_rules_against_enumerator(cases, enumerations) -> int:
    """Every case verifies, each table presentation without enumerating;
    on targets of at most 32 elements, a dropped rule certifies when it
    derives and enumerates otherwise, a second letter falls through to the
    enumerator and is refused, reversed or duplicated relations change
    nothing, a false relation beside the rules is refused without
    enumerating, and every near miss gets its verdict.  Returns how many
    cases certified by their rules."""
    recognized = 0
    for pres, target, assign, is_table in cases:
        got, enumerated = _against_enumerator(pres, target, assign, enumerations)
        assert got is True
        assert not (is_table and enumerated)
        recognized += not enumerated
        if _order(target) > 32:
            continue  # enumerating near misses of the larger ones takes seconds
        for kind, near, near_assign in _near_misses(pres, target, assign,
                                                    is_table):
            near_got, near_enumerated = _against_enumerator(
                near, target, near_assign, enumerations)
            # a dropped rule enumerates exactly when the reference's
            # derivation stops, as _against_enumerator asserts
            if kind == "dropped" and not near_enumerated:
                assert near_got is True
            if kind == "second letter":
                assert (near_got, near_enumerated) == (False, True)
            if kind in ("reversed", "duplicated"):
                assert (near_got, near_enumerated) == (True, enumerated)
            if kind == "false extra":
                assert (near_got, near_enumerated) == (False, False)
    return recognized


def _walk_edge_cases():
    """(name, presentation, expected outcome, whether it enumerates, b's
    element) over Z3 with a assigned 1.  With b also 1 the tree spells
    1, 2, 0 as a, aa, aaa; every rule but aaaa = a and those of b is
    trivial, and the walk meets b = a, ab = aa, aab = aaa, aaaa = a,
    aaab = a in that order.  With b assigned 2 the tree spells 1, 2, 0 as
    a, b, ab, and the walk meets aa = b, ba = ab, bb = a, aba = a,
    abb = b."""
    a, b = ("a",), ("b",)
    rules = ((b, a), (a + b, a * 2), (a * 2 + b, a * 3), (a * 4, a),
             (a * 3 + b, a))
    yield "two letters for one element", rules, True, False, 1
    yield "with its reverse", rules[:2] + ((a * 2, a + b),) + rules[2:], \
        True, False, 1
    yield "duplicated", rules[:3] + rules[2:], True, False, 1
    yield "trivial", ((a, a),) + rules + ((a + b, a + b),), True, False, 1
    yield "only reversed", rules[:4] + ((a, a * 3 + b),), True, False, 1
    # ab = aa is missing, and derives: its suffix b is a side of b = a,
    # and a read from a steps through the trivial rule aa = aa
    yield "missing mid-walk", rules[:1] + rules[2:], True, False, 1
    # the relations after it, rules among them, are evaluated first, and a
    # false one refutes without enumerating
    yield "missing mid-walk, false after", \
        rules[:1] + rules[2:] + ((a * 2 + b, a),), False, False, 1
    # without b = a, b is a fourth class
    yield "b = a missing", rules[1:] + ((b * 2, a * 2), (b + a, a * 2)), \
        False, True, 1
    # ba = ab derives from ba = abab through the rule aba = a, and then
    # bb = a from b = aa through ba = ab, derived just before it
    kept = ((a * 2, b), (a + b + a, a), (a + b * 2, b))
    yield "derived from a derived rule", kept + ((b + a, (a + b) * 2),), \
        True, False, 2
    # ba = ab derives only through bb = a, which the walk meets later: one
    # pass stops there and enumerates, although bb = a derives from
    # bb = ababa
    yield "derivable only from a later rule", \
        kept + ((b + a, b * 3), (b * 2, (a + b) * 2 + a)), True, True, 2


@pytest.mark.parametrize("case", list(_walk_edge_cases()),
                         ids=lambda case: case[0])
def test_rule_walk_edge_cases_agree_with_the_references(enumerations, case):
    _name, rels, verdict, enumerates, b_value = case
    pres = present.Presentation(("a", "b"), rels)
    got = _against_enumerator(pres, factories.zmod(3), {"a": 1, "b": b_value},
                              enumerations)
    assert got == (verdict, enumerates)


def test_ladder_tables_verify_without_evaluating_or_enumerating(
        monkeypatch, enumerations):
    tables = [case[:3] for case in _rule_cases() if case[3]]
    evaluated = []
    monkeypatch.setattr(present, "evaluate_word",
                        lambda *args: evaluated.append(args))
    for pres, target, assign in tables:
        assert present.verify_presentation(pres, target, assign) is True
    assert len(tables) > 64 and evaluated == [] and enumerations == []


def test_rules_agree_with_the_enumerator(enumerations):
    cases = list(_rule_cases())
    recognized = _check_rules_against_enumerator(cases, enumerations)
    # every synthesized S presentation derives the rules it does not list
    assert recognized == len(cases)


# the fixture's count is cleared before each verification
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 3), st.integers(0, 10 ** 9), st.data())
def test_rules_agree_with_the_enumerator_on_drawn_semigroups(
        enumerations, n, pick, data):
    if data.draw(st.booleans()):
        tables = small_tables(n)
        sem = core.validate_table(tables[pick % len(tables)])
    else:
        sem = random_pairs(1, seed=pick)[0][0]
    gens = data.draw(st.lists(st.integers(0, sem.order - 1),
                              min_size=1, max_size=3))
    sub = core.closure(sem, gens)
    pres, assign = present.presentation_from_table(sem)
    q, qa = present.sub_table_presentation(sem, sub)
    s_pres, s_assign = synth(sem, sub, q, qa)
    cases = [(pres, sem, assign, True), (q, sub, qa, True),
             (s_pres, sem, s_assign, False)]
    assert _check_rules_against_enumerator(cases, enumerations) >= 2


def test_the_ladder_certifies_exactly_under_default_bounds():
    # each of these was BoundExceeded while every table presentation was
    # enumerated
    for n in (32, 48, 64):
        z = factories.zmod(n)
        pres, assign = present.presentation_from_table(z)
        assert present.verify_presentation(pres, z, assign)
    for sem, sub in ladder_pairs()[-2:]:
        pres, assign = synth(sem, sub)
        assert present.verify_presentation(pres, sem, assign)


def _no_enumeration(pres, max_classes):
    raise AssertionError("enumerate_presentation was called")


def test_synthesized_presentations_verify_without_the_enumerator(monkeypatch):
    # every rule the synthesis does not list derives in one pass, on the
    # four small instances and S4 over <(12)> as on the rest
    monkeypatch.setattr(present, "enumerate_presentation", _no_enumeration)
    for sem, sub in ladder_pairs():
        pres, assign = synth(sem, sub)
        assert present.verify_presentation(pres, sem, assign) is True


def test_a_derivation_that_stops_enumerates_long_words(enumerations):
    # <b | b^203 = b^3> holds in Z_200 with b -> 1, and the only missing
    # rule is b^201 = b.  Its one suffix that is a relation side is b^3,
    # and b^203 read from b^198 steps through that rule itself, so the
    # derivation stops and the enumerator finds the 202 classes
    # b, ..., b^202
    z200 = factories.zmod(200)
    pres = present.Presentation(("b",), ((("b",) * 203, ("b",) * 3),))
    assert present.verify_presentation(pres, z200, {"b": 1}) is False
    assert len(enumerations) == 1
    assert present.enumerate_presentation(pres, 800).size == 202


def test_compact_subsemigroup_presentation(z6, t03):
    compact = present.Presentation(("b",), ((("b", "b", "b"), ("b",)),))
    assert present.verify_presentation(compact, t03, {"b": 3})
    assert not present.verify_presentation(compact, t03, {"b": 0})
    # the old subsemigroup verifier returned False for these two
    with pytest.raises(InvalidLetter):
        present.verify_presentation(compact, t03, {})
    with pytest.raises(InputError):
        present.verify_presentation(compact, t03, {"b": 6})
    # a bool or a float used to pass this check and be refused later,
    # without the letter's name
    for value in (True, 3.0):
        with pytest.raises(OutOfRange, match=rf"^assignment of 'b' {value}"
                                             r" not in \[0, 6\)$"):
            present.verify_presentation(compact, t03, {"b": value})


def synth(sem, sub, q=None, qa=None, **kw):
    green = relgreen.relative_green(sem, sub)
    conn = relgreen.connectors(green)
    if q is None:
        q, qa = present.sub_table_presentation(sem, sub)
    packs = present.build_schutz_packs(sem, sub, green, q, qa)
    return present.synthesize_presentation(q, qa, packs, green, conn, **kw)


def test_synthesis_whole_semigroup_is_unchanged(z6):
    full = core.SubSemigroup(parent=z6, members=frozenset(range(6)))
    q, qa = present.presentation_from_table(z6)
    green = relgreen.relative_green(z6, full)
    conn = relgreen.connectors(green)
    packs = present.build_schutz_packs(z6, full, green, q, qa)
    pres, assign = present.synthesize_presentation(q, qa, packs, green, conn)
    assert pres == q
    assert assign == qa


def test_synthesis_z6(z6, t03):
    compact = present.Presentation(("b",), ((("b", "b", "b"), ("b",)),))
    pres, assign = synth(z6, t03, compact, {"b": 3})
    assert set(pres.alphabet) == {"b", "d1", "d2"}
    assert present.verify_presentation(pres, z6, assign,
                                       max_classes=500)


def test_synthesis_semilattice():
    z4, z2 = factories.zmod(4), factories.zmod(2)
    s, t = core.strong_semilattice(z4, z2, factories.mod_reduction(z4, z2))
    pres, assign = synth(s, t)
    assert present.verify_presentation(pres, s, assign,
                                       max_classes=500)


def test_synthesis_rejects_bad_base_presentation(z6, t03):
    bad = present.Presentation(("b",), ((("b", "b"), ("b",)),))
    with pytest.raises(BadInputPresentation):
        synth(z6, t03, bad, {"b": 3})


def test_synthesis_refuses_a_bad_group_presentation_lift_or_base_letter(
        z6, t03):
    green = relgreen.relative_green(z6, t03)
    conn = relgreen.connectors(green)
    q, qa = present.sub_table_presentation(z6, t03)
    packs = present.build_schutz_packs(z6, t03, green, q, qa)
    pack = packs[1]
    # c1_1 = c1_0 presents the trivial group, not Z2
    trivial = present.Presentation(pack.presentation.alphabet,
                                   ((("c1_1",), ("c1_0",)),))
    # t0 evaluates to 0, which is not c1_1's group element 1
    off_lift = {**pack.lift, "c1_1": ("t0",)}
    for changes, message in (
            ({"presentation": trivial},
             "class 1: group presentation fails verification"),
            ({"lift": off_lift},
             "class 1: lift of 'c1_1' is not congruent to its image")):
        bad = {**packs, 1: dataclasses.replace(pack, **changes)}
        with pytest.raises(BadInputPresentation, match=f"^{message}$"):
            present.synthesize_presentation(q, qa, bad, green, conn)
    # the base letter t3 renamed d1, the first class letter
    rename = {"t0": "t0", "t3": "d1"}
    d_base = present.Presentation(
        tuple(rename[a] for a in q.alphabet),
        tuple(tuple(tuple(rename[a] for a in w) for w in rel)
              for rel in q.relations))
    d_assign = {rename[a]: e for a, e in qa.items()}
    d_packs = present.build_schutz_packs(z6, t03, green, d_base, d_assign)
    with pytest.raises(BadInputPresentation,
                       match="^base alphabet collides with class letters$"):
        present.synthesize_presentation(d_base, d_assign, d_packs, green, conn)


@pytest.mark.parametrize("alphabet", [(1, 2), ("",), ("a", ""), (["a"],)])
def test_presentation_letters_must_be_nonempty_strings(alphabet):
    # (1, 2) used to be accepted and fail with a TypeError when written;
    # ("",) was written and then refused by the reader
    with pytest.raises(InputError,
                       match="^presentation letters must be nonempty strings$"):
        present.Presentation(alphabet, ())
    with pytest.raises(InputError,
                       match="^presentation letters must be nonempty strings$"):
        present.Presentation.from_json_dict(
            {"alphabet": list(alphabet), "relations": [[["x"], ["x"]]]})


def test_dagger_violation_detected():
    s3 = factories.symmetric_group(3)
    sub = core.closure(s3, [2])
    green = relgreen.relative_green(s3, sub)
    conn = relgreen.connectors(green)
    q, qa = present.sub_table_presentation(s3, sub)
    packs = present.build_schutz_packs(s3, sub, green, q, qa)
    # forge a pack that breaks the shared-alphabet convention for one of the
    # L-related pairs
    l_groups = {}
    for i, pack in packs.items():
        l_groups.setdefault(pack.leader, []).append(i)
    shared = next(m for m in l_groups.values() if len(m) > 1)
    i = shared[1]
    old = packs[i]
    rogue = present.Presentation(
        tuple(a + "_rogue" for a in old.presentation.alphabet),
        tuple(
            (tuple(a + "_rogue" for a in u), tuple(a + "_rogue" for a in v))
            for u, v in old.presentation.relations
        ),
    )
    forged = dict(packs)
    forged[i] = present.ClassPack(
        class_index=old.class_index,
        leader=old.leader,
        presentation=rogue,
        schutz=old.schutz,
        letter_to_group={a + "_rogue": g for a, g in old.letter_to_group.items()},
        lift={a + "_rogue": w for a, w in old.lift.items()},
    )
    with pytest.raises(DaggerViolation):
        present.synthesize_presentation(
            q, qa, forged, green, conn
        )


def test_dagger_violations_name_the_first_pair():
    # S3 over <(12)>: classes 1 and 3 are L-related, and so are 2 and 4
    s3 = factories.symmetric_group(3)
    sub = core.closure(s3, [2])
    green = relgreen.relative_green(s3, sub)
    q, qa = present.sub_table_presentation(s3, sub)
    packs = present.build_schutz_packs(s3, sub, green, q, qa)
    assert [green.l_id[green.rep_of(i)] for i in range(1, 5)] == [1, 2, 1, 2]
    present._check_dagger(green, packs)

    def forged(*classes, **changes):
        return {**packs, **{i: dataclasses.replace(packs[i], **changes)
                            for i in classes}}

    renamed = present.Presentation(
        tuple(a + "_rogue" for a in packs[3].presentation.alphabet), ())
    other_lift = {a: w + w for a, w in packs[3].lift.items()}
    # pairs in order (1, 2), (1, 3), (1, 4), (2, 3), ...: class 4 taking
    # class 1's letters breaks (1, 4) before (2, 4), and classes 2 and 4
    # taking them break (1, 2) first
    for bad, message in (
            (forged(3, presentation=renamed),
             "L-related classes 1, 3 must share alphabet and relations"),
            (forged(3, lift=other_lift),
             "L-related classes 1, 3 must share letter lifts"),
            (forged(4, presentation=packs[1].presentation),
             "unrelated classes 1, 4 must use disjoint alphabets"),
            (forged(2, 4, presentation=packs[1].presentation),
             "unrelated classes 1, 2 must use disjoint alphabets")):
        with pytest.raises(DaggerViolation, match=f"^{message}$"):
            present._check_dagger(green, bad)
    missing = {i: p for i, p in packs.items() if i != 2}
    with pytest.raises(BadInputPresentation, match="^missing pack for class 2$"):
        present._check_dagger(green, missing)


def test_pack_lifts_are_congruent(instances):
    for _name, sem, sub, _a, _b in instances:
        green = relgreen.relative_green(sem, sub)
        q, qa = present.sub_table_presentation(sem, sub)
        packs = present.build_schutz_packs(sem, sub, green, q, qa)
        for i, pack in packs.items():
            assert present.verify_presentation(
                pack.presentation, pack.schutz.group, pack.letter_to_group
            )
            for a in pack.presentation.alphabet:
                elt = sem.prod1(qa[x] for x in pack.lift[a])
                assert pack.schutz.quotient_index(elt) == pack.letter_to_group[a]


def test_a_lift_off_the_base_alphabet_is_refused(z6, t03):
    # z is assigned 3, as t3 is, so the lift passes the congruence check;
    # the word check of the group relations finds that z is not a letter
    green = relgreen.relative_green(z6, t03)
    q, qa = present.sub_table_presentation(z6, t03)
    packs = present.build_schutz_packs(z6, t03, green, q, qa)
    off = {i: dataclasses.replace(pack, lift={
               a: ("z",) if w == ("t3",) else w for a, w in pack.lift.items()})
           for i, pack in packs.items()}
    with pytest.raises(InvalidLetter,
                       match="^relation uses unknown letter 'z'$"):
        present.synthesize_presentation(
            q, {**qa, "z": 3}, off, green, relgreen.connectors(green))


def _recording_unchecked(monkeypatch) -> list:
    """Every presentation built through ``Presentation._of_letters`` from
    now on, in order."""
    built = []
    real = present.Presentation._of_letters.__func__

    def recording(cls, alphabet, relations):
        built.append(real(cls, alphabet, relations))
        return built[-1]

    monkeypatch.setattr(present.Presentation, "_of_letters",
                        classmethod(recording))
    return built


def test_library_presentations_equal_their_checked_reconstructions(monkeypatch):
    # every table, pack and synthesized presentation, built unchecked,
    # passes the constructor's checks and is indistinguishable from the
    # presentation that the constructor builds from its fields
    built = _recording_unchecked(monkeypatch)
    pairs = ladder_pairs() + random_pairs(40, seed=11)
    for n in (1, 6, 32, 64):
        z = factories.zmod(n)
        pairs.append((z, core.closure(z, [n // 2])))
    expected = 0
    for sem, sub in pairs:
        present.presentation_from_table(sem)
        green = relgreen.relative_green(sem, sub)
        q, qa = present.sub_table_presentation(sem, sub)
        packs = present.build_schutz_packs(sem, sub, green, q, qa)
        present.synthesize_presentation(q, qa, packs, green,
                                        relgreen.connectors(green))
        expected += 3 + len({p.leader for p in packs.values()})
    assert len(built) == expected
    for pres in built:
        checked = present.Presentation(pres.alphabet, pres.relations)
        for again in (pres, copy.copy(pres), copy.deepcopy(pres),
                      pickle.loads(pickle.dumps(pres))):
            assert type(again) is present.Presentation
            assert vars(again) == vars(checked)
            assert again == checked and hash(again) == hash(checked)
            assert repr(again) == repr(checked)


def test_synthesized_relations_hold(z6, t03):
    pres, assign = synth(z6, t03)
    for u, v in pres.relations:
        assert present.evaluate_word(z6, assign, u) == present.evaluate_word(
            z6, assign, v
        )


def _sub_presentation_cases(sem, sub):
    """Presentations of T assigned into parent indices: the table
    presentation as assigned, with its values rotated, with one value moved
    outside T, with its first or its last relation dropped, and the
    one-letter presentation b^(k+1) = b^i of each member's powers."""
    q, qa = present.sub_table_presentation(sem, sub)
    letters = q.alphabet
    yield q, qa
    yield q, dict(zip(letters, [qa[a] for a in letters[1:] + letters[:1]]))
    outside = sorted(sub.complement())
    if outside:
        yield q, {**qa, letters[-1]: outside[0]}
    yield present.Presentation(letters, q.relations[1:]), qa
    yield present.Presentation(letters, q.relations[:-1]), qa
    for m in sub.sorted_members():
        powers = [m]
        while (p := sem.mul(powers[-1], m)) not in powers:
            powers.append(p)
        rel = (("b",) * (len(powers) + 1), ("b",) * (powers.index(p) + 1))
        yield present.Presentation(("b",), (rel,)), {"b": m}


def _sub_verdicts(sem, sub):
    """``verify_presentation`` on T next to the re-indexing reference, for
    every case under default and tight bounds."""
    for pres, assign in _sub_presentation_cases(sem, sub):
        for bounds in ({}, {"max_classes": 1}, {"max_classes": 3}):
            got = outcome(functools.partial(
                present.verify_presentation, pres, sub, assign, **bounds))
            want = outcome(functools.partial(
                reference_verify_sub_presentation, pres, assign, sub, **bounds))
            yield got, want


def test_subsemigroup_verification_matches_reindexing_reference(instances):
    seen = set()
    for _name, sem, sub, _a, _b in instances:
        for got, want in _sub_verdicts(sem, sub):
            assert got == want
            seen.add(got if isinstance(got, bool) else got[1])
    assert seen == {True, False, "class bound exceeded"}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 9), st.data())
def test_subsemigroup_verification_matches_reference_on_small_tables(n, pick, data):
    tables = small_tables(n)
    sem = core.validate_table(tables[pick % len(tables)])
    gens = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
    sub = core.closure(sem, gens)
    for got, want in _sub_verdicts(sem, sub):
        assert got == want


def test_word_problem_context_refuses_other_green_data(z6, t03):
    # T = {0, 3} with the Green data of {0, 2, 4} used to get the letters
    # t0, t3 and d1
    t024 = core.SubSemigroup(parent=z6, members=frozenset({0, 2, 4}))
    green = relgreen.relative_green(z6, t024)
    conn = relgreen.connectors(green)
    for sem, sub in ((z6, t03), (factories.zmod(3), t024)):
        with pytest.raises(InputError, match="^subsemigroup does not match"
                           " the Green data$"):
            present.word_problem_context(sem, sub, green=green, conn=conn)
    ctx = present.word_problem_context(z6, t024, green=green, conn=conn)
    assert ctx.letter_eval == {"t0": 0, "t2": 2, "t4": 4, "d1": 1}


def test_word_problem_context_builds_no_presentation(instances, monkeypatch):
    # counts the presentations built checked and those built unchecked
    built = _recording_unchecked(monkeypatch)
    real = present.Presentation.__post_init__

    def counting(self):
        built.append(self.alphabet)
        real(self)

    monkeypatch.setattr(present.Presentation, "__post_init__", counting)
    for _name, sem, sub, _a, _b in instances:
        green = relgreen.relative_green(sem, sub)
        ctx = present.word_problem_context(
            sem, sub, green=green, conn=relgreen.connectors(green))
        assert built == []
        _q, qa = present.sub_table_presentation(sem, sub)
        assert len(built) == 1
        built.clear()
        d_letters = [(f"d{i}", green.rep_of(i))
                     for i in range(1, green.class_count)]
        assert list(ctx.letter_eval.items()) == list(qa.items()) + d_letters


def _z6_mismatch(z6, t03):
    """The Green data and connectors of {0, 3} in Z6, and the connectors
    of {0, 2, 4}."""
    green = relgreen.relative_green(z6, t03)
    other = relgreen.connectors(relgreen.relative_green(z6, core.closure(z6, [2])))
    return green, relgreen.connectors(green), other


def test_build_schutz_packs_refuses_other_green_data(z6, t03):
    _green, _conn, other = _z6_mismatch(z6, t03)
    q_pres, q_assign = present.sub_table_presentation(z6, t03)
    with pytest.raises(InputError, match="^subsemigroup does not match"):
        present.build_schutz_packs(z6, t03, other.green, q_pres, q_assign)


def test_synthesize_presentation_refuses_other_connectors(z6, t03):
    green, _conn, other = _z6_mismatch(z6, t03)
    q_pres, q_assign = present.sub_table_presentation(z6, t03)
    packs = present.build_schutz_packs(z6, t03, green, q_pres, q_assign)
    with pytest.raises(InputError, match="^connector tables do not match"):
        present.synthesize_presentation(q_pres, q_assign, packs, green, other)


def test_word_problem_context_refuses_other_connectors(z6, t03):
    # with the connectors of {0, 2, 4}, d1 and d1 t3 were told apart as
    # "one word lands in T, the other outside", though neither lands in T
    green, conn, other = _z6_mismatch(z6, t03)
    with pytest.raises(InputError, match="^connector tables do not match"):
        present.word_problem_context(z6, t03, green=green, conn=other)
    ctx = present.word_problem_context(z6, t03, green=green, conn=conn)
    verdict = rewrite.word_equality_report(("d1",), ("d1", "t3"), ctx)
    assert verdict.branch == "both_outside"
