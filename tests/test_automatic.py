import hashlib
import json
import re
from dataclasses import replace
from functools import cached_property
from itertools import product

import pytest
from helpers import (
    accepts_pair,
    compose_relations,
    determinize,
    enumerate_words,
    fixed_instances,
    invalid_transfer_inputs,
    invert,
    is_empty,
    is_padding_valid,
    nonperm_ideal,
    project,
    random_pairs,
    reference_accepts,
    reference_determinize,
    reference_rewrite_pair,
    reference_transfer,
    reference_transfer_relation,
    reference_verify_structure_report,
    reference_words,
    relation_pairs,
    small_tables,
    transfer_relation,
    trim,
    tuple_pair_alphabet,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from greenindex import automatic as au
from greenindex import core, factories, relgreen, rewrite, schutz
from greenindex.errors import (
    AlphabetMismatch,
    BoundExceeded,
    InputError,
    NotGenerating,
    OutOfRange,
)


def words_upto(alphabet, max_len):
    for length in range(max_len + 1):
        yield from product(alphabet, repeat=length)


def test_convolution_cases():
    assert au.convolve("ab", "ab") == (("a", "a"), ("b", "b"))
    assert au.convolve("ab", "a") == (("a", "a"), ("b", "$"))
    assert au.convolve("a", "abb") == (("a", "a"), ("$", "b"), ("$", "b"))
    assert au.convolve("", "") == ()
    u, v = au.deconvolve((("a", "a"), ("b", "$")))
    assert u == ("a", "b") and v == ("a",)
    with pytest.raises(InputError):
        au.deconvolve((("$", "$"),))
    with pytest.raises(InputError):
        au.deconvolve((("$", "a"), ("b", "a")))


def test_nfa_from_words_and_enumeration():
    words = [("a",), ("a", "b"), ("b", "b", "a")]
    nfa = au.nfa_from_words(("a", "b"), words)
    for w in words_upto(("a", "b"), 4):
        assert nfa.accepts(w) == (w in set(words))
    assert enumerate_words(nfa, 4) == sorted(words, key=lambda w: (len(w), w))
    assert not is_empty(nfa)


def test_determinize_accepts_same_words_and_is_deterministic():
    words = au.nfa_from_words(("a", "b"), [("a", "b"), ("b",), ("a", "a", "b")])
    # a or b loops on 0, an epsilon into 1, and "a" from 1 to either 2 or 0
    trans = ((0, "a", 0), (0, "b", 0), (0, None, 1), (1, "a", 2),
             (1, "a", 0), (2, "b", 1))
    branching = au.nfa_from_json({
        "states": 3, "alphabet": ["a", "b"],
        "transitions": [list(t) for t in trans],
        "initial": [0], "accepting": [2]})
    for nfa in (words, branching):
        dfa = determinize(nfa)
        for w in words_upto(("a", "b"), 6):
            assert dfa.accepts(w) == nfa.accepts(w), w
        assert len(dfa.initial) == 1
        moves = [(src, sym) for src, sym, _dst in dfa.transitions]
        assert sorted(moves) == [(q, sym) for q in range(dfa.n_states)
                                 for sym in ("a", "b")]
    for w in words_upto(("a", "b"), 6):
        assert branching.accepts(w) == reference_accepts(trans, {0}, {2}, w)


def test_invert_is_involution():
    rel = au.PaddedRelationNfa.from_pairs(
        ("a",), ("b",), [(("a",), ("b", "b")), (("a", "a"), ())]
    )
    double = invert(invert(rel))
    assert sorted(relation_pairs(double, 6)) == sorted(relation_pairs(rel, 6))
    assert accepts_pair(invert(rel), ("b", "b"), ("a",))


def test_padding_validity():
    rel = au.PaddedRelationNfa.from_pairs(
        ("a",), ("b",), [(("a",), ("b", "b"))]
    )
    assert is_padding_valid(rel)
    bad = au.PaddedRelationNfa(
        left_alphabet=("a",),
        right_alphabet=("b",),
        nfa=au.nfa_from_words(
            au.PairAlphabet(("a",), ("b",)),
            [(("$", "b"), ("a", "b"))],  # left track resumes after padding
        ),
    )
    assert not is_padding_valid(bad)


def test_deconvolve_accepts_exactly_the_convolutions():
    # by its definition: a string is accepted exactly when it is
    # convolve(u, v) of some pair of words, and gives back that pair
    letters = ("a", "b")
    pairs = {au.convolve(u, v): (u, v) for u in words_upto(letters, 3)
             for v in words_upto(letters, 3)}
    assert len(pairs) == 15 * 15  # convolve is injective
    alpha = au.PairAlphabet(letters, letters)
    for s in words_upto(tuple(alpha), 3):
        if s in pairs:
            assert au.deconvolve(s) == pairs[s]
        else:
            with pytest.raises(InputError, match="is not a convolution"):
                au.deconvolve(s)


@pytest.mark.parametrize("alphabet, stray", [
    (("a",), "b"),
    (au.PairAlphabet(("a",), ("a",)), ("b", "a")),
    (("a",), "zz"),
])
def test_a_transition_symbol_outside_the_alphabet_is_refused(alphabet, stray):
    # listing a hand-built automaton used to end in a TypeError (a tuple
    # alphabet) or a bare ValueError (a pair alphabet); the reader refuses
    # the same automaton with the same message
    nfa = au.Nfa(alphabet=alphabet, n_states=3,
                 transitions=((0, next(iter(alphabet)), 1), (0, stray, 2)),
                 initial=frozenset({0}), accepting=frozenset({1, 2}))
    message = f"^transition uses unknown symbol {re.escape(repr(stray))}$"
    with pytest.raises(InputError, match=message):
        list(nfa.iter_words())
    with pytest.raises(InputError, match=message):
        au.nfa_from_json(au.nfa_to_json(nfa))


def _epsilon_parts(extra=(), accepting=(2,)):
    """Pairs (a^m, a^m b^k): epsilon moves 0 -> 1 -> 2, (a, a) loops on 1
    and ($, b) loops on 2, plus ``extra`` transitions."""
    trans = ((0, None, 1), (1, ("a", "a"), 1), (1, None, 2),
             (2, ("$", "b"), 2)) + tuple(extra)
    return trans, frozenset({0}), frozenset(accepting)


def _epsilon_relation(extra=(), accepting=(2,)):
    """The relation of :func:`_epsilon_parts`, read by ``nfa_from_json``,
    which removes its epsilon moves."""
    trans, initial, accepting = _epsilon_parts(extra, accepting)
    nfa = au.nfa_from_json({
        "states": 1 + max(max(s, d) for s, _sym, d in trans),
        "alphabet": [list(sym) for sym in au.PairAlphabet(("a",), ("a", "b"))],
        "transitions": [[s, sym and list(sym), d] for s, sym, d in trans],
        "initial": sorted(initial), "accepting": sorted(accepting)})
    return au.PaddedRelationNfa(("a",), ("a", "b"), nfa)


def test_padding_validity_with_epsilon_moves():
    rel = _epsilon_relation()
    assert is_padding_valid(rel)
    # ($, b) then an epsilon move, then the left track resumes with (a, $)
    resumes = ((2, None, 3), (3, ("a", "$"), 4))
    assert not is_padding_valid(_epsilon_relation(resumes, (2, 4)))
    # the same violating prefix is harmless when it cannot reach acceptance
    assert is_padding_valid(_epsilon_relation(resumes, (2,)))


def test_iter_words_with_epsilon_moves():
    resumes = ((2, None, 3), (3, ("a", "$"), 4))
    for args in ((), (resumes, (2, 4))):
        nfa = _epsilon_relation(*args).nfa
        want = [w for k in range(4) for w in product(nfa.alphabet, repeat=k)
                if reference_accepts(*_epsilon_parts(*args), w)]
        assert enumerate_words(nfa, 3) == want
    assert relation_pairs(_epsilon_relation(), 2) == [
        ((), ()), (("a",), ("a",)), ((), ("b",)),
        (("a", "a"), ("a", "a")), (("a",), ("a", "b")), ((), ("b", "b"))]


def test_epsilon_moves_are_refused():
    nfa = au.Nfa(alphabet=("a",), n_states=2,
                 transitions=((0, "a", 1), (1, None, 0)),
                 initial=frozenset({0}), accepting=frozenset({1}))
    start = frozenset({0})
    for op in (lambda: nfa.step(start, "a"), lambda: nfa.accepts(("a",)),
               lambda: is_empty(nfa), lambda: next(nfa.iter_words()),
               lambda: enumerate_words(nfa, 2), lambda: determinize(nfa)):
        with pytest.raises(InputError, match="epsilon"):
            op()
    pairs = au.PairAlphabet(("a",), ("a",))
    rel = au.PaddedRelationNfa(("a",), ("a",), au.Nfa(
        alphabet=pairs, n_states=2,
        transitions=((0, ("a", "a"), 1), (1, None, 0)),
        initial=frozenset({0}), accepting=frozenset({1})))
    fine = au.PaddedRelationNfa.from_pairs(("a",), ("a",), [(("a",), ("a",))])
    for op in (lambda: invert(rel), lambda: project(rel, 1),
               lambda: compose_relations(rel, fine),
               lambda: compose_relations(fine, rel)):
        with pytest.raises(InputError, match="epsilon"):
            op()


@st.composite
def epsilon_automata(draw):
    """Parts of a random automaton over {a, b} with epsilon moves (None)."""
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    trans = draw(st.lists(st.tuples(state, st.sampled_from([None, "a", "b"]),
                                    state), max_size=12))
    initial = draw(st.frozensets(state, max_size=2))
    accepting = draw(st.frozensets(state, max_size=3))
    return n, tuple(trans), initial, accepting


@settings(max_examples=200, deadline=None)
@given(epsilon_automata())
def test_reader_removes_epsilon_moves(parts):
    _n, trans, initial, accepting = parts
    # the reader refuses states that no id names
    ids = [q for s, _sym, d in trans for q in (s, d)] + [*initial, *accepting]
    nfa = au.nfa_from_json({
        "states": 1 + max(ids, default=-1), "alphabet": ["a", "b"],
        "transitions": [list(t) for t in trans],
        "initial": sorted(initial), "accepting": sorted(accepting)})
    assert all(sym is not None for _s, sym, _d in nfa.transitions)
    for w in words_upto(("a", "b"), 4):
        assert nfa.accepts(w) == reference_accepts(trans, initial,
                                                   accepting, w), w


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.text("ab", max_size=3), st.text("xy", max_size=3)),
                max_size=6))
def test_projected_convolutions_determinize_as_with_closures(pairs):
    # padding is trailing, so a state reached through a padded position of
    # the projected track has no letter moves: the DFA built from the
    # epsilon-free projection is the one built from closed subsets
    rel = au.PaddedRelationNfa.from_pairs(("a", "b"), ("x", "y"), pairs)
    for track in (1, 2):
        proj = project(rel, track)
        assert all(sym is not None for _s, sym, _d in proj.transitions)
        raw = tuple((s, None if sym[track - 1] == au.PAD else sym[track - 1], d)
                    for s, sym, d in rel.nfa.transitions)
        want = reference_determinize(proj.alphabet, raw, rel.nfa.initial,
                                     rel.nfa.accepting)
        assert au.nfa_to_json(determinize(proj)) == au.nfa_to_json(want)


def test_projection_tracks():
    rel = au.PaddedRelationNfa.from_pairs(
        ("a",), ("b",), [(("a",), ("b", "b")), (("a", "a", "a"), ("b",))]
    )
    left = project(rel, 1)
    right = project(rel, 2)
    assert set(enumerate_words(left, 5)) == {("a",), ("a", "a", "a")}
    assert set(enumerate_words(right, 5)) == {("b", "b"), ("b",)}


def brute_compose(r1, r2, max_len):
    p1, p2 = relation_pairs(r1, max_len), relation_pairs(r2, max_len)
    return sorted({(u, w) for u, v in p1 for v2, w in p2 if v == v2})


def test_compose_matches_brute_force_join(z6):
    st = au.structure_for_finite(z6, [1])
    rel = st.multipliers["a1"]
    ident = st.multipliers[""]
    comp = compose_relations(ident, rel)
    assert sorted(relation_pairs(comp, 7)) == sorted(relation_pairs(rel, 7))
    twice = compose_relations(rel, rel)
    assert sorted(relation_pairs(twice, 7)) == brute_compose(rel, rel, 8)
    inv = invert(rel)
    round_trip = compose_relations(rel, inv)
    for u, _v in relation_pairs(rel, 7):
        assert accepts_pair(round_trip, u, u)


def cyclic_structure(n, lengths):
    """The structure for Z_n with a1 -> 1 whose acceptor is a1^k for k in
    ``lengths``, each multiplier listed pair by pair; an element with
    several lengths has several acceptor words."""
    alpha = ("a1",)
    words = [("a1",) * k for k in lengths]

    def listed(shift):
        return au.PaddedRelationNfa.from_pairs(alpha, alpha, [
            (u, v) for u in words for v in words
            if (len(u) + shift - len(v)) % n == 0])

    return au.AutomaticStructure(
        alphabet=alpha, letter_eval={"a1": 1},
        acceptor=au.nfa_from_words(alpha, words),
        multipliers={"": listed(0), "a1": listed(1)})


def test_transfer_composes_through_long_silent_tails():
    # Z2 with a1 -> 1 and the acceptor {a1, a1^2, a1^3, a1^8}: composing the
    # transferred multipliers needs a silent tail of 5, which the default
    # delay bound |S| + 1 = 3 used to refuse
    z2 = factories.zmod(2)
    st = cyclic_structure(2, (1, 2, 3, 8))
    assert au.verify_structure_report(st, z2, 8) == (True, "ok")
    sub = core.SubSemigroup(parent=z2, members=frozenset({0}))
    green = relgreen.relative_green(z2, sub)
    res = au.transfer_details(st, sub, green, relgreen.connectors(green))
    assert au.verify_structure_report(res.structure, sub, 8) == (True, "ok")


def test_compose_long_middle_needs_delay():
    # the middle word b^5 outlives both outer words by a silent tail of 4
    r1 = au.PaddedRelationNfa.from_pairs(("a",), ("b",), [(("a",), ("b",) * 5)])
    r2 = au.PaddedRelationNfa.from_pairs(("b",), ("a",), [(("b",) * 5, ("a",))])
    composed = compose_relations(r1, r2)
    assert relation_pairs(composed, 4) == brute_compose(r1, r2, 5) == [(("a",), ("a",))]
    with pytest.raises(AlphabetMismatch):
        compose_relations(r1, r1)


def test_structure_for_trivial_semigroup():
    triv = factories.trivial()
    st = au.structure_for_finite(triv, [0])
    assert enumerate_words(st.acceptor, 3) == [("a0",)]
    assert relation_pairs(st.multipliers["a0"], 3) == [((("a0",), ("a0",)))]
    assert au.verify_structure_report(st, triv, 3) == (True, "ok")


def test_structure_for_z6(z6):
    st = au.structure_for_finite(z6, [1])
    words = enumerate_words(st.acceptor, 10)
    assert len(words) == 6
    assert sorted(len(w) for w in words) == [1, 2, 3, 4, 5, 6]
    assert len(relation_pairs(st.multipliers[""], 8)) == 6
    assert au.verify_structure_report(st, z6, 8) == (True, "ok")
    with pytest.raises(NotGenerating):
        au.structure_for_finite(z6, [2])


def test_verify_structure_detects_defects(z6, t03):
    st = au.structure_for_finite(z6, [1])
    # drop one multiplier pair
    pairs = relation_pairs(st.multipliers["a1"], 8)
    broken_rel = au.PaddedRelationNfa.from_pairs(
        st.alphabet, st.alphabet, pairs[:-1]
    )
    broken = au.AutomaticStructure(
        alphabet=st.alphabet,
        letter_eval=st.letter_eval,
        acceptor=st.acceptor,
        multipliers={**st.multipliers, "a1": broken_rel},
    )
    ok, reason = au.verify_structure_report(broken, z6, 8)
    assert not ok and "disagrees" in reason
    # drop one representative from the acceptor
    words = enumerate_words(st.acceptor, 10)
    small = au.AutomaticStructure(
        alphabet=st.alphabet,
        letter_eval=st.letter_eval,
        acceptor=au.nfa_from_words(st.alphabet, words[:-1]),
        multipliers=st.multipliers,
    )
    ok2, reason2 = au.verify_structure_report(small, z6, 8)
    assert not ok2 and "onto" in reason2
    # Z6's structure against T = {0, 3}
    assert au.verify_structure_report(st, t03, 6) == (
        False, "acceptor word ('a1',) evaluates outside the target")


def test_transfer_refuses_an_acceptor_with_a_loop(z6, t03):
    st = au.structure_for_finite(z6, [1])
    loop = au.Nfa(alphabet=st.alphabet, n_states=1,
                  transitions=((0, "a1", 0),), initial=frozenset({0}),
                  accepting=frozenset({0}))
    green = relgreen.relative_green(z6, t03)
    with pytest.raises(InputError, match="^word acceptor language is not"
                                         " finite$"):
        au.transfer_details(replace(st, acceptor=loop), t03, green,
                            relgreen.connectors(green))


def test_a_hand_built_nfa_is_refused_as_a_read_one_is():
    # an initial state of 7 of 2 used to list [] and a target of 5 raise a
    # bare IndexError; the constructor refuses every bad count or state id
    # with the message the reader gives
    parts = {"alphabet": ("a",), "n_states": 2,
             "transitions": ((0, "a", 1),), "initial": frozenset({0}),
             "accepting": frozenset({1})}
    for change, want in [
            ({"initial": {7}}, (OutOfRange, "initial state 7 not in [0, 2)")),
            ({"transitions": ((0, "a", 5),)},
             (OutOfRange, "transition target 5 not in [0, 2)")),
            ({"transitions": ((-1, "a", 1),)},
             (OutOfRange, "transition source -1 not in [0, 2)")),
            ({"accepting": {True}},
             (OutOfRange, "accepting state True not in [0, 2)")),
            ({"initial": {1.0}},
             (OutOfRange, "initial state 1.0 not in [0, 2)")),
            ({"n_states": 2.0},
             (InputError, "automaton 'states' must be an integer, not 2.0")),
            ({"n_states": -1},
             (InputError, "automaton 'states' must be nonnegative"))]:
        bad = {**parts, **change}
        assert _outcome(lambda: au.Nfa(**bad)) == want, change
        data = {"states": bad["n_states"], "alphabet": ["a"],
                "transitions": [list(t) for t in bad["transitions"]],
                "initial": list(bad["initial"]),
                "accepting": list(bad["accepting"])}
        assert _outcome(lambda: au.nfa_from_json(data)) == want, change
    # the state sets are stored as frozensets, however given
    nfa = au.Nfa(**{**parts, "initial": [0], "accepting": (1,)})
    assert nfa.initial == frozenset({0}) and nfa.accepting == frozenset({1})
    assert nfa == au.Nfa(**parts)


def transfer_setup(sem, sub, gens):
    green = relgreen.relative_green(sem, sub)
    conn = relgreen.connectors(green)
    st = au.structure_for_finite(sem, gens)
    return st, green, conn


def test_transfer_degenerate_whole_semigroup(z6):
    full = core.SubSemigroup(parent=z6, members=frozenset(range(6)))
    st, green, conn = transfer_setup(z6, full, [1])
    res = au.transfer_details(st, full, green, conn)
    assert res.letters.excluded == frozenset()
    m_words = enumerate_words(res.structure.acceptor, 10)
    l_words = enumerate_words(st.acceptor, 10)
    assert [len(w) for w in m_words] == [len(w) for w in l_words]
    assert au.verify_structure_report(res.structure, full, 7) == (True, "ok")


def test_transfer_z6(z6, t03):
    st, green, conn = transfer_setup(z6, t03, [1])
    res = au.transfer_details(st, t03, green, conn)
    assert au.verify_structure_report(res.structure, t03, 6) == (True, "ok")
    sem_vals = {
        res.structure.eval_word(z6, w)
        for w in enumerate_words(res.structure.acceptor, 8)
    }
    assert sem_vals == {0, 3}


def test_transfer_walks_the_acceptor_once(z6, t03, monkeypatch):
    # the evaluation of each acceptor word is read off the listed language,
    # not found by a second walk of the acceptor
    st, green, conn = transfer_setup(z6, t03, [1])
    walks = []
    real = au.Nfa.iter_words

    def counting(self, *args, **kwargs):
        walks.append(self is st.acceptor)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(au.Nfa, "iter_words", counting)
    au.transfer_details(st, t03, green, conn)
    assert walks.count(True) == 1


def test_transfer_names_the_language_bound(z6, t03, monkeypatch):
    # the acceptor has six words; the stop used to be an InputError
    st, green, conn = transfer_setup(z6, t03, [1])
    monkeypatch.setattr(au, "_LANGUAGE_BOUND", 5)
    with pytest.raises(BoundExceeded,
                       match="^word acceptor language exceeds the bound of 5"
                             " listed words$"):
        au.transfer_details(st, t03, green, conn)
    monkeypatch.setattr(au, "_LANGUAGE_BOUND", 6)
    assert au.transfer_details(st, t03, green, conn).structure.alphabet


def test_transfer_semilattice():
    z4, z2 = factories.zmod(4), factories.zmod(2)
    s, t = core.strong_semilattice(z4, z2, factories.mod_reduction(z4, z2))
    st, green, conn = transfer_setup(s, t, [1, 5])
    res = au.transfer_details(st, t, green, conn)
    assert au.verify_structure_report(res.structure, t, 6) == (True, "ok")


def test_transfer_with_excluded_letters():
    rz = factories.right_zero(2)
    sub = core.SubSemigroup(parent=rz, members=frozenset({0}))
    st, green, conn = transfer_setup(rz, sub, [0, 1])
    res = au.transfer_details(st, sub, green, conn)
    assert res.letters.excluded
    assert au.verify_structure_report(res.structure, sub, 5) == (True, "ok")


def test_transfer_relation_properties(z6, t03):
    st, green, conn = transfer_setup(z6, t03, [1])
    letters = au._transfer_letters(st, green, conn)
    rel = transfer_relation(st, green, conn, letters)
    max_len = 5
    pairs = relation_pairs(rel, max_len)
    # every pair has equal length, matching middle subscripts, and equal
    # evaluations inside the subsemigroup
    by_u = {}
    by_v = {}
    for u, v in pairs:
        assert len(u) == len(v)
        for a, b in zip(u, v):
            assert letters.info[b][1] == a
        val_u = z6.prod1(st.letter_eval[a] for a in u)
        val_v = z6.prod1(letters.evals[b] for b in v)
        assert val_u == val_v and val_u in t03.members
        by_u.setdefault(u, []).append(v)
        by_v.setdefault(v, []).append(u)
    # words into T have exactly one partner; partners are unique per side
    for u in words_upto(st.alphabet, max_len):
        if not u:
            continue
        val = z6.prod1(st.letter_eval[a] for a in u)
        expected = 1 if val in t03.members else 0
        assert len(by_u.get(u, [])) == expected
    for v, us in by_v.items():
        assert len(us) == 1


def test_full_relation_restricted_to_acceptor_matches(z6, t03):
    st, green, conn = transfer_setup(z6, t03, [1])
    res = au.transfer_details(st, t03, green, conn)
    l_words = set(enumerate_words(st.acceptor, 10))
    full = transfer_relation(st, green, conn, res.letters)
    full_on_l = sorted((u, v) for u, v in relation_pairs(full, 8) if u in l_words)
    assert full_on_l == sorted(relation_pairs(res.restricted_relation, 8))


@pytest.fixture(scope="module")
def t3_transfer():
    """T3 over its ideal of non-permutations (Green index 7), transferred
    from the structure on three generators."""
    t3 = factories.full_transformation_monoid(3)
    ideal = core.SubSemigroup(
        parent=t3,
        members=frozenset(i for i, m in enumerate(t3.names) if len(set(m)) < 3),
    )
    gens = [t3.names.index(m) for m in ("021", "102", "122")]
    st, green, conn = transfer_setup(t3, ideal, gens)
    return st, ideal, green, au.transfer_details(st, ideal, green, conn)


def test_transfer_t3_ideal(t3_transfer):
    _st, ideal, green, res = t3_transfer
    assert green.green_index == 7
    assert len(res.letters.names) == 7 * 3 * 7
    assert au.verify_structure_report(res.structure, ideal, 3) == (True, "ok")
    # letters with one evaluation share one multiplier
    mults = res.structure.multipliers
    evals = res.structure.letter_eval
    assert len({id(m) for m in mults.values()}) == 1 + len(set(evals.values()))
    for a in res.structure.alphabet:
        for b in res.structure.alphabet:
            assert (mults[a] is mults[b]) == (evals[a] == evals[b])


def test_transfer_t4_ideal_is_pinned():
    # T4 over its ideal of non-permutations from five letters named by
    # hand: the identity, three transpositions and one rank-3 map;
    # composing the reference takes tens of seconds, so the output is
    # pinned by the digests test_library_golden uses (sha256 of the
    # sorted-key JSON)
    def digest(obj):
        return hashlib.sha256(
            json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()

    t4, ideal = nonperm_ideal(4)
    gens = [t4.names.index(name)
            for name in ("0123", "0132", "0213", "1023", "0012")]
    st, green, conn = transfer_setup(t4, ideal, gens)
    res = au.transfer_details(st, ideal, green, conn)
    assert digest(au.structure_to_json(res.structure)) == (
        "e376d488d855abeb3fb2d11fa366927d4ac360021d58e19ebaae8000ec689674")
    assert digest(au.nfa_to_json(res.restricted_relation.nfa)) == (
        "d4bacfc0cf50c711df7efcb5fc33a09fc55dd6e954449789a52057d57e5b4711")
    mults = res.structure.multipliers
    assert len(res.structure.alphabet) == 144
    assert len({id(m) for m in mults.values()}) == 145
    assert au.verify_structure_report(res.structure, ideal, 3) == (True, "ok")


def test_shared_multiplier_is_composed_from_first_word(t3_transfer):
    st, _ideal, green, res = t3_transfer
    sem = green.sem
    restricted = res.restricted_relation
    inv = invert(restricted)
    longest = max(map(len, au._finite_language(res.structure.acceptor)))
    for b in res.structure.alphabet:
        target = res.structure.letter_eval[b]
        w = next(c for c in st.acceptor.iter_words()
                 if st.eval_word(sem, c) == target)
        rel = st.multipliers[w[0]]
        for a in w[1:]:
            rel = compose_relations(rel, st.multipliers[a])
        want = compose_relations(
            inv, compose_relations(rel, restricted))
        got = res.structure.multipliers[b]
        assert sorted(relation_pairs(got, longest)) == \
            sorted(relation_pairs(want, longest)), b


def useful_states(nfa):
    """States reachable from an initial state and reaching an accepting one,
    found by walking the transitions both ways."""
    def reach(start, edges):
        seen, todo = set(start), list(start)
        while todo:
            q = todo.pop()
            for nxt in edges.get(q, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    fwd, back = {}, {}
    for s, _sym, d in nfa.transitions:
        fwd.setdefault(s, []).append(d)
        back.setdefault(d, []).append(s)
    return reach(nfa.initial, fwd) & reach(nfa.accepting, back)


def is_trim(nfa):
    return useful_states(nfa) == set(range(nfa.n_states))


@st.composite
def letter_automata(draw):
    """A random automaton over {a, b} without epsilon moves."""
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    trans = draw(st.lists(st.tuples(state, st.sampled_from(["a", "b"]), state),
                          max_size=14, unique=True))
    return au.Nfa(alphabet=("a", "b"), n_states=n, transitions=tuple(trans),
                  initial=draw(st.frozensets(state, max_size=2)),
                  accepting=draw(st.frozensets(state, max_size=3)))


@settings(max_examples=200, deadline=None)
@given(letter_automata())
def test_trim_keeps_the_useful_states_in_order(nfa):
    trimmed = trim(nfa)
    for w in words_upto(("a", "b"), 4):
        assert trimmed.accepts(w) == reference_accepts(
            nfa.transitions, nfa.initial, nfa.accepting, w), w
    assert is_trim(trimmed)
    # state k of the trimmed automaton is the k-th useful state
    old = sorted(useful_states(nfa))
    assert trimmed.n_states == len(old)
    assert [(old[s], sym, old[d]) for s, sym, d in trimmed.transitions] == [
        (s, sym, d) for s, sym, d in nfa.transitions if s in old and d in old]
    assert {old[q] for q in trimmed.initial} == nfa.initial & set(old)
    assert {old[q] for q in trimmed.accepting} == nfa.accepting & set(old)
    assert trim(trimmed) == trimmed


def test_transfers_of_random_pairs_write_small_structures():
    # pairs 17 and 23 kept 507 and 1344 letters, and writing their
    # structures ran out of memory under a 1.5 GB cap; a transfer keeps only
    # the letters of its transferred words
    for sem, sub in random_pairs(25):
        struct, green, conn = transfer_setup(
            sem, sub, schutz.find_generating_set(sem))
        res = au.transfer_details(struct, sub, green, conn).structure
        assert len(json.dumps(au.structure_to_json(res))) < 1 << 20
        words = au._finite_language(res.acceptor)
        assert {b for w in words for b in w} == set(res.alphabet)
        longest = max(map(len, words))
        assert au.verify_structure_report(res, sub, longest) == (True, "ok")


def _join_cases():
    """(S, T, structure for S): ``structure_for_finite`` for T3 over its
    ideal from the benchmark's sets and from ``find_generating_set``, the
    fixed instances from their CLI golden generators, ``random_pairs(25)``
    from ``find_generating_set``, and S4 over <(12)>; then acceptors with
    several words per element: Z2 over {0} from a1, a1^2, a1^3, a1^8, and
    Z6 over {0, 3} and {0, 2, 4} from a1^1 to a1^12."""
    def finite(sem, sub, gens):
        return sem, sub, au.structure_for_finite(sem, gens)

    t3, ideal = nonperm_ideal(3)
    for names in BENCH_T3_SETS:
        yield finite(t3, ideal, [t3.names.index(m) for m in names])
    yield finite(t3, ideal, schutz.find_generating_set(t3))
    for _n, sem, sub, a_gens, _b in fixed_instances():
        yield finite(sem, sub, a_gens)
    for sem, sub in random_pairs(25):
        yield finite(sem, sub, schutz.find_generating_set(sem))
    s4 = factories.symmetric_group(4)
    yield finite(s4, core.closure(s4, [s4.names.index("1023")]), [0, 1, 2, 6])
    z2 = factories.zmod(2)
    yield (z2, core.SubSemigroup(parent=z2, members=frozenset({0})),
           cyclic_structure(2, (1, 2, 3, 8)))
    z6 = factories.zmod(6)
    for members in ({0, 3}, {0, 2, 4}):
        yield (z6, core.SubSemigroup(parent=z6, members=frozenset(members)),
               cyclic_structure(6, range(1, 13)))


def test_transfer_joins_as_the_reference_composes():
    cases = 0
    for sem, sub, struct in _join_cases():
        green = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(green)
        got = au.transfer_details(struct, sub, green, conn).structure
        want = reference_transfer(struct, green, conn)
        assert got.alphabet == want.alphabet
        assert got.letter_eval == want.letter_eval
        words = au._finite_language(got.acceptor)
        assert words == au._finite_language(want.acceptor)
        longest = max(map(len, words))
        for key, rel in want.multipliers.items():
            assert sorted(relation_pairs(got.multipliers[key], longest)) == \
                sorted(relation_pairs(rel, longest)), key
        cases += 1
    assert cases == 3 + 1 + 4 + 25 + 1 + 3


@pytest.mark.parametrize("case", sorted(invalid_transfer_inputs()))
def test_transfer_refuses_a_structure_that_does_not_verify(z6, t03, case):
    # each of these used to transfer without complaint, and the dropped
    # pair gave a transferred structure that does not verify
    bad, message = invalid_transfer_inputs()[case]
    green = relgreen.relative_green(z6, t03)
    with pytest.raises(InputError) as info:
        au.transfer_details(bad, t03, green, relgreen.connectors(green))
    assert str(info.value) == message


def _t3_ideal_setups():
    t3 = factories.full_transformation_monoid(3)
    ideal = core.SubSemigroup(
        parent=t3,
        members=frozenset(i for i, m in enumerate(t3.names) if len(set(m)) < 3),
    )
    for names in (("021", "102", "122"), ("120", "102", "011", "112")):
        gens = [t3.names.index(m) for m in names]
        yield ideal, transfer_setup(t3, ideal, gens)


def test_transfer_relation_matches_fixed_point():
    cases = [(sub, transfer_setup(sem, sub, list(a_gens)))
             for _n, sem, sub, a_gens, _b in fixed_instances()]
    cases += list(_t3_ideal_setups())
    for sub, (st, green, conn) in cases:
        letters = au._transfer_letters(st, green, conn)
        want = reference_transfer_relation(st, green, conn, letters)
        got = transfer_relation(st, green, conn, letters)
        assert au.nfa_to_json(got.nfa) == au.nfa_to_json(want.nfa)


BENCH_T3_SETS = (
    ("021", "102", "122"),
    ("021", "112", "210", "220"),
    ("001", "021", "120", "200", "212"),
)


def _rewrite_cases():
    """(structure, Green data, connectors): each fixed instance from its
    listed generators and from ``find_generating_set``, and T3 over its
    ideal from the benchmark's generating sets and ``find_generating_set``."""
    for _n, sem, sub, a_gens, _b in fixed_instances():
        for gens in (a_gens, schutz.find_generating_set(sem)):
            yield transfer_setup(sem, sub, list(gens))
    t3 = factories.full_transformation_monoid(3)
    ideal = core.SubSemigroup(
        parent=t3,
        members=frozenset(i for i, m in enumerate(t3.names) if len(set(m)) < 3),
    )
    for names in BENCH_T3_SETS:
        yield transfer_setup(t3, ideal, [t3.names.index(m) for m in names])
    yield transfer_setup(t3, ideal, list(schutz.find_generating_set(t3)))


def _small_case(n, pick, data):
    """A drawn table of order n, a drawn subsemigroup, and the structure
    from ``find_generating_set`` plus drawn elements."""
    tables = small_tables(n)
    sem = core.validate_table(tables[pick % len(tables)])
    elems = st.integers(0, n - 1)
    sub = core.closure(sem, data.draw(st.lists(elems, min_size=1, max_size=2)))
    extra = data.draw(st.lists(elems, max_size=2))
    gens = sorted(set(schutz.find_generating_set(sem)) | set(extra))
    return transfer_setup(sem, sub, gens)


def _assert_rewrite_pairs_match_chains(struct, green, conn):
    letters = au._transfer_letters(struct, green, conn)
    words = au._finite_language(struct.acceptor)
    for u in words:
        value = struct.eval_word(green.sem, u)
        assert au._rewrite_pair(struct, conn, u, value) == \
            reference_rewrite_pair(struct, green, conn, letters, u), u
    return len(words)


def _assert_schreier_generators_are_letter_values(struct, green, conn):
    letters = au._transfer_letters(struct, green, conn)
    gens = [struct.letter_eval[a] for a in struct.alphabet]
    bset, _ = rewrite.schreier_generators(
        green.sem, gens, green.sub, green, conn)
    n = green.sem.order
    assert bset == {v for v in letters.evals.values() if v != n}


def test_rewrite_pair_matches_chain_reference():
    words = sum(_assert_rewrite_pairs_match_chains(*case)
                for case in _rewrite_cases())
    assert words == 150


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 9), st.data())
def test_rewrite_pair_matches_chain_reference_on_small_tables(n, pick, data):
    _assert_rewrite_pairs_match_chains(*_small_case(n, pick, data))


def test_schreier_generators_are_the_transferred_letter_values():
    for case in _rewrite_cases():
        _assert_schreier_generators_are_letter_values(*case)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 9), st.data())
def test_schreier_generators_are_the_letter_values_on_small_tables(
        n, pick, data):
    _assert_schreier_generators_are_letter_values(*_small_case(n, pick, data))


def test_letters_evaluating_outside_s_are_refused(z6, t03):
    struct, green, conn = transfer_setup(z6, t03, [1])
    for value in (-1, 6, 99):
        bad = replace(struct, letter_eval={"a1": value})
        with pytest.raises(OutOfRange, match="letter_eval entry"):
            au.transfer_details(bad, t03, green, conn)
        for target in (z6, t03):
            with pytest.raises(OutOfRange, match="letter_eval entry"):
                au.verify_structure_report(bad, target, 6)


def test_transfer_details_refuses_other_connectors(z6, t03):
    st, green, _conn = transfer_setup(z6, t03, [1])
    other = relgreen.connectors(relgreen.relative_green(z6, core.closure(z6, [2])))
    with pytest.raises(InputError, match="^connector tables do not match"):
        au.transfer_details(st, t03, green, other)


def test_structure_needs_every_letter_and_no_other(z6):
    st = au.structure_for_finite(z6, [1])
    no_mult = {k: v for k, v in st.multipliers.items() if k != "a1"}
    for fields in ({"letter_eval": {}},
                   {"letter_eval": {**st.letter_eval, "a2": 2}},
                   {"multipliers": no_mult},
                   {"multipliers": {k: v for k, v in st.multipliers.items() if k}},
                   {"multipliers": {**st.multipliers, "a2": st.multipliers["a1"]}}):
        with pytest.raises(InputError):
            replace(st, **fields)


def test_verify_names_a_max_len_that_is_too_small(z6):
    st = au.structure_for_finite(z6, [1])  # the longest word is a1^6
    assert au.verify_structure_report(st, z6, 6) == (True, "ok")
    with pytest.raises(BoundExceeded, match="max_len 5"):
        au.verify_structure_report(st, z6, 5)
    with pytest.raises(InputError):
        au.verify_structure_report(st, z6, -1)
    # a language within the bound that misses an element is still refuted
    words = enumerate_words(st.acceptor, 6)
    small = replace(st, acceptor=au.nfa_from_words(st.alphabet, words[:-1]))
    ok, reason = au.verify_structure_report(small, z6, 5)
    assert not ok and "onto" in reason


@pytest.mark.parametrize("case", sorted(invalid_transfer_inputs()))
def test_verify_agrees_with_transfer_on_invalid_inputs(z6, case):
    # "longer" used to verify as ok: its strays are longer than max_len
    bad, message = invalid_transfer_inputs()[case]
    reason = message.removeprefix("structure does not verify against S: ")
    assert reason != message
    assert au.verify_structure_report(bad, z6, 6) == (False, reason)


def test_verify_never_says_ok_past_max_len(z6):
    # both used to verify as ok at max_len 6
    st = au.structure_for_finite(z6, [1])
    acc = st.acceptor
    states = [acc.initial]
    for _ in range(6):
        states.append(acc.step(states[-1], "a1"))
    (q1,), (q6,) = states[1], states[6]
    looped = replace(st, acceptor=replace(
        acc, transitions=acc.transitions + ((q6, "a1", q1),)))
    seven = ("a1",) * 7
    longer = replace(st, acceptor=au.nfa_from_words(
        st.alphabet, enumerate_words(acc, 6) + [seven]))
    for max_len in (6, 7, 8):
        with pytest.raises(BoundExceeded, match=f"max_len {max_len}$"):
            au.verify_structure_report(looped, z6, max_len)
    with pytest.raises(BoundExceeded, match="max_len 6$"):
        au.verify_structure_report(longer, z6, 6)
    # with a1^7 within max_len the verdict is exact: "" misses (a1, a1^7)
    for max_len in (7, 8):
        assert au.verify_structure_report(longer, z6, max_len) == (
            False, f"multiplier '' disagrees on pair (('a1',), {seven}):"
                   " semantic=True accepted=False")


def test_transferred_multipliers_are_padding_valid(t3_transfer):
    res = t3_transfer[-1]
    for rel in res.structure.multipliers.values():
        assert is_padding_valid(rel)


def test_transfer_structure_round_trip_json(z6, t03, t3_transfer):
    st, green, conn = transfer_setup(z6, t03, [1])
    res = au.transfer_details(st, t03, green, conn)
    data = au.structure_to_json(res.structure)
    again = au.structure_from_json(data)
    assert set(again.alphabet) == set(res.structure.alphabet)
    assert au.verify_structure_report(again, t03, 6) == (True, "ok")
    _st, ideal, _green, res3 = t3_transfer
    text = json.dumps(au.structure_to_json(res3.structure))
    again3 = au.structure_from_json(json.loads(text))
    assert again3.alphabet == res3.structure.alphabet
    assert au.verify_structure_report(again3, ideal, 3) == (True, "ok")


def test_loaded_structure_shares_equal_multipliers(t3_transfer, monkeypatch):
    _st, ideal, _green, res = t3_transfer
    text = json.dumps(au.structure_to_json(res.structure))
    loaded = au.structure_from_json(json.loads(text))
    mults = loaded.multipliers
    # one relation per distinct multiplier JSON, as in the transferred copy
    assert len({id(m) for m in mults.values()}) == 19 == len(
        {id(m) for m in res.structure.multipliers.values()})
    as_json = {key: au.nfa_to_json(rel.nfa) for key, rel in mults.items()}
    for a in mults:
        for b in mults:
            assert (mults[a] is mults[b]) == (as_json[a] == as_json[b])
    assert json.dumps(au.structure_to_json(loaded)) == text
    listed = []
    real = au._listed

    def counted(nfa, *args):
        listed.append(id(nfa))
        return real(nfa, *args)

    monkeypatch.setattr(au, "_listed", counted)
    assert au.verify_structure_report(loaded, ideal, 3) == (True, "ok")
    assert len(listed) == 1 + 19  # the acceptor, then each multiplier


def broken_variants(st, key, max_len):
    """Copies of a structure whose multiplier ``key`` drops two pairs, gains
    two wrong pairs, gains a pair outside the acceptor, accepts a malformed
    string, or both drops a pair and accepts a malformed string."""
    alpha = st.alphabet
    pairs = relation_pairs(st.multipliers[key], max_len)
    words = enumerate_words(st.acceptor, max_len)
    wrong = [(u, v) for u in words for v in words if (u, v) not in set(pairs)]
    outside = next(w for w in words_upto(alpha, max_len)
                   if w and w not in set(words))
    malformed = ((au.PAD, alpha[0]), (alpha[0], alpha[0]))
    strings = {
        "dropped": [au.convolve(u, v) for u, v in pairs[1:-1]],
        "extra": [au.convolve(u, v) for u, v in pairs + wrong[::len(wrong) - 1]],
        "outside": [au.convolve(u, v) for u, v in pairs + [(outside, words[0])]],
        "malformed": [au.convolve(u, v) for u, v in pairs] + [malformed],
        "dropped_malformed": [au.convolve(u, v) for u, v in pairs[1:]]
        + [malformed],
    }
    out = {}
    for name, accepted in strings.items():
        nfa = au.nfa_from_words(au.PairAlphabet(alpha, alpha), accepted)
        rel = au.PaddedRelationNfa(alpha, alpha, nfa)
        out[name] = replace(st, multipliers={**st.multipliers, key: rel})
    return out


def test_verifier_matches_double_loop_reference(z6, t03, t3_transfer):
    st_z6 = au.structure_for_finite(z6, [1])
    st, green, conn = transfer_setup(z6, t03, [1])
    tr_z6 = au.transfer_details(st, t03, green, conn).structure
    _st, ideal, _green, res3 = t3_transfer
    cases = [(st_z6, z6, 8), (tr_z6, t03, 6), (res3.structure, ideal, 3)]
    for structure, target, max_len in cases:
        assert au.verify_structure_report(structure, target, max_len) == \
            reference_verify_structure_report(structure, target, max_len) == \
            (True, "ok")
        keys = sorted(structure.multipliers)
        for key in (keys[0], keys[-1]):
            variants = broken_variants(structure, key, max_len)
            for name, broken in variants.items():
                got = au.verify_structure_report(broken, target, max_len)
                want = reference_verify_structure_report(broken, target, max_len)
                assert got == want, (key, name)
                assert not got[0] and repr(key) in got[1], (key, name)


track_letters = st.lists(
    st.sampled_from(["a", "b", "c", "a1", "b0_a1_2", "$$"]),
    unique=True, max_size=4,
)


@settings(max_examples=80, deadline=None)
@given(track_letters, track_letters)
def test_pair_alphabet_matches_listed_symbols(left, right):
    alpha = au.PairAlphabet(left, right)
    listed = tuple_pair_alphabet(left, right)
    assert tuple(alpha) == listed
    assert len(alpha) == len(listed)
    for i, sym in enumerate(listed):
        assert alpha.rank(sym) == i
    names = left + right + [au.PAD, "zz"]
    probes = [(x, y) for x in names for y in names]
    probes += [(au.PAD,), ("a",), ("a", "a", "a"), "aa", ["a", "a"], None,
               (["a"], "a")]
    for probe in probes:
        assert (probe in alpha) == (probe in listed), probe
        if probe not in listed:
            with pytest.raises(ValueError):
                alpha.rank(probe)


def test_pair_alphabet_rejects_ambiguous_tracks():
    with pytest.raises(InputError):
        au.PairAlphabet(("a", au.PAD), ("b",))
    with pytest.raises(InputError):
        au.PairAlphabet(("a",), ("b", "b"))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from("ab"), max_size=8),
    st.lists(st.sampled_from("ab"), max_size=8),
)
def test_convolution_round_trip(u, v):
    u, v = tuple(u), tuple(v)
    s = au.convolve(u, v)
    assert len(s) == max(len(u), len(v))
    assert au.deconvolve(s) == (u, v)


def test_multiplier_projections_fall_inside_acceptor(z6):
    st_z6 = au.structure_for_finite(z6, [1])
    l_words = set(enumerate_words(st_z6.acceptor, 8))
    for key, rel in st_z6.multipliers.items():
        for track in (1, 2):
            proj = project(rel, track)
            assert set(enumerate_words(proj, 8)) <= l_words


def test_padding_validity_preserved_by_operations(z6):
    st_z6 = au.structure_for_finite(z6, [1])
    rel = st_z6.multipliers["a1"]
    assert is_padding_valid(rel)
    assert is_padding_valid(invert(rel))
    composed = compose_relations(rel, invert(rel))
    assert is_padding_valid(composed)


def test_reader_refuses_states_that_no_id_names(z6):
    # 10**9 declared states used to allocate a transition map each and run
    # out of memory
    data = au.nfa_to_json(au.structure_for_finite(z6, [1]).acceptor)
    assert au.nfa_from_json(data).n_states == data["states"] == 7
    for n in (8, 10 ** 9):
        with pytest.raises(InputError, match=f"^automaton 'states' {n} is"
                                             " more than the 7 its state ids"
                                             " use$"):
            au.nfa_from_json({**data, "states": n})
    empty = {"states": 1, "alphabet": [], "transitions": [], "initial": [],
             "accepting": []}
    with pytest.raises(InputError, match="'states' 1 is more than the 0"):
        au.nfa_from_json(empty)
    assert is_empty(au.nfa_from_json({**empty, "states": 0}))


def test_nfa_json_round_trip(z6):
    st = au.structure_for_finite(z6, [1])
    data = au.nfa_to_json(st.multipliers["a1"].nfa)
    again = au.nfa_from_json(data)
    for w in enumerate_words(st.multipliers["a1"].nfa, 7):
        assert again.accepts(w)
    with pytest.raises(InputError):
        au.nfa_from_json({"states": 1})
    # refused, not converted: every failure is an InputError
    bad = [("states", data["states"] + 0.7), ("states", True), ("states", -1), ("states", "7"),
           ("initial", ["0"]), ("initial", [True]), ("initial", 0),
           ("accepting", [-1]), ("accepting", [data["states"]]),
           ("alphabet", [1]), ("alphabet", [["a1"]]), ("alphabet", "a1"),
           ("transitions", {}), ("transitions", [[0, ["a1", "a1"]]]),
           ("transitions", [[0, ["a1", "a1"], 0.0]]),
           ("transitions", [[0, ["a1", 1], 1]])]
    for key, value in bad:
        with pytest.raises(InputError):
            au.nfa_from_json({**data, key: value})
    for value in ([], None, "x"):
        with pytest.raises(InputError):
            au.nfa_from_json(value)


def _derived(nfa):
    """The same automaton with nothing stated: its facts come from its
    transitions."""
    return au.Nfa(alphabet=nfa.alphabet, n_states=nfa.n_states,
                  transitions=nfa.transitions, initial=nfa.initial,
                  accepting=nfa.accepting)


def _library_tries(struct, res):
    """Tries the library builds, by name: those of the structure ``struct``
    and of its transfer ``res``, and tries built directly over tuple and
    pair alphabets."""
    out = {"restricted": res.restricted_relation.nfa}
    for name, s in (("S", struct), ("T", res.structure)):
        out[f"{name} acceptor"] = s.acceptor
        for key, rel in s.multipliers.items():
            out[f"{name} multiplier {key!r}"] = rel.nfa
    out["words"] = au.nfa_from_words((2, 1, 0), [(0, 1), (2,), (1, 1, 0), ()])
    out["pairs"] = au.PaddedRelationNfa.from_pairs(
        ("b", "a"), ("y", "x"),
        [(("a", "b"), ("x",)), ((), ("y", "y")), (("b",), ("x", "y"))]).nfa
    return out


def test_tries_state_the_facts_their_transitions_give(t3_transfer):
    struct, _ideal, _green, res = t3_transfer
    for name, nfa in _library_tries(struct, res).items():
        derived = _derived(nfa)
        assert nfa._coaccessible == derived._coaccessible, name
        # one target per symbol, as a one-tuple
        assert all(len(dsts) == 1 for edges in nfa._outgoing
                   for dsts in edges.values()), name
        assert [{sym: set(dsts) for sym, dsts in edges.items()}
                for edges in nfa._outgoing] == derived._outgoing, name
        assert enumerate_words(nfa, 12) == enumerate_words(derived, 12), name
        assert nfa._word_count == len(enumerate_words(nfa, 12)), name
    fresh = au.nfa_from_words(("a", "b"), [("a", "b"), ("b",)])
    assert {"_outgoing", "_coaccessible"} <= set(vars(fresh))


def test_listing_a_transfer_derives_no_trie_facts(monkeypatch):
    # the tries state their useful states and out-edges when built, so no
    # reverse search or transition scan runs on any of them; they state
    # their word counts too, so every multiplier is certified by walk and
    # count, and only the two acceptors are listed
    derived = []
    for name in ("_coaccessible", "_outgoing"):
        real = getattr(au.Nfa, name).func

        def counting(self, real=real, name=name):
            derived.append(name)
            return real(self)

        prop = cached_property(counting)
        prop.__set_name__(au.Nfa, name)
        monkeypatch.setattr(au.Nfa, name, prop)
    listed = []
    real_iter = au.Nfa.iter_words

    def counting_iter(self):
        listed.append(self)
        return real_iter(self)

    monkeypatch.setattr(au.Nfa, "iter_words", counting_iter)
    t3, ideal = nonperm_ideal(3)
    gens = [t3.names.index(m) for m in BENCH_T3_SETS[0]]
    struct, green, conn = transfer_setup(t3, ideal, gens)
    res = au.transfer_details(struct, ideal, green, conn)
    assert au.verify_structure_report(res.structure, ideal, 3) == (True, "ok")
    assert listed == [struct.acceptor, res.structure.acceptor]
    assert derived == []


def _altered_multipliers(struct):
    """(key, alteration, structure): the structure with multiplier ``key``
    rebuilt by ``from_pairs`` from its pairs with one dropped, with a pair
    whose left word is outside the acceptor added, with a pair longer than
    the longest acceptor word added, with the last pair's right word
    redirected, or with a semantically wrong pair added."""
    alpha = struct.alphabet
    words = au._finite_language(struct.acceptor)
    longest = len(words[-1])
    outside = next(w for w in words_upto(alpha, longest)
                   if w and w not in set(words))
    for key, rel in sorted(struct.multipliers.items()):
        pairs = relation_pairs(rel, longest)
        u, v = pairs[-1]
        wrong = next((x, y) for x in words for y in words
                     if (x, y) not in set(pairs))
        alterations = {
            "dropped": pairs[1:],
            "outside": pairs + [(outside, words[0])],
            "long": pairs + [((alpha[0],) * (longest + 1), words[0])],
            "redirected": pairs[:-1] + [(u, next(w for w in words if w != v))],
            "wrong": pairs + [wrong],
        }
        for name, altered in alterations.items():
            rel = au.PaddedRelationNfa.from_pairs(alpha, alpha, altered)
            yield key, name, replace(
                struct, multipliers={**struct.multipliers, key: rel})


def _listed_only(struct):
    """The structure with every multiplier's automaton stating nothing, so
    that the comparison lists each one."""
    return replace(struct, multipliers={
        key: replace(rel, nfa=_derived(rel.nfa))
        for key, rel in struct.multipliers.items()})


def _outcome(call):
    try:
        return call()
    except (BoundExceeded, InputError) as exc:
        return type(exc), str(exc)


def _bench_t3_structures():
    """T3, its ideal, their Green data and connectors, and for each bench
    generating set the structure for T3 and its transfer to the ideal."""
    t3, ideal = nonperm_ideal(3)
    green = relgreen.relative_green(t3, ideal)
    conn = relgreen.connectors(green)
    out = []
    for names in BENCH_T3_SETS:
        st = au.structure_for_finite(t3, [t3.names.index(m) for m in names])
        out.append((st, au.transfer_details(st, ideal, green, conn).structure))
    return t3, ideal, green, conn, out


def test_bench_structures_construct_without_scanning_a_symbol(monkeypatch):
    # the builders give every automaton the letters or their PairAlphabet,
    # so the constructor compares tracks and scans no symbol; a scan, made
    # here, finds every symbol over the letters
    def no_scan(*args):
        raise AssertionError("a bench structure's symbols were scanned")

    monkeypatch.setattr(au, "_check_symbols", no_scan)
    structures = [replace(struct) for pair in _bench_t3_structures()[-1]
                  for struct in pair]
    monkeypatch.undo()
    assert len(structures) == 2 * len(BENCH_T3_SETS)
    for struct in structures:
        au._check_symbols(struct.acceptor.alphabet, struct.alphabet, "acceptor")
        pairs = au.PairAlphabet(struct.alphabet, struct.alphabet)
        for rel in struct.multipliers.values():
            au._check_symbols(rel.nfa.alphabet, pairs, "multiplier")


def test_certified_multipliers_fail_as_listed_ones_do():
    # a multiplier certified by walk and count, or refused by the listing
    # it then falls back to, gets the verdict and message of the reference
    # and of a listing of every multiplier
    t3, ideal, green, conn, structures = _bench_t3_structures()
    cases = 0
    for st, tr in structures:
        for struct, target in ((st, t3), (tr, ideal)):
            max_len = len(au._finite_language(struct.acceptor)[-1]) + 1
            for key, name, bad in _altered_multipliers(struct):
                got = au.verify_structure_report(bad, target, max_len)
                want = reference_verify_structure_report(bad, target, max_len)
                assert not got[0] and got == want, (key, name)
                assert au.verify_structure_report(
                    _listed_only(bad), target, max_len) == got, (key, name)
                cases += 1
                if struct is not st:
                    continue
                refusal = (InputError,
                           f"structure does not verify against S: {got[1]}")
                for variant in (bad, _listed_only(bad)):
                    assert _outcome(lambda: au.transfer_details(
                        variant, ideal, green, conn)) == refusal, (key, name)
                cases += 1
    assert cases == 5 * (2 * (4 + 5 + 6) + 19 + 19 + 13)


def test_a_multiplier_past_the_language_bound_is_named(monkeypatch):
    # a trie with more words than the bound is not certified: its listing
    # names it in the BoundExceeded a listing of every multiplier raises
    t3, ideal, green, conn, structures = _bench_t3_structures()
    st, tr = structures[0]
    for struct, target in ((st, t3), (tr, ideal)):
        words = au._finite_language(struct.acceptor)
        monkeypatch.setattr(au, "_LANGUAGE_BOUND", len(words))
        max_len = len(words[-1])
        for key, name, bad in _altered_multipliers(struct):
            if name != "wrong":
                continue
            assert bad.multipliers[key].nfa._word_count > len(words)
            want = (BoundExceeded, f"multiplier {key!r} language exceeds the"
                    f" bound of {len(words)} listed words")
            for variant in (bad, _listed_only(bad)):
                assert _outcome(lambda: au.verify_structure_report(
                    variant, target, max_len)) == want, key
                if struct is st:
                    assert _outcome(lambda: au.transfer_details(
                        variant, ideal, green, conn)) == want, key
        monkeypatch.undo()


def test_a_pad_letter_is_never_certified():
    # with the letter "$", the four pairs of ($) and ($, $) convolve to
    # two strings, so a trie of those two and two strays would have as many
    # words as pairs and accept each pair's walk; the walk and count is
    # sound because no structure has such a letter: the constructor
    # refuses it, as the reader does
    pad = au.PAD
    trie = au.nfa_from_words(((pad, pad), ("x", "x")), [
        ((pad, pad),), ((pad, pad), (pad, pad)),
        (("x", "x"),), (("x", "x"), ("x", "x"))])
    rel = au.PaddedRelationNfa((pad,), (pad,), trie)
    with pytest.raises(InputError, match=re.escape(
            "track letters must be distinct and differ from the pad symbol"
            " '$'")):
        au.AutomaticStructure(
            alphabet=(pad,), letter_eval={pad: 0},
            acceptor=au.nfa_from_words((pad,), [(pad,), (pad, pad)]),
            multipliers={"": rel, pad: rel})


def test_an_exact_multiplier_past_the_language_bound_is_named(
        z6, t03, monkeypatch):
    # two acceptor words per element of Z6, so each exact multiplier has
    # 24 pairs against 12 acceptor words: under a bound of 12 its walk and
    # count would pass, yet a listing names it, so it is listed
    st = au.structure_for_finite(z6, [1])
    words = [("a1",) * k for k in range(1, 13)]
    evals = {w: st.eval_word(z6, w) for w in words}
    multipliers = {
        key: au.PaddedRelationNfa.from_pairs(st.alphabet, st.alphabet, [
            (u, v) for u in words for v in words
            if z6.mul1(evals[u], factor) == evals[v]])
        for key, factor in (("", z6.order), ("a1", 1))}
    doubled = replace(st, acceptor=au.nfa_from_words(st.alphabet, words),
                      multipliers=multipliers)
    assert au.verify_structure_report(doubled, z6, 12) == (True, "ok")
    green = relgreen.relative_green(z6, t03)
    conn = relgreen.connectors(green)
    monkeypatch.setattr(au, "_LANGUAGE_BOUND", 12)
    want = (BoundExceeded,
            "multiplier '' language exceeds the bound of 12 listed words")
    for variant in (doubled, _listed_only(doubled)):
        assert _outcome(lambda: au.verify_structure_report(
            variant, z6, 12)) == want
        assert _outcome(lambda: au.transfer_details(
            variant, t03, green, conn)) == want


def _automaton(alphabet, n, trans, initial, accepting):
    return au.Nfa(alphabet=alphabet, n_states=n, transitions=tuple(trans),
                  initial=frozenset(initial), accepting=frozenset(accepting))


def test_listing_matches_every_string_accepted():
    # over (2, 1, 0) a set of symbols iterates against rank order, so the
    # order of each level rests on the sort
    rev = (2, 1, 0)
    cases = {
        "trie": au.nfa_from_words(rev, [(0, 1), (2,), (1, 1, 0), (), (0, 0)]),
        "pair trie": au.PaddedRelationNfa.from_pairs(
            ("b", "a"), ("a",),
            [(("a", "b"), ("a",)), ((), ("a", "a")), (("b",), ())]).nfa,
        # two initial states whose words overlap, so levels hold state sets
        "initials": _automaton(rev, 4, [(0, 0, 2), (0, 2, 2), (1, 0, 2),
                                        (1, 1, 3), (1, 2, 3), (2, 1, 3),
                                        (3, 0, 1), (2, 2, 0)],
                               {0, 1}, {2, 3}),
        # state 2 is dead (no way to acceptance), state 3 unreachable
        "dead and unreachable": _automaton(rev, 4, [(0, 2, 1), (1, 1, 0),
                                                    (0, 0, 2), (2, 2, 2),
                                                    (3, 0, 0), (1, 0, 1)],
                                           {0}, {1}),
        "branching": _automaton(("b", "a"), 3, [(0, "a", 0), (0, "b", 0),
                                               (0, "a", 1), (1, "b", 2)],
                                {0}, {2}),
        "epsilon relation": _epsilon_relation().nfa,
        "epsilon": au.nfa_from_json({
            "states": 3, "alphabet": ["c", "b", "a"],
            "transitions": [[0, None, 1], [1, "a", 1], [1, None, 2],
                            [2, "b", 0], [0, "c", 2]],
            "initial": [0], "accepting": [2]}),
    }
    for name, nfa in cases.items():
        words = reference_words(nfa, 4)
        assert words, name
        assert enumerate_words(nfa, 4) == words, name


@st.composite
def small_automata(draw):
    """A random automaton over (2, 1, 0), read by ``nfa_from_json`` when
    it has epsilon moves (None)."""
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    trans = draw(st.lists(st.tuples(state, st.sampled_from([None, 2, 1, 0]),
                                    state), max_size=12))
    initial = draw(st.frozensets(state, max_size=3))
    accepting = draw(st.frozensets(state, max_size=3))
    if any(sym is None for _s, sym, _d in trans):
        return au._epsilon_free((2, 1, 0), n, tuple(trans), initial, accepting)
    return _automaton((2, 1, 0), n, trans, initial, accepting)


@settings(max_examples=200, deadline=None)
@given(small_automata())
def test_listing_matches_every_string_accepted_random(nfa):
    assert enumerate_words(nfa, 4) == reference_words(nfa, 4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from("ab"), max_size=3),
                          st.lists(st.sampled_from("xyz"), max_size=3)),
                max_size=6))
def test_pair_trie_lists_its_pairs(pairs):
    pairs = [(tuple(u), tuple(v)) for u, v in pairs]
    rel = au.PaddedRelationNfa.from_pairs(("b", "a"), ("z", "y", "x"), pairs)
    words = reference_words(rel.nfa, 3)
    assert enumerate_words(rel.nfa, 3) == words
    assert sorted(relation_pairs(rel, 3)) == sorted(set(pairs))
    prefixes = {w[:k] for u, v in pairs
                for w in [au.convolve(u, v)] for k in range(1, len(w) + 1)}
    assert rel.nfa.n_states == 1 + len(prefixes)


def _refused(build, message):
    with pytest.raises(AlphabetMismatch) as info:
        build()
    assert str(info.value) == message


def test_trie_builders_name_the_first_stray_symbol():
    # the first stray symbol in shortlex order of the words, wherever it is
    ab = ("a", "b")
    for words, bad in [
        ([("a", "b"), ("z",), ("b", "b", "a")], "'z'"),
        ([("a",), ("b", "y"), ("b", "a", "a")], "'y'"),
        ([("a",), ("b", "a"), ("b", "a", "x")], "'x'"),
        ([("a", "q", "p"), ("a", "a")], "'q'"),
        ([("a", "q"), ("p",)], "'p'"),
        ([("a", "b"), (["a"],)], "['a']"),
    ]:
        _refused(lambda: au.nfa_from_words(ab, words),
                 f"word symbol {bad} not in alphabet")
    pair = au.PairAlphabet(("a",), ("b",))
    _refused(lambda: au.nfa_from_words(pair, [(("a", "b"),), (("$", "$"),)]),
             "word symbol ('$', '$') not in alphabet")
    # from_pairs: a left letter outside the left track, a right letter
    # outside the right track, first, in the middle and last
    for pairs, bad in [
        ([(("z",), ("b",)), (("a",), ("b", "b")), (("a", "a"), ("b",))],
         "('z', 'b')"),
        ([(("a",), ()), (("a", "z"), ("b", "b")), (("a", "a"), ("b", "b", "b"))],
         "('z', 'b')"),
        ([(("a",), ()), (("a",), ("b",)), (("a", "a"), ("b", "b", "y"))],
         "('$', 'y')"),
        ([(("a",), ("y",)), ((), ())], "('a', 'y')"),
        ([(("a", "b"), ("b", "a"))], "('b', 'a')"),
        ([(("a",), ("b",)), (("$",), ())], "('$', '$')"),
        ([((["a"],), ("b",))], "(['a'], 'b')"),
    ]:
        _refused(lambda: au.PaddedRelationNfa.from_pairs(("a",), ("b",), pairs),
                 f"word symbol {bad} not in alphabet")
    # a letter that is the pad symbol passes where its pair symbol is one
    padded = au.PaddedRelationNfa.from_pairs(("a",), ("b",), [(("$",), ("b",))])
    assert padded.nfa.accepts((("$", "b"),))


def test_a_trie_with_a_none_symbol_is_refused_on_its_first_read():
    for read in (lambda nfa: nfa.accepts(("a",)), lambda nfa: next(nfa.iter_words()),
                 lambda nfa: nfa.step(nfa.initial, "a")):
        nfa = au.nfa_from_words(("a", None), [("a", None), ("a",)])
        with pytest.raises(InputError, match="epsilon move"):
            read(nfa)
