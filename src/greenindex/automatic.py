"""Regular languages over padded pair alphabets and automatic structures.

Word pairs are encoded synchronously: the shorter word is padded at the end
with "$", and the pair symbol ("$", "$") never occurs.  Relations on words
are NFAs over that pair alphabet.  Composition of two relations re-reads both
component relations in lockstep, nondeterministically guessing the shared
middle track; when the middle word outlives both outer words the remaining
steps consume no output symbol.  The product is finite, so every silent tail
is found and composition needs no bound; its result is trimmed to the
states that are both accessible and co-accessible.  Automata carry no
epsilon moves: the structure reader and the projection onto one track
remove them where they arise, in ``_epsilon_free``.

A pair alphabet is never listed: ``PairAlphabet`` holds the two track
alphabets and answers iteration, length, membership and rank from them.
A transferred structure keeps only the letters that occur in some
transferred word, and every letter with one evaluation shares one
multiplier, composed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .core import (
    FiniteSemigroup,
    SubSemigroup,
    _check_index,
    _generating,
    _target_domain,
)
from .errors import (
    AlphabetMismatch,
    BoundExceeded,
    InputError,
    InternalInconsistency,
)
from .relgreen import IDENTITY_CLASS, ConnectorTables, GreenData
from .rewrite import _schreier_value, _two_pass

PAD = "$"
_LANGUAGE_BOUND = 10_000_000  # the most words _finite_language lists


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton without epsilon moves.  The
    alphabet is a tuple of symbols or, for relations, a PairAlphabet.
    Epsilon moves are removed where they arise (:func:`nfa_from_json` and
    :func:`project`); a transition whose symbol is None is refused with
    ``InputError`` by the first operation that reads the transitions."""

    alphabet: tuple | PairAlphabet
    n_states: int
    transitions: tuple  # ((src, symbol, dst), ...)
    initial: frozenset
    accepting: frozenset

    @cached_property
    def _outgoing(self) -> list[dict]:
        """Per-state map symbol -> set(dst)."""
        out = [dict() for _ in range(self.n_states)]
        for src, sym, dst in self.transitions:
            if sym is None:
                raise InputError(f"transition {(src, sym, dst)} is an epsilon move")
            out[src].setdefault(sym, set()).add(dst)
        return out

    @cached_property
    def _coaccessible(self) -> frozenset:
        """States from which an accepting state is reachable."""
        back: dict[int, set[int]] = {}
        for src, edges in enumerate(self._outgoing):
            for dsts in edges.values():
                for dst in dsts:
                    back.setdefault(dst, set()).add(src)
        seen = set(self.accepting)
        stack = list(seen)
        while stack:
            q = stack.pop()
            for p in back.get(q, ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return frozenset(seen)

    def step(self, states: frozenset, symbol) -> frozenset:
        out_edges = self._outgoing
        out = set()
        for q in states:
            out.update(out_edges[q].get(symbol, ()))
        return frozenset(out)

    def accepts(self, word: Sequence) -> bool:
        cur = self.initial
        for sym in word:
            cur = self.step(cur, sym)
            if not cur:
                return False
        return bool(cur & self.accepting)

    def is_empty(self) -> bool:
        return self.initial.isdisjoint(self._coaccessible)

    @cached_property
    def _rank(self):
        """Key giving each symbol's position in the alphabet."""
        if isinstance(self.alphabet, PairAlphabet):
            return self.alphabet.rank
        return {sym: i for i, sym in enumerate(self.alphabet)}.get

    def iter_words(self) -> Iterator[tuple]:
        """Accepted words in shortlex order (alphabet order as given);
        possibly infinite.  Prefixes that cannot reach acceptance are
        pruned, so the iterator terminates on finite languages."""
        useful, out, rank = self._coaccessible, self._outgoing, self._rank
        cur = self.initial & useful
        level = [((), cur)]
        while level:
            nxt = []
            for word, states in level:
                if states & self.accepting:
                    yield word
                symbols = set()
                for q in states:
                    symbols.update(out[q])
                for sym in sorted(symbols, key=rank):
                    t = self.step(states, sym) & useful
                    if t:
                        nxt.append((word + (sym,), t))
            level = nxt

    def enumerate_words(self, max_len: int) -> list[tuple]:
        out = []
        for w in self.iter_words():
            if len(w) > max_len:
                break
            out.append(w)
        return out


def nfa_from_words(alphabet, words: Iterable[tuple]) -> Nfa:
    """Trie acceptor for a finite set of words."""
    if not isinstance(alphabet, PairAlphabet):
        alphabet = tuple(alphabet)
    nodes = {(): 0}
    accepting = set()
    trans = []
    for w in sorted(words, key=lambda w: (len(w), w)):
        for i, sym in enumerate(w):
            if sym not in alphabet:
                raise AlphabetMismatch(f"word symbol {sym!r} not in alphabet")
            pre, ext = w[:i], w[: i + 1]
            if ext not in nodes:
                nodes[ext] = len(nodes)
                trans.append((nodes[pre], sym, nodes[ext]))
        accepting.add(nodes[w])
    return Nfa(
        alphabet=alphabet,
        n_states=len(nodes),
        transitions=tuple(trans),
        initial=frozenset({0}),
        accepting=frozenset(accepting),
    )


def determinize(nfa: Nfa) -> Nfa:
    """Complete subset-construction DFA (a dead sink is added if needed);
    state numbering follows BFS discovery, so the result is canonical."""
    start = frozenset(nfa.initial)
    index = {start: 0}
    order = [start]
    trans = []
    pos = 0
    while pos < len(order):
        cur = order[pos]
        for sym in nfa.alphabet:
            tgt = nfa.step(cur, sym)
            if tgt not in index:
                index[tgt] = len(order)
                order.append(tgt)
            trans.append((index[cur], sym, index[tgt]))
        pos += 1
    accepting = frozenset(
        index[s] for s in order if s & nfa.accepting
    )
    return Nfa(
        alphabet=nfa.alphabet,
        n_states=len(order),
        transitions=tuple(trans),
        initial=frozenset({0}),
        accepting=accepting,
    )


@dataclass(frozen=True)
class PairAlphabet:
    """The padded pair alphabet of two track alphabets, held as the tracks.

    It iterates over (x, y) for x in left + ($,), then y in right + ($,),
    skipping ($, $); ``rank`` is a symbol's position in that order.  Length,
    membership and rank take constant time.  Track letters must be distinct
    and differ from the pad symbol, or the encoding would be ambiguous.
    """

    left: tuple
    right: tuple
    _left_pos: dict = field(init=False, repr=False, compare=False)
    _right_pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("left", "right"):
            track = tuple(getattr(self, name))
            pos = {x: i for i, x in enumerate(track + (PAD,))}
            if len(pos) != len(track) + 1:
                raise InputError(
                    "track letters must be distinct and differ from the pad"
                    f" symbol {PAD!r}"
                )
            object.__setattr__(self, name, track)
            object.__setattr__(self, f"_{name}_pos", pos)

    def __iter__(self) -> Iterator[tuple]:
        right = self.right + (PAD,)
        for x in self.left:
            for y in right:
                yield (x, y)
        for y in self.right:
            yield (PAD, y)

    def __len__(self) -> int:
        return (len(self.left) + 1) * (len(self.right) + 1) - 1

    def __contains__(self, sym) -> bool:
        try:
            self.rank(sym)
        except ValueError:
            return False
        return True

    def rank(self, sym) -> int:
        """Position of ``sym`` in iteration order; ValueError if absent."""
        if isinstance(sym, tuple) and len(sym) == 2 and sym != (PAD, PAD):
            try:
                i = self._left_pos[sym[0]]
                j = self._right_pos[sym[1]]
            except (KeyError, TypeError):
                pass
            else:
                return i * (len(self.right) + 1) + j
        raise ValueError(f"{sym!r} is not in the pair alphabet")


def convolve(u: Sequence[str], v: Sequence[str]) -> tuple:
    """Synchronous padded encoding of a word pair."""
    m, n = len(u), len(v)
    out = []
    for i in range(max(m, n)):
        out.append((u[i] if i < m else PAD, v[i] if i < n else PAD))
    return tuple(out)


def deconvolve(word: Sequence) -> tuple[tuple, tuple]:
    """Inverse of convolve; raises InputError on malformed padding."""
    u, v = [], []
    u_done = v_done = False
    for x, y in word:
        if x == PAD and y == PAD:
            raise InputError("pair symbol ($,$) is not allowed")
        if x == PAD:
            u_done = True
        elif u_done:
            raise InputError("left track resumes after padding")
        else:
            u.append(x)
        if y == PAD:
            v_done = True
        elif v_done:
            raise InputError("right track resumes after padding")
        else:
            v.append(y)
    return tuple(u), tuple(v)


@dataclass(frozen=True)
class PaddedRelationNfa:
    """A rational relation on words, encoded as an NFA over the padded pair
    alphabet of the two tracks."""

    left_alphabet: tuple
    right_alphabet: tuple
    nfa: Nfa

    @staticmethod
    def from_pairs(left_alphabet, right_alphabet, pairs) -> "PaddedRelationNfa":
        alpha = PairAlphabet(left_alphabet, right_alphabet)
        words = [convolve(u, v) for u, v in pairs]
        return PaddedRelationNfa(
            left_alphabet=tuple(left_alphabet),
            right_alphabet=tuple(right_alphabet),
            nfa=nfa_from_words(alpha, words),
        )

    def accepts_pair(self, u, v) -> bool:
        if not u and not v:
            return self.nfa.accepts(())
        return self.nfa.accepts(convolve(u, v))

    def pairs(self, max_len: int) -> list[tuple[tuple, tuple]]:
        return [deconvolve(w) for w in self.nfa.enumerate_words(max_len)]


def invert(rel: PaddedRelationNfa) -> PaddedRelationNfa:
    rel.nfa._outgoing  # refuses an epsilon move
    swapped = tuple(
        (s, (sym[1], sym[0]), d) for s, sym, d in rel.nfa.transitions
    )
    return PaddedRelationNfa(
        left_alphabet=rel.right_alphabet,
        right_alphabet=rel.left_alphabet,
        nfa=Nfa(
            alphabet=PairAlphabet(rel.right_alphabet, rel.left_alphabet),
            n_states=rel.nfa.n_states,
            transitions=swapped,
            initial=rel.nfa.initial,
            accepting=rel.nfa.accepting,
        ),
    )


def project(rel: PaddedRelationNfa, track: int) -> Nfa:
    """Language of one track.  A padded position of that track reads no
    letter: it is an epsilon move, removed by :func:`_epsilon_free`."""
    if track not in (1, 2):
        raise InputError("track must be 1 or 2")
    base = rel.left_alphabet if track == 1 else rel.right_alphabet
    rel.nfa._outgoing  # refuses an epsilon move
    trans = []
    for s, sym, d in rel.nfa.transitions:
        comp = sym[track - 1]
        trans.append((s, None if comp == PAD else comp, d))
    return _epsilon_free(tuple(base), rel.nfa.n_states, tuple(trans),
                         rel.nfa.initial, rel.nfa.accepting)


def compose_relations(
    r1: PaddedRelationNfa, r2: PaddedRelationNfa
) -> PaddedRelationNfa:
    """Join two relations on their shared middle track.

    A pair (u, w) is accepted iff some middle word v has (u, v) in the first
    relation and (v, w) in the second.  Both component automata run in
    lockstep over the output positions; when v is longer than both u and w
    the machines keep running on silent steps.  The product is finite, so
    every silent tail is found exactly and no bound on its length is needed.
    """
    if set(r1.right_alphabet) != set(r2.left_alphabet):
        raise AlphabetMismatch("middle alphabets differ")
    d1, d2 = r1.nfa, r2.nfa
    out1, out2 = d1._outgoing, d2._outgoing
    # second machine's transitions grouped by the middle-track component
    by_mid: list[dict] = []
    for q in range(d2.n_states):
        grouped: dict = {}
        for (y, z), dsts in out2[q].items():
            grouped.setdefault(y, []).append((z, dsts))
        by_mid.append(grouped)
    out_alpha = PairAlphabet(r1.left_alphabet, r2.right_alphabet)

    index: dict = {}
    order: list = []
    main_trans = []
    eps_edges = []

    def state_id(st):
        if st not in index:
            index[st] = len(order)
            order.append(st)
        return index[st]

    for i1 in sorted(d1.initial):
        for i2 in sorted(d2.initial):
            state_id((i1, False, i2, False))
    initials = frozenset(range(len(order)))

    pos = 0
    while pos < len(order):
        q1, f1, q2, f2 = order[pos]
        if not f1 and not f2:
            # both machines consume one position of the middle track
            for (x, y), dsts1 in out1[q1].items():
                for z, dsts2 in by_mid[q2].get(y, ()):
                    for t1 in sorted(dsts1):
                        for t2 in sorted(dsts2):
                            tid = state_id((t1, False, t2, False))
                            if x == PAD and z == PAD:
                                eps_edges.append((pos, tid))
                            else:
                                main_trans.append((pos, (x, z), tid))
        if not f1 and (f2 or q2 in d2.accepting):
            # the second machine is finished; its pair reads ($, $)
            for (x, y), dsts1 in out1[q1].items():
                if y == PAD and x != PAD:
                    for t1 in sorted(dsts1):
                        tid = state_id((t1, False, q2, True))
                        main_trans.append((pos, (x, PAD), tid))
        if (f1 or q1 in d1.accepting) and not f2:
            # the first machine is finished; its pair reads ($, $)
            for (y, z), dsts2 in out2[q2].items():
                if y == PAD and z != PAD:
                    for t2 in sorted(dsts2):
                        tid = state_id((q1, True, t2, False))
                        main_trans.append((pos, (PAD, z), tid))
        pos += 1

    # A state accepts iff silent steps lead it to a configuration where
    # both machines are done.
    back: dict[int, list[int]] = {}
    for s, d in eps_edges:
        back.setdefault(d, []).append(s)
    accepting = {i for i, (q1, f1, q2, f2) in enumerate(order)
                 if (f1 or q1 in d1.accepting) and (f2 or q2 in d2.accepting)}
    stack = list(accepting)
    while stack:
        for s in back.get(stack.pop(), ()):
            if s not in accepting:
                accepting.add(s)
                stack.append(s)
    nfa = Nfa(
        alphabet=out_alpha,
        n_states=len(order),
        transitions=tuple(dict.fromkeys(main_trans)),
        initial=initials,
        accepting=frozenset(accepting),
    )
    return PaddedRelationNfa(
        left_alphabet=r1.left_alphabet,
        right_alphabet=r2.right_alphabet,
        nfa=_trim(nfa),
    )


def _trim(nfa: Nfa) -> Nfa:
    """The states that are both accessible and co-accessible, renumbered in
    their existing order; the language is unchanged."""
    useful, out = nfa._coaccessible, nfa._outgoing
    keep = set(nfa.initial & useful)
    stack = list(keep)
    while stack:
        for dsts in out[stack.pop()].values():
            for d in dsts:
                if d in useful and d not in keep:
                    keep.add(d)
                    stack.append(d)
    new = {q: i for i, q in enumerate(sorted(keep))}
    return Nfa(
        alphabet=nfa.alphabet,
        n_states=len(new),
        transitions=tuple((new[s], sym, new[d]) for s, sym, d in nfa.transitions
                          if s in new and d in new),
        initial=frozenset(new[q] for q in nfa.initial if q in new),
        accepting=frozenset(new[q] for q in nfa.accepting if q in new),
    )


def _epsilon_free(alphabet, n_states, transitions, initial, accepting) -> Nfa:
    """The Nfa of an automaton given by its parts, whose transitions may
    carry the symbol None, an epsilon move.  Each state takes the letter
    moves and the acceptance of its epsilon closure, so the language is
    unchanged.  This is the only place an epsilon closure is computed."""
    if any(sym is None for _, sym, _ in transitions):
        out = [dict() for _ in range(n_states)]
        for src, sym, dst in transitions:
            out[src].setdefault(sym, set()).add(dst)
        trans = []
        closed_accepting = set()
        for q in range(n_states):
            cl = {q}
            stack = [q]
            while stack:
                for r in out[stack.pop()].get(None, ()):
                    if r not in cl:
                        cl.add(r)
                        stack.append(r)
            cl = frozenset(cl)
            if cl & accepting:
                closed_accepting.add(q)
            for p in cl:
                for sym, dsts in out[p].items():
                    if sym is not None:
                        trans.extend((q, sym, d) for d in dsts)
        transitions = tuple(dict.fromkeys(trans))
        accepting = frozenset(closed_accepting)
    return Nfa(alphabet=alphabet, n_states=n_states, transitions=transitions,
               initial=initial, accepting=accepting)


@dataclass(frozen=True)
class AutomaticStructure:
    """A word acceptor onto a semigroup plus one multiplier relation per
    letter and one for the empty word (key "").  Every letter must have an
    evaluation and a multiplier, and no other key may occur
    (``InputError`` otherwise)."""

    alphabet: tuple[str, ...]
    letter_eval: dict[str, int]
    acceptor: Nfa
    multipliers: dict[str, PaddedRelationNfa]

    def __post_init__(self):
        letters = set(self.alphabet)
        if set(self.letter_eval) != letters:
            raise InputError("letter_eval keys must be exactly the alphabet")
        if set(self.multipliers) != letters | {""}:
            raise InputError('multiplier keys must be exactly "" and the alphabet')

    def eval_word(self, sem: FiniteSemigroup, word: Sequence[str]) -> int:
        return sem.prod1(self.letter_eval[a] for a in word)

    def _check_letter_evals(self, sem: FiniteSemigroup) -> None:
        """``OutOfRange`` unless every letter evaluates into ``sem``."""
        for v in self.letter_eval.values():
            _check_index(v, sem.order, "letter_eval entry")


def structure_for_finite(sem: FiniteSemigroup, gens: Sequence[int]) -> AutomaticStructure:
    """The canonical automatic structure of a finite semigroup: shortlex
    normal forms as the word acceptor, multiplier relations listed pair by
    pair."""
    gens = sorted(set(gens))
    forms = _generating(sem, gens, sem.elements, "the semigroup").words
    letters = {g: f"a{g}" for g in gens}
    alphabet = tuple(letters[g] for g in gens)
    rep = {
        elt: tuple(letters[g] for g in word) for elt, word in forms.items()
    }
    acceptor = nfa_from_words(alphabet, rep.values())
    multipliers: dict[str, PaddedRelationNfa] = {}
    multipliers[""] = PaddedRelationNfa.from_pairs(
        alphabet, alphabet, [(w, w) for w in rep.values()]
    )
    for g in gens:
        pairs = [(rep[x], rep[sem.mul(x, g)]) for x in sorted(rep)]
        multipliers[letters[g]] = PaddedRelationNfa.from_pairs(
            alphabet, alphabet, pairs
        )
    return AutomaticStructure(
        alphabet=alphabet,
        letter_eval={letters[g]: g for g in gens},
        acceptor=acceptor,
        multipliers=multipliers,
    )


def verify_structure_report(
    st: AutomaticStructure, target, max_len: int
) -> tuple[bool, str]:
    """Check a structure against a semigroup (or subsemigroup) on all words
    up to max_len: the acceptor must evaluate onto the target, and each
    multiplier must agree with its semantic definition both ways.  A letter
    evaluating outside the semigroup is ``OutOfRange`` and a negative
    ``max_len`` an ``InputError``; an element missed within ``max_len``
    while longer words exist is ``BoundExceeded``."""
    sem, elems = _target_domain(target)
    st._check_letter_evals(sem)
    if max_len < 0:
        raise InputError(f"max_len {max_len} is negative")
    elem_set = set(elems)
    words = st.acceptor.enumerate_words(max_len)
    evals = {}
    for w in words:
        e = st.eval_word(sem, w)
        if e not in elem_set:
            return False, f"acceptor word {w} evaluates outside the target"
        evals[w] = e
    if set(evals.values()) != elem_set:
        missing = sorted(elem_set - set(evals.values()))
        if any(len(w) > max_len for w in st.acceptor.iter_words()):
            raise BoundExceeded(
                f"elements {missing} have no acceptor word of length at most"
                f" max_len {max_len}, and the acceptor has longer words")
        return False, f"acceptor is not onto; missing elements {missing}"
    position = {w: i for i, w in enumerate(words)}
    by_eval: dict[int, list] = {}
    for w in words:
        by_eval.setdefault(evals[w], []).append(w)
    strings: dict[int, list] = {}  # by id(nfa): letters may share one
    for key, rel in sorted(st.multipliers.items()):
        factor = st.letter_eval[key] if key else sem.order
        semantic = {
            (u, v) for u in words
            for v in by_eval.get(sem.mul1(evals[u], factor), ())
        }
        # one enumeration gives the accepted pairs and the first stray string
        accepted = set()
        stray = None
        if id(rel.nfa) not in strings:
            strings[id(rel.nfa)] = rel.nfa.enumerate_words(max_len)
        for s in strings[id(rel.nfa)]:
            try:
                u, v = deconvolve(s)
            except InputError:
                if stray is None:
                    stray = f"multiplier {key!r} accepts malformed string {s}"
                continue
            if u in position and v in position:
                accepted.add((u, v))
            elif stray is None:
                stray = (
                    f"multiplier {key!r} accepts pair outside the acceptor"
                    f" ({u}, {v})"
                )
        wrong = semantic ^ accepted
        if wrong:
            u, v = min(wrong, key=lambda p: (position[p[0]], position[p[1]]))
            return False, (
                f"multiplier {key!r} disagrees on pair ({u}, {v}):"
                f" semantic={(u, v) in semantic} accepted={(u, v) in accepted}"
            )
        if stray is not None:
            return False, stray
    return True, "ok"


@dataclass(frozen=True)
class TransferLetters:
    """Letter bookkeeping for a transferred structure: subscripted letters
    b<j>_<a>_<i>, their evaluations in T^1, and which were dropped for
    evaluating to the adjoined identity."""

    names: tuple[str, ...]
    info: dict[str, tuple[int, str, int]]
    evals: dict[str, int]
    excluded: frozenset[str]


@dataclass(frozen=True)
class TransferResult:
    letters: TransferLetters
    restricted_relation: PaddedRelationNfa
    structure: AutomaticStructure


def _transfer_letters(st, green: GreenData, conn: ConnectorTables) -> TransferLetters:
    n = green.sem.order
    k1 = green.class_count
    names, info, evals = [], {}, {}
    excluded = set()
    for j in range(k1):
        for a in st.alphabet:
            for i in range(k1):
                name = f"b{j}_{a}_{i}"
                val = _schreier_value(conn, j, st.letter_eval[a], i)
                names.append(name)
                info[name] = (j, a, i)
                evals[name] = val
                if val == n:
                    excluded.add(name)
    return TransferLetters(
        names=tuple(names),
        info=info,
        evals=evals,
        excluded=frozenset(excluded),
    )


def transfer_details(
    st: AutomaticStructure,
    sub: SubSemigroup,
    green: GreenData,
    conn: ConnectorTables,
) -> TransferResult:
    """Build an automatic structure for the subsemigroup from one for S.

    The restricted relation pairs each acceptor word evaluating into T with
    its unique transferred word, named by the two-pass push, with letters
    evaluating to the adjoined identity dropped; it is built pair by pair.
    The structure keeps the letters that occur in some transferred word,
    which are exactly the letters on accepting paths of the new acceptor.
    The new acceptor is the right projection of that relation, and
    each multiplier is the original multiplier of a word for the letter,
    conjugated through the relation; every composition is trimmed.  A
    letter evaluating outside S is ``OutOfRange``.
    """
    sem = green.sem
    st._check_letter_evals(sem)
    green._check_built_from(sub, conn=conn)
    letters = _transfer_letters(st, green, conn)

    # Pair every acceptor word with its transferred word, and note the
    # shortlex-first word of each evaluation.
    pairs = []
    first_word: dict[int, tuple] = {}
    for u in _finite_language(st.acceptor):
        first_word.setdefault(st.eval_word(sem, u), u)
        pair = _rewrite_pair(st, green, conn, letters, u)
        if pair is not None:
            pairs.append(pair)
    used = {b for _u, v in pairs for b in v}
    kept = tuple(a for a in letters.names if a in used)
    restricted = PaddedRelationNfa.from_pairs(st.alphabet, kept, pairs)

    acceptor = determinize(project(restricted, 2))
    evals = {a: letters.evals[a] for a in kept}
    multipliers: dict[str, PaddedRelationNfa] = {}
    inv = invert(restricted)
    multipliers[""] = compose_relations(
        inv, compose_relations(st.multipliers[""], restricted))
    # Letters with one evaluation share the multiplier of its first word,
    # ((M_w0 . M_w1) . ...), each prefix of a first word composed once.
    by_eval: dict[int, PaddedRelationNfa] = {}
    chain = {(a,): st.multipliers[a] for a in st.alphabet}
    for b in kept:
        target = evals[b]
        if target not in by_eval:
            w = first_word.get(target)
            if w is None:
                raise InternalInconsistency(
                    f"no acceptor word evaluates to {target}"
                )
            for k in range(2, len(w) + 1):
                if w[:k] not in chain:
                    chain[w[:k]] = compose_relations(
                        chain[w[:k - 1]], st.multipliers[w[k - 1]])
            by_eval[target] = compose_relations(
                inv, compose_relations(chain[w], restricted))
        multipliers[b] = by_eval[target]
    structure = AutomaticStructure(
        alphabet=kept,
        letter_eval=evals,
        acceptor=acceptor,
        multipliers=multipliers,
    )
    return TransferResult(
        letters=letters,
        restricted_relation=restricted,
        structure=structure,
    )


def _rewrite_pair(st, green, conn, letters, u):
    """The unique partner of an acceptor word under the transfer relation,
    or None when the word evaluates outside the subsemigroup.  Letter k of
    the two-pass push becomes b<j>_<a>_<i>: j is the class the right push
    holds before it, i the class the left push holds after it."""
    elems = [st.letter_eval[a] for a in u]
    if green.sem.prod1(elems) not in green.sub.members:
        return None
    first, second = _two_pass(elems, conn)
    if second.output_class != IDENTITY_CLASS:
        raise InternalInconsistency("rewrite of a T word did not close")
    out = (f"b{second.steps[k]}_{a}_{first.steps[k + 1]}"
           for k, a in enumerate(u))
    return tuple(u), tuple(b for b in out if b not in letters.excluded)


def _finite_language(nfa: Nfa) -> list[tuple]:
    """All words of a finite language, shortlex; raises InputError if the
    language is infinite, and BoundExceeded past ``_LANGUAGE_BOUND`` words."""
    out = []
    for w in nfa.iter_words():
        if len(w) > nfa.n_states:
            raise InputError("word acceptor language is not finite")
        out.append(w)
        if len(out) > _LANGUAGE_BOUND:
            raise BoundExceeded("word acceptor language exceeds the bound"
                                f" of {_LANGUAGE_BOUND} listed words")
    return out


def nfa_to_json(nfa: Nfa) -> dict:
    def sym_out(sym):
        if isinstance(sym, tuple):
            return [sym[0], sym[1]]
        return sym

    return {
        "states": nfa.n_states,
        "alphabet": [sym_out(s) for s in nfa.alphabet],
        "transitions": [
            [s, sym_out(sym), d] for s, sym, d in nfa.transitions
        ],
        "initial": sorted(nfa.initial),
        "accepting": sorted(nfa.accepting),
    }


def _field(data, key: str, kind: type, what: str):
    """``data[key]`` when ``data`` is an object and that value a list or an
    object as ``kind`` says; ``InputError`` otherwise."""
    if not isinstance(data, dict) or not isinstance(data.get(key), kind):
        shape = "list" if kind is list else "object"
        raise InputError(f"{what} JSON needs a {key!r} {shape}")
    return data[key]


def _symbol(sym):
    """A JSON symbol: a string, or a two-string list for a pair."""
    if isinstance(sym, str):
        return sym
    if isinstance(sym, list) and len(sym) == 2 and all(
            isinstance(x, str) for x in sym):
        return (sym[0], sym[1])
    raise InputError(f"symbol {sym!r} is not a string or a pair of strings")


def nfa_from_json(data: dict) -> Nfa:
    """Read an automaton written by :func:`nfa_to_json`.  A transition's
    null symbol is an epsilon move, removed on reading by
    :func:`_epsilon_free`.  Raises ``InputError`` unless ``states`` is a
    nonnegative int (not a bool), every state id an int in [0, states), the
    alphabet, transitions, initial and accepting states lists, and every
    other symbol a string or a two-string pair."""
    n = data.get("states") if isinstance(data, dict) else None
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InputError(
            f"automaton 'states' {n!r} is not a nonnegative integer")
    alphabet = tuple(
        _symbol(s) for s in _field(data, "alphabet", list, "automaton"))
    known = set(alphabet)
    trans = []
    for t in _field(data, "transitions", list, "automaton"):
        if not isinstance(t, list) or len(t) != 3:
            raise InputError(
                f"transition {t!r} is not a [source, symbol, target] list")
        src, sym, dst = t
        sym = None if sym is None else _symbol(sym)
        if sym is not None and sym not in known:
            raise InputError(f"transition uses unknown symbol {sym!r}")
        trans.append((_check_index(src, n, "transition source"), sym,
                      _check_index(dst, n, "transition target")))

    def states(key):
        return frozenset(_check_index(q, n, f"{key} state")
                         for q in _field(data, key, list, "automaton"))

    return _epsilon_free(alphabet, n, tuple(trans), states("initial"),
                         states("accepting"))


def structure_to_json(st: AutomaticStructure) -> dict:
    return {
        "alphabet": list(st.alphabet),
        "letter_eval": {a: st.letter_eval[a] for a in st.alphabet},
        "acceptor": nfa_to_json(st.acceptor),
        "multipliers": {
            key: nfa_to_json(rel.nfa) for key, rel in st.multipliers.items()
        },
    }


def _nfa_over(data, symbols, what: str) -> Nfa:
    """:func:`nfa_from_json`, refusing a symbol not in ``symbols``."""
    nfa = nfa_from_json(data)
    stray = [sym for sym in nfa.alphabet if sym not in symbols]
    if stray:
        raise InputError(f"{what} symbol {stray[0]!r} is not over the structure's letters")
    return nfa


def structure_from_json(data: dict) -> AutomaticStructure:
    """Read a structure written by :func:`structure_to_json`; the letters
    must be distinct strings other than the pad symbol, their evaluations
    ints, every acceptor symbol a letter and every multiplier symbol in
    the padded pair alphabet of the letters (``InputError`` otherwise, also
    for any automaton :func:`nfa_from_json` refuses)."""
    alphabet = tuple(_field(data, "alphabet", list, "structure"))
    if not all(isinstance(a, str) for a in alphabet):
        raise InputError("structure letters must be strings")
    pairs = PairAlphabet(alphabet, alphabet)
    letter_eval = dict(_field(data, "letter_eval", dict, "structure"))
    if any(isinstance(v, bool) or not isinstance(v, int)
           for v in letter_eval.values()):
        raise InputError("letter_eval values must be integers")
    acceptor = _nfa_over(_field(data, "acceptor", dict, "structure"),
                         alphabet, "acceptor")
    multipliers = {}
    # multipliers with equal JSON share one relation, as after transfer
    loaded: list[tuple[dict, PaddedRelationNfa]] = []
    for key, sub in _field(data, "multipliers", dict, "structure").items():
        rel = next((r for seen, r in loaded if seen == sub), None)
        if rel is None:
            rel = PaddedRelationNfa(left_alphabet=alphabet, right_alphabet=alphabet,
                                    nfa=_nfa_over(sub, pairs, "multiplier"))
            loaded.append((sub, rel))
        multipliers[key] = rel
    return AutomaticStructure(alphabet=alphabet, letter_eval=letter_eval,
                              acceptor=acceptor, multipliers=multipliers)
