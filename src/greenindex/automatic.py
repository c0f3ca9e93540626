"""Regular languages over padded pair alphabets and automatic structures.

Word pairs are encoded synchronously: the shorter word is padded at the end
with "$", and the pair symbol ("$", "$") never occurs.  Relations on words
are NFAs over that pair alphabet.  Automata carry no epsilon moves: the
structure reader removes them on reading, in ``_epsilon_free``.

A pair alphabet is never listed: ``PairAlphabet`` holds the two track
alphabets and answers iteration, length, membership and rank from them.
Each automaton looks up the rank of each symbol it uses once.  A trie
(``nfa_from_words``, ``PaddedRelationNfa.from_pairs``) states what it
knows when it is built: every state is useful, each state's out-edges, and
its word count, so listing it derives no fact.

Every structure the library builds is the structure of a word map, each
acceptor word to its evaluation, and one builder, ``_structure_of``, makes
it: the acceptor is the trie of the words and each multiplier the trie of
its semantic pairs, M_f = {(u, v) : eval(v) = eval(u)·f}.  The canonical
structure of a finite semigroup maps its shortlex words; a transfer maps
each transferred word to the evaluation of the word it rewrites.
Transfer reads structures with a finite acceptor language over a finite
semigroup, so it first checks its input exactly against the same pairs:
the check, shared with verification, certifies a trie multiplier by
walking its semantic pairs and counting them, and lists an automaton only
when it states no count (read from JSON) or to name the first failure.
No relation is composed as an automaton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest
from typing import Iterable, Iterator, Sequence

from .core import (
    FiniteSemigroup,
    SubSemigroup,
    _check_count,
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
_LANGUAGE_BOUND = 10_000_000  # the most words _listed lists


def _collection(value, key: str):
    """An iterator over an automaton's ``key`` part; ``InputError`` if it is
    not a collection."""
    try:
        return iter(value)
    except TypeError:
        raise InputError(
            f"automaton {key!r} {value!r} is not a collection") from None


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton without epsilon moves.  The
    alphabet is a tuple of symbols or, for relations, a PairAlphabet.
    The constructor refuses an ``n_states`` that is not a count, a
    transition that is not a (source, symbol, target) triple and state sets
    or transitions that are not collections (``InputError``), and a state
    id not an int in [0, n_states) (``OutOfRange``), for the reader too
    (:func:`nfa_from_json`, which also removes epsilon moves); a transition
    whose symbol is None is refused with ``InputError`` by the first read
    of the transitions."""

    alphabet: tuple | PairAlphabet
    n_states: int
    transitions: tuple  # ((src, symbol, dst), ...)
    initial: frozenset
    accepting: frozenset
    # the number of accepted words, which only a trie states (:func:`_trie`)
    _word_count = None

    def __post_init__(self):
        n = _check_count(self.n_states, "automaton 'states'")
        for t in _collection(self.transitions, "transitions"):
            try:
                src, _sym, dst = t
            except (TypeError, ValueError):
                raise InputError(
                    f"transition {t!r} is not a (source, symbol, target) triple"
                ) from None
            _check_index(src, n, "transition source")
            _check_index(dst, n, "transition target")
        for key in ("initial", "accepting"):
            object.__setattr__(self, key, frozenset(
                _check_index(q, n, f"{key} state")
                for q in _collection(getattr(self, key), key)))

    @cached_property
    def _outgoing(self) -> list[dict]:
        """Per-state map symbol -> its targets: a set, or a one-tuple in
        a trie (:func:`_trie`)."""
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

    @cached_property
    def _rank(self) -> dict:
        """Each symbol on a transition, by its position in the alphabet;
        ``InputError`` names the first transition symbol outside it."""
        alpha = self.alphabet
        rank = alpha.rank if isinstance(alpha, PairAlphabet) else {
            sym: i for i, sym in enumerate(alpha)}.__getitem__
        try:
            return {sym: rank(sym) for sym in set().union(*self._outgoing)}
        except (KeyError, ValueError):
            stray = next(s for _, s, _ in self.transitions if s not in alpha)
            raise InputError(f"transition uses unknown symbol {stray!r}") from None

    def iter_words(self) -> Iterator[tuple]:
        """Accepted words in shortlex order (alphabet order as given);
        possibly infinite.  Prefixes that cannot reach acceptance are
        pruned, so the iterator terminates on finite languages."""
        useful, out, accepting = self._coaccessible, self._outgoing, self.accepting
        rank = self._rank.__getitem__
        trimmed = len(useful) == self.n_states
        level = [((), self.initial & useful)]
        while level:
            nxt = []
            for word, states in level:
                if len(states) == 1:
                    # one state: read its edges, with no set to merge
                    (q,) = states
                    if q in accepting:
                        yield word
                    edges = out[q]
                    for sym in sorted(edges, key=rank):
                        t = edges[sym] if trimmed else useful.intersection(edges[sym])
                        if t:
                            nxt.append((word + (sym,), t))
                    continue
                if not accepting.isdisjoint(states):
                    yield word
                symbols = set()
                for q in states:
                    symbols.update(out[q])
                for sym in sorted(symbols, key=rank):
                    t = self.step(states, sym) & useful
                    if t:
                        nxt.append((word + (sym,), t))
            level = nxt


def _shortlex(word) -> tuple:
    return len(word), word


def nfa_from_words(alphabet, words: Iterable[tuple]) -> Nfa:
    """Trie acceptor for a finite set of words; ``AlphabetMismatch`` names
    the first symbol not in the alphabet, in shortlex order of the words."""
    if not isinstance(alphabet, PairAlphabet):
        alphabet = tuple(alphabet)
    words = sorted(words, key=_shortlex)
    try:
        known = all(sym in alphabet for sym in set().union(*words))
    except TypeError:  # an unhashable symbol
        known = False
    if not known:
        _first_stray(alphabet, words)
    return _trie(alphabet, words)


def _first_stray(alphabet, words) -> None:
    """``AlphabetMismatch`` for the first symbol of ``words`` not in
    ``alphabet``, if there is one."""
    for w in words:
        for sym in w:
            if sym not in alphabet:
                raise AlphabetMismatch(f"word symbol {sym!r} not in alphabet")


def _trie(alphabet, words: list) -> Nfa:
    """The trie of ``words``, sorted shortlex and over ``alphabet``.  States
    are numbered as their prefixes are first met, and a prefix is extended
    through its state's out-edges by symbol.  Every state starts a path to
    acceptance and has one target per symbol, so the Nfa is given its
    useful states and its out-edges, each target as a one-tuple, rather
    than deriving them (unless a symbol is None, an epsilon move its first
    read must refuse).  Each accepting state ends one distinct word, so its
    word count is stated too: an int, not the words.  Its state ids are in
    range by construction, so it is built without the constructor's check."""
    out: list[dict] = [{}]
    trans = []
    accepting = set()
    for w in words:
        q = 0
        for sym in w:
            edges = out[q]
            if sym in edges:
                (q,) = edges[sym]
            else:
                edges[sym] = (len(out),)
                trans.append((q, sym, len(out)))
                q = len(out)
                out.append({})
        accepting.add(q)
    nfa = object.__new__(Nfa)
    nfa.__dict__.update(alphabet=alphabet, n_states=len(out),
                        transitions=tuple(trans), initial=frozenset({0}),
                        accepting=frozenset(accepting))
    if all(None not in edges for edges in out):
        nfa.__dict__.update(_outgoing=out, _coaccessible=frozenset(range(len(out))),
                            _word_count=len(accepting))
    return nfa


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
    return tuple(zip_longest(u, v, fillvalue=PAD))


def deconvolve(word: Sequence) -> tuple[tuple, tuple]:
    """Inverse of convolve: the tracks stripped of their pads, the (u, v)
    that ``word`` is convolve(u, v) of, or else ``InputError``."""
    word = tuple(word)
    u = tuple(x for x, _y in word if x != PAD)
    v = tuple(y for _x, y in word if y != PAD)
    if convolve(u, v) != word:
        raise InputError(f"{word} is not a convolution of two words")
    return u, v


@dataclass(frozen=True)
class PaddedRelationNfa:
    """A rational relation on words, encoded as an NFA over the padded pair
    alphabet of the two tracks."""

    left_alphabet: tuple
    right_alphabet: tuple
    nfa: Nfa

    @staticmethod
    def from_pairs(left_alphabet, right_alphabet, pairs) -> "PaddedRelationNfa":
        """The trie relation of a finite set of word pairs; ``AlphabetMismatch``
        names the first pair symbol not in the padded pair alphabet, in
        shortlex order of the convolutions.  The letters are checked once
        per track; only a failing check scans the convolutions symbol by
        symbol, so a letter that is the pad symbol still passes where its
        pair symbol is in the alphabet."""
        alpha = PairAlphabet(left_alphabet, right_alphabet)
        pairs = list(pairs)
        words = sorted((convolve(u, v) for u, v in pairs), key=_shortlex)
        try:
            known = (set().union(*(u for u, _v in pairs)) <= set(alpha.left)
                     and set().union(*(v for _u, v in pairs)) <= set(alpha.right))
        except TypeError:  # an unhashable letter
            known = False
        if not known:
            _first_stray(alpha, words)
        return PaddedRelationNfa(left_alphabet=alpha.left,
                                 right_alphabet=alpha.right, nfa=_trie(alpha, words))


def _epsilon_free(alphabet, n_states, transitions, initial, accepting) -> Nfa:
    """The Nfa of an automaton given by its parts, whose transitions may
    carry the symbol None, an epsilon move.  Each state takes the letter
    moves and the acceptance of its epsilon closure, so the language is
    unchanged.  In the library only the reader, :func:`nfa_from_json`,
    meets epsilon moves, and this is the only place a closure is
    computed."""
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
    letter and one for the empty word (key "").  It checks its parts when
    built (``InputError`` otherwise): the letters are distinct and none is
    the pad symbol, so ``convolve`` is injective over them; each letter has
    an evaluation and a multiplier, and no other key occurs; each acceptor
    symbol is a letter, each multiplier symbol in the letters' padded pair
    alphabet.  Symbols are scanned only in an automaton whose alphabet is
    not the letters or their ``PairAlphabet``, as the builders give."""

    alphabet: tuple[str, ...]
    letter_eval: dict[str, int]
    acceptor: Nfa
    multipliers: dict[str, PaddedRelationNfa]

    def __post_init__(self):
        letters = set(self.alphabet)
        if len(letters) != len(self.alphabet) or PAD in letters:
            raise InputError("track letters must be distinct and differ from"
                             f" the pad symbol {PAD!r}")
        if set(self.letter_eval) != letters:
            raise InputError("letter_eval keys must be exactly the alphabet")
        if set(self.multipliers) != letters | {""}:
            raise InputError('multiplier keys must be exactly "" and the alphabet')
        if self.acceptor.alphabet != self.alphabet:
            _check_symbols(self.acceptor.alphabet, self.alphabet, "acceptor")
        # multipliers share alphabets: a transfer's all share one
        alphabets = {id(r.nfa.alphabet): r.nfa.alphabet
                     for r in self.multipliers.values()}
        for alpha in alphabets.values():
            if not (isinstance(alpha, PairAlphabet)
                    and alpha.left == alpha.right == self.alphabet):
                pairs = PairAlphabet(self.alphabet, self.alphabet)
                _check_symbols(alpha, pairs, "multiplier")

    def eval_word(self, sem: FiniteSemigroup, word: Sequence[str]) -> int:
        return sem.prod1(self.letter_eval[a] for a in word)

    def _check_letter_evals(self, sem: FiniteSemigroup) -> None:
        """``OutOfRange`` unless every letter evaluates into ``sem``."""
        for v in self.letter_eval.values():
            _check_index(v, sem.order, "letter_eval entry")


def _check_symbols(alphabet, symbols, what: str) -> None:
    """``InputError`` naming the first symbol of ``alphabet`` not in ``symbols``."""
    for sym in alphabet:
        if sym not in symbols:
            raise InputError(
                f"{what} symbol {sym!r} is not over the structure's letters")


def structure_for_finite(sem: FiniteSemigroup, gens: Sequence[int]) -> AutomaticStructure:
    """The canonical automatic structure of a finite semigroup: shortlex
    normal forms as the word acceptor, one letter a<g> per generator g."""
    over = _generating(sem, gens, sem.elements, "the semigroup")
    return _structure_of(sem, {f"a{g}": g for g in over.gens}, {
        tuple(f"a{g}" for g in w): e for e, w in over.words.items()})


def _structure_of(sem, letter_eval: dict, words: dict) -> AutomaticStructure:
    """The structure of the word map ``words``, each acceptor word (over
    the letters of ``letter_eval``, by construction) to its evaluation: the
    acceptor is the trie of the words, and each multiplier the trie of its
    semantic pairs (:func:`_partners`), one trie per distinct factor, so
    letters with one evaluation share one."""
    alphabet = tuple(letter_eval)
    pair_alphabet = PairAlphabet(alphabet, alphabet)
    by_eval = _by_eval(words)
    tries: dict[int, PaddedRelationNfa] = {}
    for factor in (sem.order, *letter_eval.values()):
        if factor not in tries:
            tries[factor] = PaddedRelationNfa(alphabet, alphabet, _trie(
                pair_alphabet, sorted((convolve(u, v) for u, v in _partners(
                    sem, words, factor, by_eval)), key=_shortlex)))
    return AutomaticStructure(
        alphabet=alphabet, letter_eval=letter_eval,
        acceptor=_trie(alphabet, sorted(words, key=_shortlex)),
        multipliers={"": tries[sem.order],
                     **{a: tries[e] for a, e in letter_eval.items()}})


def _by_eval(words: dict) -> dict[int, list]:
    """The words of each evaluation, in the order of ``words``."""
    by_eval: dict[int, list] = {}
    for w, e in words.items():
        by_eval.setdefault(e, []).append(w)
    return by_eval


def _partners(sem, words: dict, factor: int, by_eval: dict) -> list[tuple]:
    """The semantic pairs of a multiplier over the word map ``words``: every
    (u, v) with eval(v) = eval(u)·factor, where the factor ``sem.order`` is
    the adjoined identity (the key "")."""
    return [(u, v) for u, e in words.items()
            for v in by_eval.get(sem.mul1(e, factor), ())]


def verify_structure_report(
    st: AutomaticStructure, target, max_len: int
) -> tuple[bool, str]:
    """Check a structure exactly against a semigroup (or subsemigroup) when
    every acceptor word has length at most max_len: the acceptor must
    evaluate onto the target, and each multiplier must accept exactly its
    semantic pairs and no other string (:func:`_semantic_failure`).  An
    acceptor word longer than max_len, as in any infinite language, is
    ``BoundExceeded``; a letter evaluating outside the semigroup is
    ``OutOfRange``, and a ``max_len`` not an int of at least 0 an
    ``InputError``; the structure checked its own parts when built."""
    sem, elems = _target_domain(target)
    st._check_letter_evals(sem)
    _check_count(max_len, "max_len")
    words = list(_listed(st.acceptor, max_len))
    if words and len(words[-1]) > max_len:
        raise BoundExceeded(
            f"the acceptor has a word longer than max_len {max_len}")
    failure, _evals = _semantic_failure(st, sem, elems, words)
    return (False, failure) if failure else (True, "ok")


def _semantic_failure(st, sem, elems, words):
    """Compare a structure with its semantic definition over its acceptor
    language ``words``, listed in shortlex order.

    The words must evaluate onto ``elems``, and each multiplier must accept
    exactly the convolutions of its semantic pairs: the (u, v) of acceptor
    words whose evaluations satisfy eval(v) = eval(u)·a for key a, or
    eval(v) = eval(u) for key "".  Keys are checked in order.  A trie
    stating at most ``_LANGUAGE_BOUND`` words passes if each semantic
    pair's convolution walks to acceptance and the pairs are as many as its
    words: the pairs are distinct and ``convolve`` is injective, since no
    letter is the pad symbol, so the language is exactly their
    convolutions, and a listing would find no other string, no missing pair
    and no bound.  Any other multiplier is listed, once per automaton, up
    to its first string longer than the longest acceptor word, which cannot
    be a pair of acceptor words, so any other string it accepts is seen and
    the first failure named.  Returns the first failure's message, or None,
    and the evaluation of each word."""
    evals = {w: st.eval_word(sem, w) for w in words}
    elem_set = set(elems)
    for w, e in evals.items():
        if e not in elem_set:
            return f"acceptor word {w} evaluates outside the target", evals
    if set(evals.values()) != elem_set:
        missing = sorted(elem_set - set(evals.values()))
        return f"acceptor is not onto; missing elements {missing}", evals
    longest = max(map(len, words), default=0)
    position = {w: i for i, w in enumerate(evals)}
    by_eval = _by_eval(evals)
    strings: dict[int, list] = {}  # by id(nfa): letters may share one
    for key, rel in sorted(st.multipliers.items()):
        factor = st.letter_eval[key] if key else sem.order
        pairs = _partners(sem, evals, factor, by_eval)
        if _walks_and_counts(rel.nfa, pairs):
            continue
        semantic = set(pairs)
        # one listing gives the accepted pairs and the first stray string
        accepted = set()
        stray = None
        if id(rel.nfa) not in strings:
            strings[id(rel.nfa)] = list(
                _listed(rel.nfa, longest, f"multiplier {key!r}"))
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
            return (
                f"multiplier {key!r} disagrees on pair ({u}, {v}):"
                f" semantic={(u, v) in semantic} accepted={(u, v) in accepted}"
            ), evals
        if stray is not None:
            return stray, evals
    return None, evals


def _walks_and_counts(nfa: Nfa, pairs: list) -> bool:
    """Whether the trie ``nfa`` states at most ``_LANGUAGE_BOUND`` words, as
    many as the distinct ``pairs`` (u, v), and accepts each."""
    count = nfa._word_count
    if count is None or count > _LANGUAGE_BOUND or count != len(pairs):
        return False
    out, accepting = nfa._outgoing, nfa.accepting
    for u, v in pairs:
        q = 0
        for sym in zip_longest(u, v, fillvalue=PAD):
            dst = out[q].get(sym)
            if dst is None:
                return False
            (q,) = dst
        if q not in accepting:
            return False
    return True


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

    The input must have a finite acceptor language, and it is checked
    exactly against S over that language: the acceptor must be onto S, and
    each multiplier must accept exactly its semantic pairs of acceptor
    words, no other string, and nothing longer than the longest acceptor
    word.  The first failure is an ``InputError``; a letter evaluating
    outside S is ``OutOfRange``.

    The restricted relation R pairs each acceptor word evaluating into T
    with its unique transferred word, named by the two-pass push, with
    letters evaluating to the adjoined identity dropped; it is built pair
    by pair.  The structure keeps the letters that occur in some transferred
    word.  The multiplier of a letter b is R⁻¹ ∘ M_w ∘ R, for w an acceptor
    word of b's evaluation.  The check proves each M_a exact and the
    acceptor onto S, so M_w(u) is every acceptor word v with eval(v) =
    eval(u)·eval(b), and the structure is that of the word map R(u) ↦
    eval(u) (:func:`_structure_of`).
    """
    sem = green.sem
    st._check_letter_evals(sem)
    green._check_built_from(sub, conn=conn)
    letters = _transfer_letters(st, green, conn)

    words = _finite_language(st.acceptor)
    failure, evals = _semantic_failure(st, sem, sem.elements, words)
    if failure:
        raise InputError(f"structure does not verify against S: {failure}")

    # Pair every acceptor word in T with its transferred word.
    pairs = []
    for u in words:
        pair = _rewrite_pair(st, conn, u, evals[u])
        if pair is not None:
            pairs.append(pair)
    used = {b for _u, v in pairs for b in v}
    kept = tuple(a for a in letters.names if a in used)
    return TransferResult(
        letters=letters,
        restricted_relation=PaddedRelationNfa.from_pairs(st.alphabet, kept, pairs),
        structure=_structure_of(sem, {b: letters.evals[b] for b in kept},
                                {ru: evals[u] for u, ru in pairs}))


def _rewrite_pair(st, conn, u, value):
    """The unique partner of an acceptor word u of evaluation ``value``
    under the transfer relation, or None when ``value`` is outside T.
    Letter k of the two-pass push becomes b<j>_<a>_<i>: j is the class the
    right push holds before it, i the class the left push holds after it;
    it is dropped when the push outputs the adjoined identity for it."""
    if value not in conn.green.sub.members:
        return None
    left, out, right = _two_pass([st.letter_eval[a] for a in u], conn)
    if right[-1] != IDENTITY_CLASS:
        raise InternalInconsistency("rewrite of a T word did not close")
    n = conn.green.sem.order
    return tuple(u), tuple(f"b{right[k]}_{a}_{left[k + 1]}"
                           for k, a in enumerate(u) if out[k] != n)


def _listed(nfa: Nfa, longest: int, what: str = "word acceptor") -> Iterator[tuple]:
    """The accepted words in shortlex order, up to and including the first
    one longer than ``longest``, so the listing ends on every language;
    ``BoundExceeded`` past ``_LANGUAGE_BOUND`` words, naming ``what``."""
    for count, w in enumerate(nfa.iter_words(), 1):
        if count > _LANGUAGE_BOUND:
            raise BoundExceeded(f"{what} language exceeds the bound"
                                f" of {_LANGUAGE_BOUND} listed words")
        yield w
        if len(w) > longest:
            return


def _finite_language(nfa: Nfa) -> list[tuple]:
    """All words of a finite language, shortlex; raises InputError if the
    language is infinite, and BoundExceeded past ``_LANGUAGE_BOUND`` words.
    A word longer than the state count passes a cycle of useful states."""
    words = list(_listed(nfa, nfa.n_states))
    if words and len(words[-1]) > nfa.n_states:
        raise InputError("word acceptor language is not finite")
    return words


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
    nonnegative int (not a bool), every state id an int in [0, states),
    ``states`` at most one more than the largest state id that occurs, the
    alphabet, transitions, initial and accepting states lists, and every
    other symbol a string or a two-string pair."""
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
        trans.append((src, sym, dst))
    # the constructor checks the count and every state id before the count
    # of used states and the epsilon closure read them
    nfa = Nfa(alphabet, data.get("states"), tuple(trans),
              *(_field(data, key, list, "automaton")
                for key in ("initial", "accepting")))
    # a state no id names is never used, and each one costs memory
    n = nfa.n_states
    used = 1 + max([q for s, _sym, d in trans for q in (s, d)]
                   + [*nfa.initial, *nfa.accepting], default=-1)
    if n > used:
        raise InputError(
            f"automaton 'states' {n} is more than the {used} its state ids use")
    return _epsilon_free(alphabet, n, nfa.transitions, nfa.initial,
                         nfa.accepting)


def structure_to_json(st: AutomaticStructure) -> dict:
    return {
        "alphabet": list(st.alphabet),
        "letter_eval": {a: st.letter_eval[a] for a in st.alphabet},
        "acceptor": nfa_to_json(st.acceptor),
        "multipliers": {
            key: nfa_to_json(rel.nfa) for key, rel in st.multipliers.items()
        },
    }


def structure_from_json(data: dict) -> AutomaticStructure:
    """Read a structure written by :func:`structure_to_json`; the letters
    must be strings (``InputError`` otherwise, also for any automaton
    :func:`nfa_from_json` refuses and any part :class:`AutomaticStructure`
    refuses)."""
    alphabet = tuple(_field(data, "alphabet", list, "structure"))
    if not all(isinstance(a, str) for a in alphabet):
        raise InputError("structure letters must be strings")
    letter_eval = dict(_field(data, "letter_eval", dict, "structure"))
    acceptor = nfa_from_json(_field(data, "acceptor", dict, "structure"))
    multipliers = {}
    # multipliers with equal JSON share one relation, as after transfer
    loaded: list[tuple[dict, PaddedRelationNfa]] = []
    for key, sub in _field(data, "multipliers", dict, "structure").items():
        rel = next((r for seen, r in loaded if seen == sub), None)
        if rel is None:
            rel = PaddedRelationNfa(alphabet, alphabet, nfa_from_json(sub))
            loaded.append((sub, rel))
        multipliers[key] = rel
    return AutomaticStructure(alphabet=alphabet, letter_eval=letter_eval,
                              acceptor=acceptor, multipliers=multipliers)
