"""Pushing class representatives through products, and what that buys:
Schreier-style generators for the subsemigroup, the converse extension of
generating sets, and a decision procedure for word equality.

The decision rests on the stabilizer argument (Gray & Ruskuc 2008): a word
valued in a complement H-class H_K is h_K * r, with h_K the class
representative and r in the stabilizer of H_K in T^1, so only the residual
r depends on the word, and only two words in one class are pushed for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .core import FiniteSemigroup, _check_index, _generating
from .errors import InternalInconsistency, InvalidLetter, NotInSubsemigroup
from .relgreen import IDENTITY_CLASS, ConnectorTables, GreenData
from .schutz import class_group


@dataclass(frozen=True)
class RewriteTrace:
    """One application of the representative-pushing recursion.

    ``word`` is the input word (S^1 elements), ``output_word`` the produced
    word of T^1 elements, and ``steps`` the chain of class indices visited.
    For a right push (representative entering from the left),
    steps[k] is the class after consuming k letters and
    rep(input_class) * word = output_word * rep(output_class).
    For a left push the recursion runs right to left: steps[k] is the class
    sitting right of position k, steps[-1] = input_class, steps[0] =
    output_class, and word * rep(input_class) = rep(output_class) * output_word.
    """

    input_class: int
    word: tuple[int, ...]
    output_word: tuple[int, ...]
    output_class: int
    steps: tuple[int, ...]


def _scan_right(i: int, word: Sequence[int], conn: ConnectorTables):
    """The right push, unchecked: (output letters, classes), where
    classes[k] is the class after consuming k letters."""
    factor, klass = conn.right_factor, conn.right_class
    out = []
    classes = [i]
    for s in word:
        out.append(factor[i][s])
        i = klass[i][s]
        classes.append(i)
    return out, classes


def _left_ends(i: int, word: Sequence, factor, klass, drop: int = -1):
    """The one left push loop: (output class, output letters other than
    ``drop``, right to left); ``factor`` and ``klass`` take word letters.
    It keeps no class chain, and the default ``drop`` keeps every letter."""
    out = []
    for s in reversed(word):
        if (b := factor[s][i]) != drop:
            out.append(b)
        i = klass[s][i]
    return i, out


def _scan_left(i: int, word: Sequence[int], conn: ConnectorTables):
    """The left push with its class chain: (output letters, classes), where
    classes[k] is the class sitting right of position k, so classes[0] is
    the output class and classes[-1] = i.  The chain is the class step
    alone, accumulated; the output comes from ``_left_ends``."""
    klass = conn.left_class
    classes = [*accumulate(reversed(word), lambda c, s: klass[s][c], initial=i)]
    return _left_ends(i, word, conn.left_factor, klass)[1][::-1], classes[::-1]


def _checked(i: int, word: Sequence[int], conn: ConnectorTables) -> tuple[int, ...]:
    """``word`` as a tuple, once class i and every letter are in range."""
    _check_index(i, conn.green.class_count, "class")
    word = tuple(word)
    for s in word:
        _check_index(s, conn.green.sem.order + 1, "letter")
    return word


def push_right(i: int, word: Sequence[int], conn: ConnectorTables) -> RewriteTrace:
    """Move the representative of class i through ``word`` left to right."""
    word = _checked(i, word, conn)
    out, classes = _scan_right(i, word, conn)
    return RewriteTrace(i, word, tuple(out), classes[-1], tuple(classes))


def push_left(i: int, word: Sequence[int], conn: ConnectorTables) -> RewriteTrace:
    """Move the representative of class i through ``word`` right to left."""
    word = _checked(i, word, conn)
    out, classes = _scan_left(i, word, conn)
    return RewriteTrace(i, word, tuple(out), classes[0], tuple(classes))


def _two_pass(word: Sequence[int], conn: ConnectorTables):
    """Push the adjoined identity through ``word`` right to left, then the
    resulting representative through that output left to right.  Returns
    (left classes, output, right classes) with
    word = output * rep(right classes[-1])."""
    first, left = _scan_left(IDENTITY_CLASS, word, conn)
    out, right = _scan_right(left[0], first, conn)
    return left, out, right


def _schreier_value(conn: ConnectorTables, j: int, s: int, i: int) -> int:
    """The T^1 element right_factor[j][left_factor[s][i]]: what the letter
    s turns into when pushed between classes j and i."""
    return conn.right_factor[j][conn.left_factor[s][i]]


def schreier_generators(
    sem: FiniteSemigroup,
    gens: Sequence[int],
    sub,
    green: GreenData,
    conn: ConnectorTables,
) -> tuple[frozenset[int], Callable[[int], tuple[int, ...]]]:
    """Generators of T harvested from a generating set of S.

    Returns the set B = { right_factor(i, left_factor(a, j)) } with the
    adjoined identity dropped, together with a factorizer that writes any
    t in T as a word over B by the two-pass push of its shortlex word over
    the generators of S.
    """
    green._check_built_from(sub, sem, conn)
    n = sem.order
    over_a = _generating(sem, gens, sem.elements, "S")
    # _schreier_value over every j, a and i: the columns of right_factor
    # at the distinct left factors
    cols = list(zip(*conn.right_factor))
    bset = set().union(*map(cols.__getitem__, {
        t for a in gens for t in conn.left_factor[a]})) - {n}

    def factorizer(t: int) -> tuple[int, ...]:
        if t not in sub.members:
            raise NotInSubsemigroup(f"{t} is not in the subsemigroup")
        _left, out, right = _two_pass(over_a.word(t), conn)
        if right[-1] != IDENTITY_CLASS:
            raise InternalInconsistency(
                "two-pass rewrite of a T element did not land back in T"
            )
        return tuple(b for b in out if b != n)

    return frozenset(bset), factorizer


def extended_generators(
    b_gens: Sequence[int], green: GreenData
) -> frozenset[int]:
    """Generators of S from generators of T: adjoin the complement class
    representatives."""
    _generating(green.sub.parent, b_gens, green.sub.members, "T")
    return frozenset(b_gens) | set(green.reps)


@dataclass(frozen=True)
class WordProblemContext:
    """Everything the word-equality decider needs about A = B u {d_i}.

    ``letter_eval`` maps letters to S elements (class letters to the class
    representatives); ``OutOfRange`` otherwise.  It is held as a read-only
    copy, a ``mappingproxy`` in the repr (copies and pickles rebuild from a
    dict); ``conn`` must be built from ``green``, ``InputError`` otherwise.
    Each word's value and signature are cached on the context.
    """

    green: GreenData
    conn: ConnectorTables
    letter_eval: Mapping[str, int]
    _value_cache: dict = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _sig_cache: dict = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _rows: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        letter_eval = dict(self.letter_eval)
        for v in letter_eval.values():
            _check_index(v, self.green.sem.order, "letter_eval entry")
        self.green._check_built_from(conn=self.conn)
        object.__setattr__(self, "letter_eval", MappingProxyType(letter_eval))
        object.__setattr__(self, "_rows", tuple(  # each letter's rows
            {a: rows[v] for a, v in letter_eval.items()} for rows in (
                self.green.sem.table, self.conn.left_factor, self.conn.left_class)))

    def __reduce__(self):
        return type(self), (self.green, self.conn, dict(self.letter_eval))


@dataclass(frozen=True)
class WordVerdict:
    equal: bool
    branch: str
    detail: str


def _value(word: tuple[str, ...], ctx: WordProblemContext) -> int:
    """The value of ``word`` in S^1, the adjoined identity n for the empty
    word: a fold right to left through each letter's table row (the table
    is associative), cached per word.  ``InvalidLetter`` names the leftmost
    unknown letter, and nothing is cached then."""
    value = ctx._value_cache.get(word)
    if value is not None:
        return value
    if not word:
        value = ctx.green.sem.order
    else:
        rows, letters = ctx._rows[0], reversed(word)
        try:
            value = ctx.letter_eval[next(letters)]
            for a in letters:
                value = rows[a][value]
        except KeyError:
            bad = next(a for a in word if a not in ctx.letter_eval)
            raise InvalidLetter(f"unknown letter {bad!r}") from None
    ctx._value_cache[word] = value
    return value


def _signature(word: tuple[str, ...], ctx: WordProblemContext):
    cached = ctx._sig_cache.get(word)
    if cached is not None:
        return cached
    sem, conn, n = ctx.green.sem, ctx.conn, ctx.green.sem.order
    value = _value(word, ctx)
    if not word:
        sig = ("empty", n)
    elif value in ctx.green.sub.members:
        # the pushes end in class 0 exactly when the value is in T, and
        # their output then folds to it, so such a word is not pushed
        sig = ("sub", value)
    else:
        # push left, right, then back, dropping the adjoined identity n,
        # which keeps the class; the pushes end in the value's class
        _, factor, klass = ctx._rows
        i, first = _left_ends(IDENTITY_CLASS, word, factor, klass, n)
        out, right = _scan_right(i, reversed(first), conn)
        if right[-1] == IDENTITY_CLASS:
            raise InternalInconsistency(
                f"a word valued {value} outside T was pushed into T")
        k, back = _left_ends(right[-1], out, conn.left_factor, conn.left_class, n)
        if k != (expected := ctx.green.class_of(value)):
            raise InternalInconsistency(
                f"a word valued {value} in class {expected} was pushed"
                f" to class {k}")
        sig = ("class", k, sem.prod1(reversed(back)))
    ctx._sig_cache[word] = sig
    return sig


def word_equality_report(
    w1: Sequence[str], w2: Sequence[str], ctx: WordProblemContext
) -> WordVerdict:
    """Decide whether two words over B u {d_i} represent the same element.

    Both words are folded to their values.  A word valued in the
    complement H-class H_K is h_K * r with r in the stabilizer of H_K, so
    its class is its value's, and the values decide every pair but two
    words in one complement class: those are pushed to (class, residual r),
    checked to end in that class, and their residuals, which the detail
    names, compared through the class's Schutzenberger group.
    """
    w1, w2 = tuple(w1), tuple(w2)
    v1, v2 = _value(w1, ctx), _value(w2, ctx)
    if not (w1 and w2):
        if w1 or w2:
            return WordVerdict(False, "mixed", "only one word is empty")
        return WordVerdict(True, "empty", "both words are empty")
    k1, k2 = ctx.green._class_index[v1], ctx.green._class_index[v2]
    if (k1 == IDENTITY_CLASS) != (k2 == IDENTITY_CLASS):
        return WordVerdict(False, "mixed", "one word lands in T, the other outside")
    if k1 == IDENTITY_CLASS:
        return WordVerdict(v1 == v2, "both_in_sub", f"compared {v1} and {v2} in T")
    if k1 != k2:
        return WordVerdict(
            False, "both_outside", f"distinct complement classes {k1} != {k2}"
        )
    (_, _, r1), (_, _, r2) = _signature(w1, ctx), _signature(w2, ctx)
    grp = class_group(ctx.green, k1)
    eq = grp.quotient_index(r1) == grp.quotient_index(r2)
    return WordVerdict(
        eq,
        "both_outside",
        f"class {k1}, stabilizer residuals {r1} and {r2}",
    )
