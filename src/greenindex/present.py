"""Semigroup presentations: a bounded congruence enumerator, presentation
verification, and synthesis of a presentation for S out of presentations for
T and the complement Schutzenberger groups.

Verification certifies a presentation with no enumeration when its
relations give the rules of its letters (Froidure and Pin's rules: each
letter, and each shortlex tree word times each letter, equals a tree
word): each rule is a relation, or derives in one pass from a relation
and the rules walked before it.  Every table presentation lists its rules,
and the synthesized presentations of the benchmark ladder derive the ones
they do not list.  A relation that is a rule holds by construction, so
only the other relations are evaluated.  Only a presentation with a rule
that does not derive is enumerated, and only such a presentation can hit
the enumerator's bound.

The enumerator is an HLT-style coset table on the right Cayley graph of the
free monoid.  A sweep traces the relations from each node in turn until the
table is total; rounds then trace them from all nodes at once and merge the
ends that differ, until one finds none.  The classes then form a certified
closed quotient of the presentation, unless a bound was hit first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, Sequence

from .core import (
    FiniteSemigroup,
    Generated,
    SubSemigroup,
    _check_index,
    _generated,
    _target_domain,
)
from .errors import (
    BadInputPresentation,
    BoundExceeded,
    DaggerViolation,
    InputError,
    InternalInconsistency,
    InvalidLetter,
)
from .relgreen import ConnectorTables, GreenData
from .rewrite import WordProblemContext
from .schutz import SchutzGroup, class_group

Word = tuple[str, ...]
Assignment = dict[str, int]


@dataclass(frozen=True)
class Presentation:
    """An alphabet together with pairs of nonempty words declared equal."""

    alphabet: tuple[str, ...]
    relations: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        letters = set(self.alphabet)
        if len(letters) != len(self.alphabet):
            raise InputError("duplicate letters in alphabet")
        if all(u and v for u, v in self.relations) and letters.issuperset(
                chain.from_iterable(chain.from_iterable(self.relations))):
            return  # otherwise the loop below names the first bad word
        for u, v in self.relations:
            for w in (u, v):
                if not w:
                    raise InputError("relation words must be nonempty")
                for a in w:
                    if a not in letters:
                        raise InvalidLetter(f"relation uses unknown letter {a!r}")

    def _word_encoder(self) -> Callable[[Word], str | list]:
        """Words as JSON: joined strings when every letter is one character,
        so that they read back unambiguously; letter lists otherwise."""
        return "".join if all(len(a) == 1 for a in self.alphabet) else list

    def to_json_dict(self, assignment: Assignment | None = None) -> dict:
        encode = self._word_encoder()
        out: dict = {
            "alphabet": list(self.alphabet),
            "relations": [[encode(u), encode(v)] for u, v in self.relations],
        }
        if assignment is not None:
            out["assignment"] = {a: assignment[a] for a in self.alphabet
                                 if a in assignment}
        return out

    @staticmethod
    def from_json_dict(data: dict) -> tuple["Presentation", Assignment | None]:
        """Read a presentation and its optional assignment.  Raises
        ``InputError`` unless the alphabet is a list of nonempty strings,
        the relations a list of pairs of words, and the assignment an
        object whose values are integers (a bool or float is refused, not
        converted)."""
        if not isinstance(data, dict) or not isinstance(
                data.get("alphabet"), list) or not isinstance(
                data.get("relations"), list):
            raise InputError(
                "presentation JSON needs 'alphabet' and 'relations' lists")
        alphabet = tuple(data["alphabet"])
        if not all(isinstance(a, str) and a for a in alphabet):
            raise InputError("presentation letters must be nonempty strings")
        rels = []
        for pair in data["relations"]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError("each relation must be a pair of words")
            rels.append(
                (parse_word(pair[0], alphabet), parse_word(pair[1], alphabet))
            )
        assignment = data.get("assignment")
        if assignment is not None:
            if not isinstance(assignment, dict) or any(
                    isinstance(v, bool) or not isinstance(v, int)
                    for v in assignment.values()):
                raise InputError(
                    "presentation 'assignment' must map letters to integers")
        return Presentation(alphabet=alphabet, relations=tuple(rels)), assignment


def parse_word(raw, alphabet: Sequence[str]) -> Word:
    """Read a word given as a list of letters or as a joined string.

    Joined strings are tokenized greedily, longest letter first, with
    backtracking, so multi-character letters like "d1" are handled.  The
    search keeps an explicit stack, so a long word cannot overflow the
    interpreter's recursion limit, and it never retries a position from
    which no tokenization exists.
    """
    if isinstance(raw, (list, tuple)):
        word = tuple(str(a) for a in raw)
        known = set(alphabet)
        for a in word:
            if a not in known:
                raise InvalidLetter(f"unknown letter {a!r}")
        return word
    if not isinstance(raw, str):
        raise InputError(f"a word must be a string or a list of letters,"
                         f" not {raw!r}")
    letters = sorted({a for a in alphabet if a}, key=len, reverse=True)
    out: list[str] = []
    chosen: list[int] = []  # the index in letters of each token of out
    dead: set[int] = set()
    i = k = 0
    while i < len(raw):
        while k < len(letters) and not (
                raw.startswith(letters[k], i)
                and i + len(letters[k]) not in dead):
            k += 1
        if k < len(letters):
            out.append(letters[k])
            chosen.append(k)
            i, k = i + len(letters[k]), 0
        elif out:
            dead.add(i)
            i, k = i - len(out.pop()), chosen.pop() + 1
        else:
            raise InvalidLetter(f"cannot tokenize {raw!r} over {list(alphabet)}")
    return tuple(out)


def _table_presentation(
    sem: FiniteSemigroup, elems: Sequence[int], prefix: str
) -> tuple[Presentation, Assignment]:
    """One letter ``<prefix><e>`` per element e of the closed set ``elems``,
    one relation per cell of their table in row-major order, and the
    assignment of each letter to its element."""
    letters = {e: f"{prefix}{e}" for e in elems}
    ends = {e: (a,) for e, a in letters.items()}
    rels: list[tuple[Word, Word]] = []
    for e, a in letters.items():
        row = sem.table[e]
        rels += [((a, b), ends[row[f]]) for f, b in letters.items()]
    return Presentation(alphabet=tuple(letters.values()), relations=tuple(rels)), {
        a: e for e, a in letters.items()
    }


def presentation_from_table(sem: FiniteSemigroup) -> tuple[Presentation, Assignment]:
    """One letter ``x<e>`` per element, one relation per table cell."""
    return _table_presentation(sem, sem.elements, "x")


def sub_table_presentation(
    sem: FiniteSemigroup, sub: SubSemigroup
) -> tuple[Presentation, Assignment]:
    """Table presentation of a subsemigroup, letters ``t<m>`` assigned into
    parent indices."""
    return _table_presentation(sem, sub.sorted_members(), "t")


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of a bounded congruence enumeration.

    When ``complete``, the quotient is certified closed: the enumerator's
    right table is total and every relation holds when traced from every
    class and from the empty word; ``reps`` are the classes' shortlex
    representatives.  Otherwise ``reason`` says which bound was hit.
    """

    complete: bool
    reason: str | None
    size: int | None
    reps: tuple[Word, ...]


class _Table:
    """Union-find backed right-multiplication table with a root node.
    ``undefined`` counts the undefined edges in live rows."""

    def __init__(self, n_letters: int, cap: int):
        self.n_letters = n_letters
        self.cap = cap
        self.rows: list[list[int | None]] = [[None] * n_letters]
        self.parent = [0]
        self.undefined = n_letters

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def define(self, node: int, letter: int) -> int:
        """Make a new node the target of the undefined edge (node, letter)."""
        if len(self.rows) > self.cap:
            raise BoundExceeded("class bound exceeded")
        self.rows[node][letter] = new = len(self.rows)
        self.rows.append([None] * self.n_letters)
        self.parent.append(new)
        self.undefined += self.n_letters - 1
        return new

    def trace_define(self, node: int, word) -> int:
        rows, parent = self.rows, self.parent
        cur = node if parent[node] == node else self.find(node)
        for letter in word:
            nxt = rows[cur][letter]
            if nxt is None:
                nxt = self.define(cur, letter)
            elif parent[nxt] != nxt:
                nxt = rows[cur][letter] = self.find(nxt)
            cur = nxt
        return cur

    def merge(self, x: int, y: int) -> None:
        rows, parent, find = self.rows, self.parent, self.find
        undefined = self.undefined
        queue = [(x, y)]
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            row_a = rows[a]
            for letter, tb in enumerate(rows[b]):
                ta = row_a[letter]
                if ta is None or tb is None:
                    undefined -= 1  # of the two edges, one at most stays
                    if ta is None:
                        row_a[letter] = tb
                else:
                    queue.append((ta, tb))
        self.undefined = undefined

    def columns(self) -> tuple[list[int], list[list[int]]]:
        """The live nodes in index order, numbered 0..k-1, and one column
        per letter mapping each number to that of its successor."""
        parent = self.parent
        live = [x for x, p in enumerate(parent) if x == p]
        num = {x: i for i, x in enumerate(live)}
        num = [num[self.find(x)] for x in range(len(parent))]
        rows = [self.rows[x] for x in live]
        if any(None in row for row in rows):
            raise InternalInconsistency("table not total after closure")
        return live, [[num[row[letter]] for row in rows]
                      for letter in range(self.n_letters)]


def enumerate_presentation(
    pres: Presentation, max_classes: int
) -> EnumerationResult:
    """Enumerate the quotient semigroup of a presentation within a bound.

    The sweep walks the nodes in creation order, new ones included.  At
    each root it traces every relation, merges the two ends, and fills the
    root's row.  It stops as soon as no live row has an undefined edge.
    Rounds then close the total table.  A round numbers the live nodes,
    builds one column per letter, traces each relation's two sides from
    all nodes at once and merges each pair of ends that differ (a merge
    only coarsens, so the columns stay sound).  A round with no clash is
    the certificate: every relation holds at every node.

    The result is that of the sweep run to its end.  Until the table is
    total nothing differs; once it is, no definition is due, so the node
    bound cannot fire in either.  Both then merge only forced pairs until
    every relation holds at every node, so both end at the least such
    right-compatible equivalence: the same classes, representatives and
    verdicts.

    ``max_classes`` is the only bound.  "class bound exceeded" means a
    definition was due after max(64, 8 * ``max_classes``) nodes besides
    the root, or the quotient closed with over ``max_classes`` classes.
    """
    _check_max_classes(max_classes)
    letter_pos = {a: i for i, a in enumerate(pres.alphabet)}
    rels = [
        (tuple(letter_pos[a] for a in u), tuple(letter_pos[a] for a in v))
        for u, v in pres.relations
    ]
    table = _Table(len(pres.alphabet), cap=max(64, 8 * max_classes))

    capped = EnumerationResult(complete=False, reason="class bound exceeded",
                               size=None, reps=())
    try:
        alpha = 0
        while table.undefined and alpha < len(table.rows):
            if table.parent[alpha] == alpha:
                for u, v in rels:
                    table.merge(table.trace_define(alpha, u),
                                table.trace_define(alpha, v))
                a = table.find(alpha)
                for letter in range(table.n_letters):
                    if table.rows[a][letter] is None:
                        table.define(a, letter)
            alpha += 1
    except BoundExceeded:
        return capped

    clash = True
    while clash:
        live, cols = table.columns()
        clash = False
        for u, v in rels:
            ends = []
            for word in (u, v):
                img = cols[word[0]]
                for letter in word[1:]:
                    col = cols[letter]
                    img = [col[x] for x in img]
                ends.append(img)
            if ends[0] != ends[1]:
                clash = True
                for i, j in zip(*ends):
                    if i != j:
                        table.merge(live[i], live[j])
    if len(live) - 1 > max_classes:
        return capped

    # Shortlex representatives by BFS from the root, numbered 0.
    reps: list[Word] = []
    frontier = [(0, ())]
    seen = {0}
    while frontier:
        nxt = []
        for node, word in frontier:
            for letter, col in enumerate(cols):
                tgt = col[node]
                if tgt not in seen:
                    seen.add(tgt)
                    w = word + (pres.alphabet[letter],)
                    reps.append(w)
                    nxt.append((tgt, w))
        frontier = nxt
    if len(seen) != len(live):
        raise InternalInconsistency("unreachable live classes")

    return EnumerationResult(complete=True, reason=None, size=len(reps),
                             reps=tuple(reps))


def evaluate_word(sem: FiniteSemigroup, assignment: Mapping[str, int], word: Word) -> int:
    return sem.prod1([assignment[a] for a in word])


def _check_max_classes(max_classes) -> None:
    """A class bound is an int, not a bool, of at least 1 (``InputError``
    otherwise), checked before any other work."""
    if isinstance(max_classes, bool) or not isinstance(max_classes, int):
        raise InputError(f"max_classes must be an integer, not {max_classes!r}")
    if max_classes <= 0:
        raise InputError("max_classes must be positive")


def _check_assignment(
    pres: Presentation, assignment: Mapping[str, int], n: int
) -> None:
    """Every letter must be assigned an element index in [0, n): an int,
    not a bool (``OutOfRange`` otherwise, naming the letter)."""
    for a in pres.alphabet:
        if a not in assignment:
            raise InvalidLetter(f"letter {a!r} has no assigned element")
        _check_index(assignment[a], n, f"assignment of {a!r}")


def verify_presentation(
    pres: Presentation,
    target: FiniteSemigroup | SubSemigroup,
    assignment: Mapping[str, int],
    max_classes: int | None = None,
) -> bool:
    """Certify that a presentation presents the target: a semigroup, or a
    subsemigroup T given with its assignment in parent indices.

    True iff every letter is assigned an element of the target, every
    relation holds under the assignment, the assigned letters generate the
    whole target, and the presented semigroup has exactly as many elements
    as the target, mapped bijectively.  A relation that is a rule of the
    letters (see :func:`_presents`) holds by construction; only the others
    are evaluated.  When every rule is a relation or derives from one, as
    in every table presentation and in the synthesized presentations of
    the benchmark ladder, the count needs no enumeration either; otherwise
    the enumerated quotient is counted.  The default class bound grows
    with the target's size.  Raises ``InvalidLetter`` for an unassigned
    letter, ``InputError`` for an index outside the (parent) semigroup or
    a ``max_classes`` that is not an int of at least 1, checked first, and
    ``BoundExceeded`` when a presentation with a rule that does not derive
    cannot be enumerated within ``max_classes`` classes.
    """
    if max_classes is not None:
        _check_max_classes(max_classes)
    sem, elems = _target_domain(target)
    over, tree = _spelling(pres, sem, assignment)
    if over.members != frozenset(elems):
        return False
    return _presents(pres, sem, assignment, tree, max_classes)


def _presents(
    pres: Presentation,
    sem: FiniteSemigroup,
    assignment: Mapping[str, int],
    tree: Mapping[int, Word],
    max_classes: int | None,
) -> bool:
    """:func:`verify_presentation` once the letters are known to generate
    the target, the elements of ``tree`` but the adjoined identity: every
    relation holds, and the presented semigroup P has as many elements as
    the target.

    With w(x) the tree word of x in T^1 and s the element of a letter a,
    the rules of the letters pair w(x)a with w(xs); for the identity, whose
    word is empty, that is (a) with w(s).  A rule holds in the target by
    construction: w(x) is the shortlex BFS word of x, so w(x)a and w(xs)
    both give xs.  Every rule is walked, and each pops itself, or else its
    reverse, from a dict of the relations.  None is popped twice: distinct
    (x, a) give distinct words w(x)a, and w(x)a is a tree word only in a
    trivial rule, so a reversed pop meets no other rule's key.  A rule
    that is neither one word nor a relation is missing.  The relations
    left in the dict are evaluated first, and a false one refutes.

    Then one pass over the missing rules, in walk order, derives what it
    can (:func:`_derived`).  When it derives them all, every rule holds in
    P, so every word equals a tree word in P and |P| <= |target|; the
    relations hold and the letters generate, so the induced map is onto
    and hence a bijection.  At the first rule that does not derive the
    presentation is enumerated: its quotient must close within
    ``max_classes`` with as many classes as the target, mapped
    bijectively, and only then can the bound be hit.
    """
    unruled = dict.fromkeys(pres.relations)
    pop = unruled.pop
    letters = [((a,), assignment[a]) for a in pres.alphabet]
    rows = (*sem.table, sem.elements)  # the adjoined identity's row last
    missing = []  # (x, w(x)a) in walk order
    for x, w in tree.items():
        row = rows[x]
        for a, s in letters:
            u, v = w + a, tree[row[s]]
            # a present key pops its value None; an absent one gives 1
            if pop((u, v), 1) and pop((v, u), 1) and u != v:
                missing.append((x, u))
    for u, v in unruled:
        if evaluate_word(sem, assignment, u) != evaluate_word(sem, assignment, v):
            return False
    if not missing or _derived(pres, assignment, rows, tree, missing):
        return True
    size = len(tree) - 1
    result = enumerate_presentation(pres, max_classes or max(4 * size, 64))
    if not result.complete:
        raise BoundExceeded(result.reason or "enumeration incomplete")
    if result.size != size:
        return False
    return len({evaluate_word(sem, assignment, w) for w in result.reps}) == size


def _derived(
    pres: Presentation,
    assignment: Mapping[str, int],
    rows: Sequence[Sequence[int]],
    tree: Mapping[int, Word],
    missing: Sequence[tuple[int, Word]],
) -> bool:
    """Whether one pass, in walk order, derives every missing rule of
    :func:`_presents` from the relations, which all hold in the target.

    A rule is known when it is trivial, a relation, or derived earlier in
    the pass.  The rule (x, a), with u = w(x)a, is derived when a suffix p
    of u is a side of a relation p = q and q, read from the element y of
    the prefix before p, steps only through known rules.  That prefix is a
    tree word, since the spelled tree is prefix-closed.  In P, u = w(y)p =
    w(y)q, and each step w(z)b = w(zb) is a known rule, so u = w(z') for
    the end z' of the reading; since p = q holds in the target, z' = xs
    and the rule holds in P.
    """
    sides: dict[Word, list[Word]] = {}
    for u, v in pres.relations:
        sides.setdefault(u, []).append(v)
        sides.setdefault(v, []).append(u)
    lengths = sorted({len(p) for p in sides})
    element = {w: x for x, w in tree.items()}
    unknown = {(x, u[-1]) for x, u in missing}

    def derives(u: Word) -> bool:
        n = len(u)
        for k in lengths:
            if k > n:
                return False
            for q in sides.get(u[n - k:], ()):
                y = element[u[:n - k]]
                for b in q:
                    if (y, b) in unknown:
                        break
                    y = rows[y][assignment[b]]
                else:
                    return True
        return False

    for x, u in missing:
        if not derives(u):
            return False
        unknown.remove((x, u[-1]))
    return True


def _spelling(
    pres: Presentation, sem: FiniteSemigroup, assignment: Mapping[str, int]
) -> tuple[Generated, dict[int, Word]]:
    """The shortlex BFS over the letters' elements, and the tree it spells:
    the adjoined identity first, as the empty word, then each element's
    word with every generator written as its least letter.  Every letter
    must be assigned an element index of ``sem``."""
    _check_assignment(pres, assignment, sem.order)
    letter_of = {assignment[a]: a for a in sorted(pres.alphabet, reverse=True)}
    over = _generated(sem, letter_of)
    tree: dict[int, Word] = {sem.order: ()}
    for x, word in over.words.items():
        tree[x] = tuple([letter_of[e] for e in word])
    return over, tree


def _letter_factorizer(
    sub: SubSemigroup, q_pres: Presentation, q_assign: Mapping[str, int]
) -> dict[int, Word]:
    """The spelled tree of :func:`_spelling` over the base letters, which
    must generate exactly T (``BadInputPresentation`` otherwise)."""
    over, tree = _spelling(q_pres, sub.parent, q_assign)
    if over.members != sub.members:
        raise BadInputPresentation("the base presentation does not present T")
    return tree


@dataclass(frozen=True)
class ClassPack:
    """Presentation data for the Schutzenberger group of one complement
    class: alphabet and relations (shared across L-related classes), the
    letter evaluation into the class's own group, and the lift of each
    letter to a word over the subsemigroup's letters."""

    class_index: int
    leader: int
    presentation: Presentation
    schutz: SchutzGroup
    letter_to_group: dict[str, int]
    lift: dict[str, Word]


def build_schutz_packs(
    sem: FiniteSemigroup,
    sub: SubSemigroup,
    green: GreenData,
    q_pres: Presentation,
    q_assign: Mapping[str, int],
) -> dict[int, ClassPack]:
    """Table presentations for every complement Schutzenberger group, by
    class index.

    L-related classes share one alphabet and relation set (built from the
    smallest class in the family); unrelated classes get disjoint alphabets.
    Each letter carries a lift: the shortlex word over the subsemigroup
    letters evaluating to a stabilizer element in the letter's congruence
    class, or the empty word when only the adjoined identity remains.
    """
    green._check_built_from(sub, sem)
    tree = _letter_factorizer(sub, q_pres, q_assign)
    by_l: dict[int, list[int]] = {}
    for i in range(1, green.class_count):
        by_l.setdefault(green.l_id[green.rep_of(i)], []).append(i)

    packs: dict[int, ClassPack] = {}
    for members in by_l.values():
        leader = min(members)
        lead_grp = class_group(green, leader)
        pres, _ = _table_presentation(
            lead_grp.group, range(lead_grp.order), f"c{leader}_"
        )
        # each congruence class's least element: n only when alone in it
        lift_elts = {a: vs[0] for a, vs in
                     zip(pres.alphabet, lead_grp.gamma_classes)}
        lifts = {a: tree[v] for a, v in lift_elts.items()}
        for i in members:
            grp = class_group(green, i)
            letter_to_group = {a: grp.quotient_index(v)
                               for a, v in lift_elts.items()}
            packs[i] = ClassPack(
                class_index=i,
                leader=leader,
                presentation=pres,
                schutz=grp,
                letter_to_group=letter_to_group,
                lift=dict(lifts),
            )
    return packs


def _check_dagger(green: GreenData, packs: Mapping[int, ClassPack]) -> None:
    for i in range(1, green.class_count):
        if i not in packs:
            raise BadInputPresentation(f"missing pack for class {i}")
    l_ids = [green.l_id[r] for r in green.reps]  # class i's at i - 1
    for i, l_i in enumerate(l_ids, 1):
        for j, l_j in enumerate(l_ids[i:], i + 1):
            pi, pj = packs[i], packs[j]
            if l_i == l_j:
                if (pi.presentation.alphabet != pj.presentation.alphabet
                        or pi.presentation.relations != pj.presentation.relations):
                    raise DaggerViolation(
                        f"L-related classes {i}, {j} must share alphabet and relations"
                    )
                if pi.lift != pj.lift:
                    raise DaggerViolation(
                        f"L-related classes {i}, {j} must share letter lifts"
                    )
            else:
                if set(pi.presentation.alphabet) & set(pj.presentation.alphabet):
                    raise DaggerViolation(
                        f"unrelated classes {i}, {j} must use disjoint alphabets"
                    )


def synthesize_presentation(
    q_pres: Presentation,
    q_assign: Mapping[str, int],
    packs: Mapping[int, ClassPack],
    green: GreenData,
    conn: ConnectorTables,
    max_classes: int | None = None,
) -> tuple[Presentation, Assignment]:
    """Presentation for S from a presentation of T and group presentations.

    The alphabet adds one letter d_i per complement class.  Relations are
    those of T, plus the transport of every letter past every d_i, plus the
    group relations prefixed by their class letter.  The class letter for
    index 0 denotes the empty word and is elided at emission time.  The
    base presentation, every group presentation and every letter lift are
    verified first (``BadInputPresentation`` otherwise), after the base's
    class bound ``max_classes``.
    """
    if max_classes is not None:
        _check_max_classes(max_classes)
    green._check_built_from(conn=conn)
    sem = green.sem
    tree = _letter_factorizer(green.sub, q_pres, q_assign)
    if not _presents(q_pres, sem, q_assign, tree, max_classes):
        raise BadInputPresentation("the base presentation does not present T")
    for i, pack in packs.items():
        if not verify_presentation(pack.presentation, pack.schutz.group,
                                   pack.letter_to_group):
            raise BadInputPresentation(
                f"class {i}: group presentation fails verification"
            )
        for a in pack.presentation.alphabet:
            elt = sem.prod1(q_assign[x] for x in pack.lift[a])
            if pack.schutz.quotient_index(elt) != pack.letter_to_group[a]:
                raise BadInputPresentation(
                    f"class {i}: lift of {a!r} is not congruent to its image"
                )
    _check_dagger(green, packs)

    k = green.class_count - 1
    d_letters = tuple(f"d{i}" for i in range(1, k + 1))
    d_words = [()] + [(d,) for d in d_letters]  # class 0's word is empty
    if set(d_letters) & set(q_pres.alphabet):
        raise BadInputPresentation("base alphabet collides with class letters")
    alphabet = q_pres.alphabet + d_letters
    assignment: Assignment = {a: q_assign[a] for a in q_pres.alphabet}
    assignment.update(zip(d_letters, map(green.rep_of, range(1, k + 1))))

    rels: list[tuple[Word, Word]] = list(q_pres.relations)
    for a in alphabet:
        s = assignment[a]
        classes, factors = conn.left_class[s], conn.left_factor[s]
        for i in range(k + 1):
            lhs = (a,) + d_words[i]
            rhs = d_words[classes[i]] + tree[factors[i]]
            if lhs != rhs:
                rels.append((lhs, rhs))
    for b in q_pres.alphabet:
        t = assignment[b]
        for i in range(k + 1):
            lhs = d_words[i] + (b,)
            rhs = tree[conn.right_factor[i][t]] + d_words[conn.right_class[i][t]]
            if lhs != rhs:
                rels.append((lhs, rhs))
    for i in range(1, k + 1):
        lift = packs[i].lift
        for u, v in packs[i].presentation.relations:
            lhs = d_words[i] + tuple(chain.from_iterable([lift[c] for c in u]))
            rhs = d_words[i] + tuple(chain.from_iterable([lift[c] for c in v]))
            if lhs != rhs:
                rels.append((lhs, rhs))

    unique = tuple(dict.fromkeys(rels))
    return Presentation(alphabet=alphabet, relations=unique), assignment


def word_problem_context(
    sem: FiniteSemigroup,
    sub: SubSemigroup,
    *,
    green: GreenData,
    conn: ConnectorTables,
) -> WordProblemContext:
    """Assemble the finite-semigroup context for the word-equality decider.

    The letters are those of T's table presentation, ``t<element>`` for the
    sorted members, then one class letter ``d<i>`` per complement class.
    ``green`` must be the Green data of ``sub`` in ``sem``, and ``conn`` its
    connector tables (``InputError`` otherwise).
    """
    green._check_built_from(sub, sem)
    letter_eval = {f"t{m}": m for m in sub.sorted_members()}
    for i in range(1, green.class_count):
        letter_eval[f"d{i}"] = green.rep_of(i)
    return WordProblemContext(green=green, conn=conn, letter_eval=letter_eval)
