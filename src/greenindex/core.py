"""Finite semigroups as validated Cayley tables.

Elements are dense integer indices 0..n-1; an optional name table is carried
for pretty-printing only.  S^1 is S with a fresh identity adjoined at index
n, even when S already has an identity, so every formula in the package can
use the uniform convention "index n means the adjoined identity"
(:meth:`FiniteSemigroup.mul1`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import (
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


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite semigroup given by a full Cayley table.

    ``table[x][y]`` is the product x*y.  ``identity`` is the two-sided
    identity if one exists.  Instances are immutable and safe to share;
    build them with :func:`validate_table` rather than directly.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        # ``_generated``'s last letters and BFS, and validate_table's |x*S|
        # for each x, set as SubSemigroup sets T^1
        object.__setattr__(self, "_last_generated", (None, None))
        object.__setattr__(self, "_row_sizes", None)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def mul1(self, x: int, y: int) -> int:
        """Product in the monoid completion; index ``order`` is the fresh
        adjoined identity."""
        n = self.order
        if x == n:
            return y
        if y == n:
            return x
        return self.table[x][y]

    def prod1(self, xs: Iterable[int]) -> int:
        """Evaluate a word of S^1 indices; the empty word gives the adjoined
        identity."""
        n, table = self.order, self.table
        acc = n
        for x in xs:
            if acc == n:
                acc = x
            elif x != n:
                acc = table[acc][x]
        return acc

    @property
    def elements(self) -> range:
        return range(self.order)

    def name_of(self, x: int) -> str:
        if x == self.order:
            return "<1>"
        if self.names is not None:
            return self.names[x]
        return str(x)

    def to_json_dict(self) -> dict:
        out: dict = {"order": self.order, "table": [list(r) for r in self.table]}
        if self.names is not None:
            out["names"] = list(self.names)
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "FiniteSemigroup":
        try:
            table = data["table"]
        except (KeyError, TypeError):
            raise InputError("semigroup JSON needs a 'table' field")
        names = data.get("names")
        if names is not None:
            if not isinstance(names, list):
                raise InputError("semigroup 'names' must be a list")
            names = tuple(str(s) for s in names)
        sem = validate_table(table, names=names)
        order = data.get("order", sem.order)
        if isinstance(order, bool) or not isinstance(order, int):
            raise InputError(f"declared order {order!r} is a"
                             f" {type(order).__name__}, not an integer")
        if order != sem.order:
            raise InputError(f"declared order {order} != table size {sem.order}")
        return sem


def validate_table(
    table: Sequence[Sequence[int]], names: tuple[str, ...] | None = None
) -> FiniteSemigroup:
    """Check a square integer table for associativity and wrap it.

    Light's test certifies associativity in n^2 * |A| steps: the a with
    (x*a)*y = x*(a*y) for all x, y are closed under products, so checking
    each a in a generating set A proves the table.  A is the greedy walk
    over S in ``_rank_order``, which reads |x*S| off the row sets that also
    check the range; those sizes are kept on the result for T's B.  Detects
    a two-sided identity if one exists.  Raises ``InputError`` unless the
    table is a square list (or tuple) of lists of ints, so a bool, float or
    string entry is refused; ``OutOfRange`` for an entry outside [0, n); and
    ``NotAssociative`` with the first witness (x, y, z) in that order."""
    if not isinstance(table, (list, tuple)):
        raise InputError("table is not a list of rows")
    n = len(table)
    if n == 0:
        raise InputError("empty table")
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"table row {i} is not a list")
        if len(row) != n:
            raise InputError("table is not square")
    rows = tuple(map(tuple, table))
    # checked in C; the scan names the first bad entry or passes int subclasses
    sizes, seen = [], set()  # |x*S| for each x, one row set at a time
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        for row in map(set, rows):
            sizes.append(len(row))
            seen |= row
    if not sizes or not seen.issubset(range(n)):
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise InputError(f"entry table[{i}][{j}] = {v!r} is not an integer")
                if not 0 <= v < n:
                    raise OutOfRange(f"entry table[{i}][{j}] = {v} not in [0, {n})")
        sizes = [len(set(row)) for row in rows]  # int subclasses passed
    if names is not None and len(names) != n:
        raise InputError("names length != order")
    if n > 1 and not _light_associative(rows, sizes):
        # the first witness in (x, y, z) order, not the first Light failure
        for x in range(n):
            rx = rows[x]
            for y in range(n):
                rxy, ry = rows[rx[y]], rows[y]
                for z in range(n):
                    if rxy[z] != rx[ry[z]]:
                        raise NotAssociative(x, y, z)
    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    sem = FiniteSemigroup(order=n, table=rows, identity=identity, names=names)
    object.__setattr__(sem, "_row_sizes", tuple(sizes))
    return sem


def _light_associative(rows, sizes) -> bool:
    """Light's test: (x*a)*y = x*(a*y) for all x, y and every a of the
    greedy walk over S in ``_rank_order``.  Needs n > 1: itemgetter of a
    single index returns an entry, not a tuple."""
    for a in _right_generators(rows, _rank_order(rows, range(len(rows)), sizes))[0]:
        a_then = itemgetter(*rows[a])  # row of x -> (x*(a*y) for y in S)
        if any(rows[rx[a]] != a_then(rx) for rx in rows):
            return False
    return True


def _rank_order(rows, xs, sizes=None) -> list[int]:
    """``xs`` by decreasing |x*S|, then by decreasing |<x>|, then by index:
    the candidate order of Light's test and of T's B, which gives T_k its
    rank of 3 letters.  ``sizes`` are the |x*S| that validate_table keeps,
    counted here when not given.  The walk x, x^2, ... stops after
    n.bit_length() + 1 distinct powers, where larger <x> tie, so a cyclic
    group costs n log n steps rather than n^2."""
    cap = len(rows).bit_length() + 1

    def key(x):
        seen, p = {x}, rows[x][x]
        while p not in seen and len(seen) < cap:
            seen.add(p)
            p = rows[p][x]
        size = len(set(rows[x])) if sizes is None else sizes[x]
        return -size, -len(seen), x

    return sorted(xs, key=key)


def _right_generators(rows, candidates=None):
    """(A, reached): ``candidates`` in order (by default all of S in
    ``_rank_order``), each added to A if not yet reached.  Adding e
    reaches e and x*e for each x reached so far; each newly reached y then
    reaches y*a for every a in A.  So reached is <A>, holding every
    candidate."""
    if candidates is None:
        candidates = _rank_order(rows, range(len(rows)))
    reached: dict[int, None] = {}  # insertion-ordered set
    gens: list[int] = []
    for e in candidates:
        if e in reached:
            continue
        gens.append(e)
        queue = [e] + [rows[x][e] for x in reached]
        while queue:
            y = queue.pop()
            if y not in reached:
                reached[y] = None
                queue.extend(map(rows[y].__getitem__, gens))
    return gens, reached


@dataclass(frozen=True)
class SubSemigroup:
    """A nonempty multiplicatively closed subset of a parent semigroup;
    ``members`` may be any iterable, and is kept as a frozenset.  T's
    generators B are the greedy walk over the members in ``_rank_order``."""

    parent: FiniteSemigroup
    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise NotClosed("subsemigroup is empty")
        tab = self.parent.table
        for x in self.members:
            _check_index(x, self.parent.order, "member")
        members = self.sorted_members()
        # the greedy walk reaches <B>, which holds every member of T; T is
        # closed exactly when <B> is T
        gens, reached = _right_generators(
            tab, _rank_order(tab, members, self.parent._row_sizes))
        if len(reached) != len(members):
            for x in self.members:
                for y in self.members:
                    if tab[x][y] not in self.members:
                        raise NotClosed(
                            f"not closed: {x}*{y} = {tab[x][y]} is outside"
                        )
        # T^1 and B, set like fields outside them: a write through __dict__
        # would take attribute reads off CPython's fast path
        object.__setattr__(self, "_t_one", members + (self.parent.order,))
        object.__setattr__(self, "_t_gens", tuple(gens))

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def t_one(self) -> tuple[int, ...]:
        """T^1: the sorted members, then the adjoined identity n."""
        return self._t_one

    def _checked_parent(self, sem: FiniteSemigroup) -> FiniteSemigroup:
        """``sem``, if it is T's parent or equal to it; ``InputError`` else."""
        if self.parent is not sem and self.parent != sem:
            raise InputError("subsemigroup belongs to another semigroup")
        return sem

    def complement(self) -> frozenset[int]:
        return frozenset(self.parent.elements) - self.members

    def to_json_dict(self) -> dict:
        return {"members": sorted(self.members)}


def _target_domain(
    target: FiniteSemigroup | SubSemigroup,
) -> tuple[FiniteSemigroup, list[int]]:
    """The semigroup to multiply in and the sorted elements of a target
    that is either a whole semigroup or a subsemigroup of its parent."""
    if isinstance(target, SubSemigroup):
        return target.parent, sorted(target.members)
    return target, list(target.elements)


def _first_witnesses(sem, sub, xs, *, left: bool = False) -> list[dict[int, int]]:
    """For each x in ``xs``, each product x * t (t * x when ``left``) over
    t in T^1 mapped to its first t in T^1 order: the one owner of first
    T^1 witnesses."""
    n, rows = sem.order, sem.table
    rev = sub.t_one()[::-1]  # an earlier t overwrites a later one
    ts = rev[1:]  # rev[0] is n, and x * n = n * x = x
    cols = [rows[t] for t in ts] if left else None

    def products(x):  # x * t (t * x) over t in rev, from x's row (column)
        if x == n:
            return rev
        if left:
            return [x, *map(itemgetter(x), cols)]
        return [x, *map(rows[x].__getitem__, ts)]

    return [dict(zip(products(x), rev)) for x in xs]


def _check_index(x, limit: int, what: str, least: int = 0) -> int:
    """``x`` if it is an int (not a bool) in [least, limit), else
    ``OutOfRange``: a negative index would silently wrap."""
    if isinstance(x, bool) or not isinstance(x, int) or not least <= x < limit:
        raise OutOfRange(f"{what} {x!r} not in [{least}, {limit})")
    return x


def _check_count(x, what: str, least: int = 0) -> int:
    """``x`` if it is an int (not a bool) of at least ``least``, 0 or 1,
    else ``InputError``: a float or a bool would pass a comparison."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be an integer, not {x!r}")
    if x < least:
        raise InputError(f"{what} must be {'positive' if least else 'nonnegative'}")
    return x


@dataclass(frozen=True)
class Generated:
    """What a generating set reaches, with each element's shortlex word.

    ``gens`` are the generators deduplicated in the given order, which is
    the letter order.  ``words`` maps every element of the generated
    subsemigroup to its shortest-then-lexicographic word over ``gens`` (a
    tuple of generator elements), in shortlex order.
    """

    gens: tuple[int, ...]
    words: dict[int, tuple[int, ...]]

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.words)

    def word(self, x: int) -> tuple[int, ...]:
        """The shortlex word of ``x``; ``NotInSubsemigroup`` when the
        generators do not reach it."""
        word = self.words.get(x)
        if word is None:
            raise NotInSubsemigroup(f"{x} is not generated by {list(self.gens)}")
        return word


def generated(sem: FiniteSemigroup, gens: Iterable[int]) -> Generated:
    """The subsemigroup of ``sem`` generated by ``gens`` and its shortlex
    words, from one right-multiplication BFS.

    Every product g1*...*gk is reached from g1 by right multiplications, so
    the search finds all of <gens>; the set of minimal words is
    prefix-closed, so extending recorded words in order yields minimal
    words.  Raises ``EmptyGenerators`` for no generators and ``OutOfRange``
    for a generator that is not an element index.
    """
    gens = list(gens)
    if not gens:
        raise EmptyGenerators("need at least one generator")
    for g in gens:
        _check_index(g, sem.order, "generator")
    gens = tuple(dict.fromkeys(gens))
    tab = sem.table
    words = {g: (g,) for g in gens}
    level = list(gens)
    while level:
        nxt = []
        for x in level:
            row, word = tab[x], words[x]
            for g in gens:
                p = row[g]
                if p not in words:
                    words[p] = word + (g,)
                    nxt.append(p)
        level = nxt
    return Generated(gens=gens, words=words)


def _generated(sem: FiniteSemigroup, gens) -> Generated:
    """``generated`` over the distinct ``gens`` in increasing order, kept on
    ``sem`` for the last letters: the library's one BFS entry.  Letters are
    checked first, a failure is never kept, and callers only read the result."""
    letters = tuple(sorted({_check_index(g, sem.order, "generator") for g in gens}))
    if letters != sem._last_generated[0]:
        object.__setattr__(sem, "_last_generated", (letters, generated(sem, letters)))
    return sem._last_generated[1]


def _generating(sem: FiniteSemigroup, gens, members, what: str) -> Generated:
    """``_generated(sem, gens)``, which must reach exactly ``members``;
    ``NotGenerating`` naming ``what`` otherwise."""
    over = _generated(sem, gens)
    if over.members != frozenset(members):
        raise NotGenerating(f"the given set does not generate {what}")
    return over


def closure(sem: FiniteSemigroup, gens: Iterable[int]) -> SubSemigroup:
    """Smallest subsemigroup of ``sem`` containing ``gens``."""
    return SubSemigroup(parent=sem, members=_generated(sem, gens).members)


@dataclass(frozen=True)
class Homomorphism:
    """A multiplication-respecting map between two finite semigroups."""

    source: FiniteSemigroup
    target: FiniteSemigroup
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.source.order:
            raise InvalidHomomorphism("mapping length != source order")
        order = self.target.order
        for v in self.mapping:
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < order:
                raise InvalidHomomorphism(f"image {v!r} outside target")
        m = self.mapping
        for x in self.source.elements:
            for y in self.source.elements:
                if m[self.source.mul(x, y)] != self.target.mul(m[x], m[y]):
                    raise InvalidHomomorphism(
                        f"map({x}*{y}) != map({x})*map({y})"
                    )

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def strong_semilattice(
    t_sem: FiniteSemigroup, u_sem: FiniteSemigroup, phi: Homomorphism
) -> tuple[FiniteSemigroup, SubSemigroup]:
    """Glue two semigroups along a homomorphism phi: T -> U.

    The result S lives on the disjoint union (T first, then U); a mixed
    product pushes the T-factor through phi and multiplies in U.  Returns S
    together with the embedded copy of T as a subsemigroup; the complement
    of that copy is exactly the copy of U.
    """
    if phi.source != t_sem or phi.target != u_sem:
        raise DomainMismatch("phi must map the first semigroup into the second")
    nt, nu = t_sem.order, u_sem.order
    n = nt + nu

    def prod(x, y):
        if x < nt and y < nt:
            return t_sem.mul(x, y)
        if x >= nt and y >= nt:
            return nt + u_sem.mul(x - nt, y - nt)
        if x < nt:
            return nt + u_sem.mul(phi(x), y - nt)
        return nt + u_sem.mul(x - nt, phi(y))

    rows = [[prod(x, y) for y in range(n)] for x in range(n)]
    names = None
    if t_sem.names is not None and u_sem.names is not None:
        names = tuple(f"t:{s}" for s in t_sem.names) + tuple(
            f"u:{s}" for s in u_sem.names
        )
    sem = validate_table(rows, names=names)
    sub = SubSemigroup(parent=sem, members=frozenset(range(nt)))
    return sem, sub


def is_group(sem: FiniteSemigroup) -> bool:
    """True iff the semigroup has an identity and every element an inverse."""
    e = sem.identity
    if e is None:
        return False
    for x in sem.elements:
        if not any(
            sem.mul(x, y) == e and sem.mul(y, x) == e for y in sem.elements
        ):
            return False
    return True


def is_cancellative(sem: FiniteSemigroup) -> bool:
    """True iff all rows and all columns of the table are permutations."""
    full = set(sem.elements)
    for x in sem.elements:
        if set(sem.table[x]) != full:
            return False
    for y in sem.elements:
        if {sem.table[x][y] for x in sem.elements} != full:
            return False
    return True


@dataclass(frozen=True)
class BlackBoxSemigroup:
    """A semigroup known only through its multiplication callable.

    Elements must be equality-comparable and canonically encodable; the
    ``encode`` callable maps an element to a hashable key (identity by
    default).  Associativity can only be spot-checked, never proven.
    """

    multiply: Callable
    generators: tuple
    encode: Callable = field(default=lambda x: x)

    def spot_check_associativity(self, samples: int = 200, depth: int = 4,
                                 seed: int = 0):
        """Sample triples of bounded products of generators and test
        associativity; returns a witness triple or None."""
        rng = random.Random(seed)
        pool = list(self.generators)
        for _ in range(samples):
            elems = []
            for _ in range(3):
                x = rng.choice(pool)
                for _ in range(rng.randrange(depth)):
                    x = self.multiply(x, rng.choice(pool))
                elems.append(x)
            a, b, c = elems
            if self.encode(self.multiply(self.multiply(a, b), c)) != self.encode(
                self.multiply(a, self.multiply(b, c))
            ):
                return (a, b, c)
        return None
