"""Relative Green's relations, Green index, and connector tables.

All relations are taken relative to a fixed subsemigroup T of S: two elements
are R-related when their right principal sets u*T^1 agree, L-related when the
left principal sets agree, and H-related when both do.  R and L are computed
as strongly connected components of Cayley graphs of S whose arcs are labelled
by T's greedy generators, the set over which ``SubSemigroup`` certifies
closure.  Every class lies wholly inside T or wholly inside the complement;
the complement H-classes are indexed 1..k by their smallest member, and
index 0 stands for the class {1} of the adjoined identity.  The Green index
is k + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from operator import itemgetter

from .core import FiniteSemigroup, SubSemigroup, _check_index, _first_witnesses
from .errors import InputError, InternalInconsistency

IDENTITY_CLASS = 0
_NO_WITNESS = "no T^1 witness; GreenData is broken"


@dataclass(frozen=True)
class GreenData:
    """The relative R/L/H partition of S together with the complement
    H-class index.

    ``r_id``, ``l_id`` and ``h_id`` assign an arbitrary-but-deterministic
    class id to every element of S.  ``complement_classes[p]`` is the class
    with index p + 1; ``reps[p]`` is its smallest element.  Both are read
    off one scan of S, at construction.
    """

    sem: FiniteSemigroup
    sub: SubSemigroup
    r_id: tuple[int, ...]
    l_id: tuple[int, ...]
    h_id: tuple[int, ...]
    complement_classes: tuple[frozenset[int], ...] = field(init=False)
    reps: tuple[int, ...] = field(init=False)
    green_index: int = field(init=False)

    def __post_init__(self):
        # scanning S in order lists the H-classes by their least members,
        # each least member first; a class lies wholly inside T or outside
        members: dict[int, list[int]] = {}
        for u in self.sem.elements:
            members.setdefault(self.h_id[u], []).append(u)
        h_classes = {hid: frozenset(c) for hid, c in members.items()}
        classes = tuple(c for hid, c in h_classes.items()
                        if members[hid][0] not in self.sub.members)
        class_index = dict.fromkeys(self.sub.t_one(), IDENTITY_CLASS)
        class_index.update(
            (x, p + 1) for p, cls in enumerate(classes) for x in cls)
        # set like fields: a write through __dict__ would take attribute
        # reads off CPython's fast path
        for name, value in (("complement_classes", classes),
                            ("reps", tuple(min(c) for c in classes)),
                            ("green_index", len(classes) + 1),
                            ("_h_classes", h_classes),
                            ("_class_index", class_index),
                            ("_group_cache", {})):
            object.__setattr__(self, name, value)

    @property
    def class_count(self) -> int:
        """Number of valid class indices (complement classes plus the
        identity class 0)."""
        return len(self.complement_classes) + 1

    def rep_of(self, i: int) -> int:
        """Representative element of class index i; class 0 is represented
        by the adjoined identity (``OutOfRange`` for an index outside
        [0, class_count))."""
        _check_index(i, self.class_count, "class index")
        if i == IDENTITY_CLASS:
            return self.sem.order
        return self.reps[i - 1]

    def class_of(self, x: int) -> int:
        """Class index of an S^1 element: 0 for members of T^1, otherwise
        the index of the complement H-class containing x."""
        return self._class_index[x]

    def h_class_of(self, x: int) -> frozenset[int]:
        """The relative H-class of an element of S (``OutOfRange`` for an
        index outside S)."""
        _check_index(x, self.sem.order, "element")
        return self._h_classes[self.h_id[x]]

    def _check_built_from(
        self,
        sub: SubSemigroup | None = None,
        sem: FiniteSemigroup | None = None,
        conn: ConnectorTables | None = None,
    ) -> None:
        """``InputError`` unless this data was computed for ``sub`` in
        ``sem`` and ``conn`` from this data, each checked when given.
        Identity is tested first, so a matched call costs O(1)."""
        if (sub is not None and sub is not self.sub and sub != self.sub) or (
                sem is not None and sem is not self.sem and sem != self.sem):
            raise InputError("subsemigroup does not match the Green data")
        if conn is not None and conn.green is not self and conn.green != self:
            raise InputError("connector tables do not match the Green data")


def relative_green(sem: FiniteSemigroup, sub: SubSemigroup) -> GreenData:
    """Compute the relative Green's relations as strongly connected
    components over T's greedy generators B: the elements that u reaches by
    arcs u -> u*b are exactly u*T^1, so u R^T v iff u and v reach each
    other; L^T is the same with arcs u -> b*u (Froidure & Pin 1997)."""
    rows, gens = sub._checked_parent(sem).table, sub._t_gens
    pick = itemgetter(gens[0], *gens)  # two indices: always a tuple
    left = [rows[b] for b in gens]
    r_id = _components(sem.order, lambda u: pick(rows[u]))
    l_id = _components(sem.order, lambda u: [row[u] for row in left])
    h_id = _first_occurrence(zip(r_id, l_id))
    return GreenData(sem=sem, sub=sub, r_id=r_id, l_id=l_id, h_id=h_id)


def _components(n: int, successors) -> tuple[int, ...]:
    """The strongly connected components of the graph on range(n) with
    arcs u -> v for v in ``successors(u)``, numbered by first occurrence in
    element order: an iterative Tarjan (1972)."""
    order, low = [0] * n, [0] * n  # DFS numbers count from 1
    root = [-1] * n  # each element's component root, once it is complete
    stack, ticks = [], count(1)

    def enter(w):
        order[w] = low[w] = next(ticks)
        stack.append(w)
        return w, iter(successors(w))

    for start in range(n):
        path = [] if order[start] else [enter(start)]
        while path:
            v, arcs = path[-1]
            for w in arcs:
                if not order[w]:
                    path.append(enter(w))
                    break
                if root[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                path.pop()
                if low[v] == order[v]:  # v is a root: pop its component
                    w = -1
                    while w != v:
                        w = stack.pop()
                        root[w] = v
                elif low[v] < low[path[-1][0]]:  # so v has a parent
                    low[path[-1][0]] = low[v]
    return _first_occurrence(root)


def _first_occurrence(keys) -> tuple[int, ...]:
    """Each key's id, numbering the distinct keys by first occurrence."""
    seen: dict = {}
    return tuple(seen.setdefault(k, len(seen)) for k in keys)


def rees_index(sem: FiniteSemigroup, sub: SubSemigroup) -> int:
    """Cardinality of the complement S minus T."""
    return sub._checked_parent(sem).order - len(sub.members)


@dataclass(frozen=True)
class ConnectorTables:
    """Transport tables moving products past class representatives.

    With h_i the representative of class i and s ranging over S^1
    (index n = adjoined identity):

        s * h_i = h_[left_class[s][i]]  * left_factor[s][i]
        h_i * s = right_factor[i][s] * h_[right_class[i][s]]

    left_class[s][i] is 0 exactly when s * h_i lands in T^1, and dually.
    Factors are elements of T^1.  Witnesses are deterministic: forced when
    the class is 0, the numerically smallest T^1 element otherwise, and the
    adjoined identity acts trivially.
    """

    green: GreenData
    left_class: tuple[tuple[int, ...], ...]
    left_factor: tuple[tuple[int, ...], ...]
    right_class: tuple[tuple[int, ...], ...]
    right_factor: tuple[tuple[int, ...], ...]


def connectors(green: GreenData) -> ConnectorTables:
    """Materialize the four transport tables for all of S^1 x I^1.  Each
    class j has two first-witness indexes (``core._first_witnesses``):
    h_j * t to the first such t, and t * h_j to the first such t."""
    sem, sub = green.sem, green.sub
    n, rows = sem.order, sem.table
    reps = [green.rep_of(j) for j in range(green.class_count)]
    left_by = _first_witnesses(sem, sub, reps)
    right_by = _first_witnesses(sem, sub, reps, left=True)
    class_of = green._class_index.__getitem__
    lc, lf, rc, rf = [], [], [], []  # lc and lf by column, rc and rf by row

    for rep in reps:
        # s * rep and rep * s over s in S; s = 1 gives rep and the factor 1
        if rep == n:
            left = right = range(n)
        else:
            left, right = list(map(itemgetter(rep), rows)), rows[rep]
        for products, by, classes, factors in (
                (left, left_by, lc, lf), (right, right_by, rc, rf)):
            js = list(map(class_of, products))
            classes.append(js + [class_of(rep)])
            # by[IDENTITY_CLASS] maps each t in T^1 to itself
            try:
                factors.append(
                    [*map(dict.__getitem__, map(by.__getitem__, js), products), n])
            except KeyError:
                raise InternalInconsistency(_NO_WITNESS) from None

    return ConnectorTables(
        green=green,
        left_class=tuple(zip(*lc)),
        left_factor=tuple(zip(*lf)),
        right_class=tuple(map(tuple, rc)),
        right_factor=tuple(map(tuple, rf)),
    )


def _witness(index: dict[int, int], product: int) -> int:
    """``index[product]``, or ``InternalInconsistency`` when it is missing."""
    if product not in index:
        raise InternalInconsistency(_NO_WITNESS)
    return index[product]


def eggbox_dot(green: GreenData) -> str:
    """Egg-box diagram as a DOT graph: rows are R-classes, columns are
    L-classes, cells are H-classes; complement cells are shaded."""
    sem = green.sem
    r_order = _class_order(green.r_id, sem.order)
    l_order = _class_order(green.l_id, sem.order)

    cells: dict[tuple[int, int], list[int]] = {}
    for u in sem.elements:
        cells.setdefault((green.r_id[u], green.l_id[u]), []).append(u)

    lines = [
        "digraph eggbox {",
        "  node [shape=plaintext];",
        '  box [label=<<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0">',
    ]
    for rid in r_order:
        row = ["    <TR>"]
        for lid in l_order:
            elems = sorted(cells.get((rid, lid), []))
            text = " ".join(sem.name_of(u) for u in elems) or "&nbsp;"
            shaded = bool(elems) and elems[0] not in green.sub.members
            attr = ' BGCOLOR="lightgrey"' if shaded else ""
            row.append(f"<TD{attr}>{text}</TD>")
        row.append("</TR>")
        lines.append("".join(row))
    lines.append("  </TABLE>>];")
    lines.append("}")
    return "\n".join(lines)


def _class_order(ids, order):
    first: dict[int, int] = {}
    for u in range(order):
        first.setdefault(ids[u], u)
    return sorted(first, key=first.get)
