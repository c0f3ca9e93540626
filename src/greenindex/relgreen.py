"""Relative Green's relations, Green index, and connector tables.

All relations are taken relative to a fixed subsemigroup T of S: two elements
are R-related when their right principal sets u*T^1 agree, L-related when the
left principal sets agree, and H-related when both do.  Every class lies
wholly inside T or wholly inside the complement; the complement H-classes are
indexed 1..k by their smallest member, and index 0 stands for the class {1}
of the adjoined identity.  The Green index is k + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import FiniteSemigroup, SubSemigroup, _check_index, _first_witnesses
from .errors import InputError, InternalInconsistency

IDENTITY_CLASS = 0


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
    """Compute the relative Green's relations by comparing principal sets."""
    if sub.parent is not sem and sub.parent != sem:
        raise InputError("subsemigroup belongs to another semigroup")
    members = sub.sorted_members()

    def class_ids(keys):
        seen: dict = {}
        out = []
        for k in keys:
            if k not in seen:
                seen[k] = len(seen)
            out.append(seen[k])
        return tuple(out)

    right_keys = [
        frozenset(sem.mul(u, t) for t in members) | {u} for u in sem.elements
    ]
    left_keys = [
        frozenset(sem.mul(t, u) for t in members) | {u} for u in sem.elements
    ]
    r_id = class_ids(right_keys)
    l_id = class_ids(left_keys)
    h_id = class_ids(list(zip(r_id, l_id)))
    return GreenData(sem=sem, sub=sub, r_id=r_id, l_id=l_id, h_id=h_id)


def rees_index(sem: FiniteSemigroup, sub: SubSemigroup) -> int:
    """Cardinality of the complement S minus T."""
    return sem.order - len(sub.members)


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
    n = sem.order
    k = len(green.complement_classes)
    reps = [green.rep_of(j) for j in range(k + 1)]
    left_by = _first_witnesses(sem, sub, reps)
    right_by = _first_witnesses(sem, sub, reps, left=True)

    lc = [[0] * (k + 1) for _ in range(n + 1)]
    lf = [[0] * (k + 1) for _ in range(n + 1)]
    rc = [[0] * (n + 1) for _ in range(k + 1)]
    rf = [[0] * (n + 1) for _ in range(k + 1)]

    for i, rep in enumerate(reps):
        for s in range(n + 1):
            p = sem.mul1(s, rep)
            j = green.class_of(p)
            lc[s][i] = j
            if s == n:
                lf[s][i] = n
            elif j == IDENTITY_CLASS:
                lf[s][i] = p
            else:
                lf[s][i] = _witness(left_by[j], p)

            q = sem.mul1(rep, s)
            j2 = green.class_of(q)
            rc[i][s] = j2
            if s == n:
                rf[i][s] = n
            elif j2 == IDENTITY_CLASS:
                rf[i][s] = q
            else:
                rf[i][s] = _witness(right_by[j2], q)

    return ConnectorTables(
        green=green,
        left_class=tuple(tuple(r) for r in lc),
        left_factor=tuple(tuple(r) for r in lf),
        right_class=tuple(tuple(r) for r in rc),
        right_factor=tuple(tuple(r) for r in rf),
    )


def _witness(index: dict[int, int], product: int) -> int:
    """``index[product]``, or ``InternalInconsistency`` when it is missing."""
    if product not in index:
        raise InternalInconsistency("no T^1 witness; GreenData is broken")
    return index[product]


def eggbox_dot(green: GreenData, highlight_complement: bool = True) -> str:
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
            attr = ' BGCOLOR="lightgrey"' if (shaded and highlight_complement) else ""
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
