"""Raw Cayley tables and the (S, T) instances the workloads run on.

Tables are built here as plain lists, so that the set-up the benchmark
times starts from raw tables, as a CLI call starting from JSON does.  The
element numbering matches ``greenindex.factories``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
class RawInstance:
    """A raw table for S, the members of T, and the facts the answers are
    checked against."""

    name: str
    table: list[list[int]]
    names: tuple[str, ...] | None
    members: frozenset[int]
    green_index: int


def zmod(n):
    return [[(x + y) % n for y in range(n)] for x in range(n)], None


def _maps(points, maps):
    idx = {m: i for i, m in enumerate(maps)}
    rows = [[idx[tuple(g[f[x]] for x in range(points))] for g in maps]
            for f in maps]
    return rows, tuple("".join(str(v) for v in m) for m in maps)


def transformations(k):
    """The full transformation monoid T_k, "apply left, then right"."""
    return _maps(k, sorted(product(range(k), repeat=k)))


def symmetric(k):
    perms = sorted(p for p in product(range(k), repeat=k) if len(set(p)) == k)
    return _maps(k, perms)


def direct_product(a, b):
    na, nb = len(a), len(b)
    return [[a[x1][x2] * nb + b[y1][y2] for x2 in range(na) for y2 in range(nb)]
            for x1 in range(na) for y1 in range(nb)], None


def strong_semilattice(t, u, phi):
    """T on 0..|T|-1 glued below U on the rest through phi: T -> U."""
    nt, n = len(t), len(t) + len(u)

    def prod(x, y):
        if x < nt and y < nt:
            return t[x][y]
        ux = phi[x] if x < nt else x - nt
        uy = phi[y] if y < nt else y - nt
        return nt + u[ux][uy]

    return [[prod(x, y) for y in range(n)] for x in range(n)], None


def closure(table, gens):
    seen, frontier = set(gens), list(gens)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                for p in (table[x][g], table[g][x]):
                    if p not in seen:
                        seen.add(p)
                        new.append(p)
        frontier = new
    return frozenset(seen)


def nonperm_ideal(k):
    """T_k and its ideal of non-permutations."""
    table, names = transformations(k)
    ideal = frozenset(i for i, m in enumerate(names) if len(set(m)) < k)
    return table, names, ideal


def t4_ideal():
    table, names, ideal = nonperm_ideal(4)
    return RawInstance("t4_ideal", table, names, ideal, 25)


def t3_ideal():
    table, names, ideal = nonperm_ideal(3)
    return RawInstance("t3_ideal", table, names, ideal, 7)


def ladder():
    """The certify ladder: the four test instances, then larger ones."""
    out = []
    z6, _ = zmod(6)
    out.append(RawInstance("z6_mod2", z6, None, closure(z6, [3]), 3))
    z2, _ = zmod(2)
    z1, _ = zmod(1)
    t, _ = strong_semilattice(z2, z1, [0, 0])
    out.append(RawInstance("ss_z2_trivial", t, None, frozenset(range(2)), 2))
    z4, _ = zmod(4)
    t, _ = strong_semilattice(z4, z2, [x % 2 for x in range(4)])
    out.append(RawInstance("ss_z4_z2", t, None, frozenset(range(4)), 2))
    s3, names = symmetric(3)
    out.append(RawInstance("s3_nonnormal", s3, names, closure(s3, [2]), 5))

    t3, names, ideal = nonperm_ideal(3)
    out.append(RawInstance("t3_ideal", t3, names, ideal, 7))
    consts = frozenset(i for i, m in enumerate(names) if len(set(m)) == 1)
    out.append(RawInstance("t3_const", t3, names, consts, 25))
    s4, names4 = symmetric(4)
    swap = names4.index("1023")
    out.append(RawInstance("s4_c2", s4, names4, closure(s4, [swap]), 22))
    for m, gi in ((2, 13), (3, 19)):
        zm, _ = zmod(m)
        tab, _ = direct_product(t3, zm)
        sub = frozenset(x for x in range(len(tab)) if x // m in ideal)
        out.append(RawInstance(f"t3xz{m}", tab, None, sub, gi))
    return out


ZN_ORDERS = (8, 16, 24, 32, 48, 64)
