"""Relative Schutzenberger groups realized as permutation groups.

The stabilizer of an H-class H is the set of T^1 elements whose right
translation keeps H inside itself; two stabilizer elements are congruent when
they translate every point of H identically.  The quotient acts simply
transitively on H, so it is faithfully realized as the group of translation
permutations of H, with a Cayley table of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    FiniteSemigroup,
    SubSemigroup,
    _check_index,
    _first_witnesses,
    _generating,
    _right_generators,
    is_group,
    validate_table,
)
from .errors import (
    InternalInconsistency,
    NotAnHClass,
    NotComparable,
)
from .relgreen import GreenData, _witness


@dataclass(frozen=True)
class SchutzGroup:
    """Stabilizer, translation congruence and quotient group of one H-class.

    ``carrier`` fixes an ordering of the H-class; ``perms[g]`` is the
    permutation of carrier positions realized by group element g; and
    ``quotient[t]`` sends a stabilizer element to its group element.
    """

    h_class: frozenset[int]
    basepoint: int
    carrier: tuple[int, ...]
    stabilizer: tuple[int, ...]
    gamma_classes: tuple[tuple[int, ...], ...]
    group: FiniteSemigroup
    perms: tuple[tuple[int, ...], ...]
    quotient: dict[int, int]

    def quotient_index(self, t: int) -> int:
        try:
            return self.quotient[t]
        except KeyError:
            raise InternalInconsistency(
                f"{t} is not in the stabilizer of this H-class"
            ) from None

    @property
    def order(self) -> int:
        return self.group.order


def _h_class_arg(sem, sub, green: GreenData, h_class, basepoint: int):
    """``h_class`` as a frozenset, once it is the relative H-class of
    ``basepoint`` in ``green`` (``NotAnHClass`` otherwise)."""
    green._check_built_from(sub, sem)
    h_class = frozenset(h_class)
    if basepoint not in h_class:
        raise NotAnHClass("basepoint must belong to the class")
    if h_class != green.h_class_of(basepoint):
        raise NotAnHClass("the given set is not a single relative H-class")
    return h_class


def schutz_group(
    sem: FiniteSemigroup,
    sub: SubSemigroup,
    h_class,
    basepoint: int,
    *,
    green: GreenData,
) -> SchutzGroup:
    """The Schutzenberger group of an H-class (inside or outside T), given
    the Green data of (S, T); built once per basepoint and kept there."""
    h_class = _h_class_arg(sem, sub, green, h_class, basepoint)
    groups = green._group_cache
    if basepoint not in groups:
        groups[basepoint] = _build_group(green, h_class, basepoint)
    return groups[basepoint]


def _build_group(green: GreenData, h_class: frozenset[int], basepoint: int):
    """The one builder of Schutzenberger groups, behind :func:`schutz_group`."""
    sem = green.sem
    carrier = tuple(sorted(h_class))
    pos = {h: p for p, h in enumerate(carrier)}

    # the stabilizer, in T^1 order, with each element's translation of H
    perm_of = {t: tuple(pos[sem.mul1(h, t)] for h in carrier)
               for t in green.sub.t_one() if sem.mul1(basepoint, t) in h_class}

    perms = sorted(set(perm_of.values()))
    perm_index = {p: i for i, p in enumerate(perms)}
    quotient = {t: perm_index[p] for t, p in perm_of.items()}

    gamma: list[list[int]] = [[] for _ in perms]
    for t, g in quotient.items():
        gamma[g].append(t)

    table = [
        [perm_index[tuple(g[p] for p in f)] for g in perms] for f in perms
    ]
    group = validate_table(table)
    if not is_group(group):
        raise InternalInconsistency("translation quotient is not a group")
    return SchutzGroup(
        h_class=h_class,
        basepoint=basepoint,
        carrier=carrier,
        stabilizer=tuple(perm_of),
        gamma_classes=tuple(map(tuple, gamma)),
        group=group,
        perms=tuple(perms),
        quotient=quotient,
    )


def class_group(green: GreenData, i: int) -> SchutzGroup:
    """The Schutzenberger group of complement class i, based at the class
    representative: :func:`schutz_group`'s, read straight from its cache
    once built, since a class index names a valid H-class."""
    _check_index(i, green.class_count, "complement class", 1)
    rep = green.reps[i - 1]
    built = green._group_cache.get(rep)
    return built or schutz_group(green.sem, green.sub,
                                 green.complement_classes[i - 1], rep, green=green)


@dataclass(frozen=True)
class HClassFamily:
    """The H-classes inside one R-class, linked back to a base class.

    ``to_witness[p]`` and ``back_witness[p]`` are T^1 elements translating
    the base class onto classes[p] and back, acting as mutually inverse
    bijections.  ``action`` records how T^1 permutes the family by right
    translation, with None as the sink for translations that leave it.
    """

    sem: FiniteSemigroup
    sub: SubSemigroup
    classes: tuple[frozenset[int], ...]
    base_pos: int
    to_witness: tuple[int, ...]
    back_witness: tuple[int, ...]
    action: dict[tuple[int, int], int | None]

    def act(self, p: int, t: int) -> int | None:
        return self.action[(p, t)]


def lambda_data(
    sem: FiniteSemigroup,
    sub: SubSemigroup,
    green: GreenData,
    h_class,
    basepoint: int,
) -> HClassFamily:
    """Collect the H-classes R-related to the given one, with connecting
    witnesses chosen smallest-first.  By the relative Green's lemma, h * t
    is R-related to h exactly when H * t is the H-class of h * t, so T^1
    acts on the family through one point per class."""
    h_class = _h_class_arg(sem, sub, green, h_class, basepoint)
    r_id, h_id = green.r_id, green.h_id
    # _h_classes lists the H-classes in order of their least members
    classes = tuple(c for c in green._h_classes.values()
                    if r_id[next(iter(c))] == r_id[basepoint])
    base_pos = classes.index(h_class)
    mins = [min(c) for c in classes]

    from_base, *from_mins = _first_witnesses(sem, sub, [basepoint, *mins])
    to_w, back_w = zip(*(
        (sem.order, sem.order) if p == base_pos
        else (_witness(from_base, m), _witness(from_mins[p], basepoint))
        for p, m in enumerate(mins)
    ))

    pos = {h_id[m]: p for p, m in enumerate(mins)}
    mul1, t_one = sem.mul1, sub.t_one()
    action = {(p, t): pos.get(h_id[mul1(m, t)])
              for p, m in enumerate(mins) for t in t_one}
    return HClassFamily(
        sem=sem,
        sub=sub,
        classes=classes,
        base_pos=base_pos,
        to_witness=to_w,
        back_witness=back_w,
        action=action,
    )


def schutz_generators(
    b_gens: Sequence[int], family: HClassFamily, grp: SchutzGroup
) -> frozenset[int]:
    """Group generators harvested from generators of T: conjugate each
    generator's translation through the class-connecting witnesses.  Returns
    group element indices; ``NotAnHClass`` for another class's group."""
    sem = family.sem
    _generating(family.sub.parent, b_gens, family.sub.members, "T")
    if grp.h_class != family.classes[family.base_pos]:
        raise NotAnHClass("the group is not that of the family's base class")
    out = set()
    for p in range(len(family.classes)):
        for b in sorted(set(b_gens)):
            q = family.act(p, b)
            if q is None:
                continue
            elt = sem.prod1((family.to_witness[p], b, family.back_witness[q]))
            out.add(grp.quotient_index(elt))
    return frozenset(out)


def find_generating_set(sem: FiniteSemigroup) -> tuple[int, ...]:
    """A small (not minimal) generating set, chosen deterministically: the
    elements in index order, each kept if those before do not generate it."""
    return tuple(_right_generators(sem.table, sem.elements)[0])


@dataclass(frozen=True)
class TransportReport:
    """How the Schutzenberger data of two complement classes i, j compare.

    ``stabilizers_equal`` and ``gamma_equal`` are None unless the classes
    are L-related.  ``isomorphism`` is None unless they are R-related; then
    it sends group element g of Gamma_i to that of t' * v * t in Gamma_j,
    where v is the first stabilizer element in class g and t, t' are the
    first T^1 elements with h_i * t = h_j and h_j * t' = h_i.
    """

    relation: str
    stabilizers_equal: bool | None
    gamma_equal: bool | None
    isomorphism: tuple[int, ...] | None


def check_L_R_transport(green: GreenData, i: int, j: int) -> TransportReport:
    """Compare the Schutzenberger data of two complement classes (each
    index in [1, class_count), else ``OutOfRange``).

    L-related classes must share the stabilizer and its congruence
    partition.  R-related classes get the isomorphism of the relative
    Green's lemma, certified: it is a bijection, and each translation of
    H_j it yields is the one of H_i conjugated through h -> h * t, so it
    respects the group tables.  A failed certificate means ``green`` is
    broken (``InternalInconsistency``)."""
    gi, gj = class_group(green, i), class_group(green, j)
    ri, rj = gi.basepoint, gj.basepoint
    l_related = green.l_id[ri] == green.l_id[rj]
    r_related = green.r_id[ri] == green.r_id[rj]
    if not l_related and not r_related:
        raise NotComparable("classes are neither L-related nor R-related")

    stab_eq = gamma_eq = iso = None
    if l_related:
        stab_eq = gi.stabilizer == gj.stabilizer
        parts_i = {frozenset(c) for c in gi.gamma_classes}
        parts_j = {frozenset(c) for c in gj.gamma_classes}
        gamma_eq = parts_i == parts_j
    if r_related:
        sem = green.sem
        from_i, from_j = _first_witnesses(sem, green.sub, (ri, rj))
        t, back = _witness(from_i, rj), _witness(from_j, ri)
        pos = {h: p for p, h in enumerate(gj.carrier)}
        sigma = [pos.get(sem.mul1(h, t), -1) for h in gi.carrier]
        iso = tuple(gj.quotient_index(sem.prod1((back, vs[0], t)))
                    for vs in gi.gamma_classes)
        if (sorted(sigma) != list(range(len(gj.carrier)))
                or sorted(iso) != list(range(gj.order))
                or any(gj.perms[iso[g]][sigma[p]] != sigma[q]
                       for g, perm in enumerate(gi.perms)
                       for p, q in enumerate(perm))):
            raise InternalInconsistency(
                "conjugation through the witness is not an isomorphism")
    return TransportReport(
        relation=("LR" if l_related and r_related else "L" if l_related else "R"),
        stabilizers_equal=stab_eq,
        gamma_equal=gamma_eq,
        isomorphism=iso,
    )
