import hashlib
import json
from collections import Counter
from dataclasses import asdict, replace

import pytest
from helpers import (
    class_pairs,
    fixed_instances,
    ladder_pairs,
    nonperm_ideal,
    random_pairs,
    reference_family_action,
    reference_find_generating_set,
    reference_groups_isomorphic,
    small_pool,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from greenindex import core, factories, growth, present, relgreen, rewrite, schutz
from greenindex.errors import (
    InputError,
    InternalInconsistency,
    NotAnHClass,
    NotComparable,
    NotGenerating,
    OutOfRange,
)


def green_of(sem, sub):
    return relgreen.relative_green(sem, sub)


def test_singleton_class_trivial_group(z6):
    sub = core.closure(z6, [2])  # {0,2,4}; complement classes are singletons
    g = green_of(z6, sub)
    cls = g.h_class_of(1)
    grp = schutz.schutz_group(z6, sub, cls, 1, green=g)
    assert grp.order == len(cls)


def test_z6_schutz_group(z6, t03):
    g = green_of(z6, t03)
    grp = schutz.schutz_group(z6, t03, {1, 4}, 1, green=g)
    assert grp.stabilizer == (0, 3, 6)
    assert {frozenset(c) for c in grp.gamma_classes} == {
        frozenset({0, 6}),
        frozenset({3}),
    }
    assert grp.order == 2
    assert reference_groups_isomorphic(grp.group, factories.zmod(2))
    with pytest.raises(NotAnHClass):
        schutz.schutz_group(z6, t03, {1, 2}, 1, green=g)
    with pytest.raises(NotAnHClass):
        schutz.schutz_group(z6, t03, {1, 4}, 2, green=g)


def test_stabilizer_definitions_agree(instances):
    # the basepoint characterization matches the setwise one
    for _name, sem, sub, _a, _b in instances:
        g = green_of(sem, sub)
        n = sem.order
        for idx in range(1, g.class_count):
            cls = g.complement_classes[idx - 1]
            grp = schutz.schutz_group(sem, sub, cls, g.rep_of(idx), green=g)
            for t in list(sub.sorted_members()) + [n]:
                setwise = frozenset(sem.mul1(h, t) for h in cls) == cls
                assert (t in grp.stabilizer) == setwise


def test_gamma_is_translation_kernel(instances):
    for _name, sem, sub, _a, _b in instances:
        g = green_of(sem, sub)
        for idx in range(1, g.class_count):
            cls = g.complement_classes[idx - 1]
            grp = schutz.schutz_group(sem, sub, cls, g.rep_of(idx), green=g)
            for t1 in grp.stabilizer:
                for t2 in grp.stabilizer:
                    same = all(
                        sem.mul1(h, t1) == sem.mul1(h, t2) for h in cls
                    )
                    assert (grp.quotient[t1] == grp.quotient[t2]) == same
                    # the quotient map respects multiplication
                    prod = sem.mul1(t1, t2)
                    assert grp.quotient[prod] == grp.group.mul(
                        grp.quotient[t1], grp.quotient[t2]
                    )


def test_group_order_equals_class_size(instances):
    for _name, sem, sub, _a, _b in instances:
        g = green_of(sem, sub)
        for idx in range(1, g.class_count):
            cls = g.complement_classes[idx - 1]
            grp = schutz.schutz_group(sem, sub, cls, g.rep_of(idx), green=g)
            assert grp.order == len(cls)
            assert cls == frozenset(
                sem.mul1(grp.basepoint, t) for t in grp.stabilizer
            )
            for t in grp.stabilizer:
                image = [sem.mul1(h, t) for h in grp.carrier]
                assert sorted(image) == list(grp.carrier)


def test_semilattice_class_group_matches_inner_computation():
    # the group of a complement class equals the one computed inside the
    # glued-on semigroup alone
    z4, z2 = factories.zmod(4), factories.zmod(2)
    s, t = core.strong_semilattice(z4, z2, factories.mod_reduction(z4, z2))
    g = green_of(s, t)
    assert g.green_index == 2
    cls = g.complement_classes[0]
    grp = schutz.schutz_group(s, t, cls, g.rep_of(1), green=g)

    u_sub = core.SubSemigroup(parent=z2, members=frozenset(z2.elements))
    gu = green_of(z2, u_sub)
    cls_u = gu.h_class_of(0)
    grp_u = schutz.schutz_group(z2, u_sub, cls_u, 0, green=gu)
    assert reference_groups_isomorphic(grp.group, grp_u.group)


def test_lambda_data_singleton(z6, t03):
    g = green_of(z6, t03)
    fam = schutz.lambda_data(z6, t03, g, {1, 4}, 1)
    assert len(fam.classes) == 1
    assert fam.to_witness == (z6.order,)
    assert fam.back_witness == (z6.order,)


def test_lambda_data_transformation_monoid():
    t2 = factories.full_transformation_monoid(2)
    full = core.SubSemigroup(parent=t2, members=frozenset(t2.elements))
    g = green_of(t2, full)
    consts = [x for x in t2.elements if len(set(t2.names[x])) == 1]
    cls = g.h_class_of(consts[0])
    assert cls == {consts[0]}
    fam = schutz.lambda_data(t2, full, g, cls, consts[0])
    assert len(fam.classes) == 2
    sem = t2
    for pos, target in enumerate(fam.classes):
        for h in cls:
            assert sem.mul1(sem.mul1(h, fam.to_witness[pos]),
                            fam.back_witness[pos]) == h
        for h2 in target:
            assert sem.mul1(sem.mul1(h2, fam.back_witness[pos]),
                            fam.to_witness[pos]) == h2
        image = frozenset(sem.mul1(h, fam.to_witness[pos]) for h in cls)
        assert image == target


def test_lambda_witness_equations_everywhere(instances):
    for _name, sem, sub, _a, _b in instances:
        g = green_of(sem, sub)
        for idx in range(1, g.class_count):
            cls = g.complement_classes[idx - 1]
            fam = schutz.lambda_data(sem, sub, g, cls, g.rep_of(idx))
            for pos, target in enumerate(fam.classes):
                for h in cls:
                    assert sem.mul1(sem.mul1(h, fam.to_witness[pos]),
                                    fam.back_witness[pos]) == h
                for h2 in target:
                    assert sem.mul1(sem.mul1(h2, fam.back_witness[pos]),
                                    fam.to_witness[pos]) == h2
                assert frozenset(
                    sem.mul1(h, fam.to_witness[pos]) for h in cls
                ) == target


def _assert_family_matches_reference(sem, sub):
    """``lambda_data`` at every H-class, inside T and outside it, against
    the S rescan, the set-image action and first-match linear scans."""
    g = green_of(sem, sub)
    t_one = sub.t_one()
    for h_class in {g.h_class_of(x) for x in sem.elements}:
        base = min(h_class)
        fam = schutz.lambda_data(sem, sub, g, h_class, base)
        family = sorted((g.h_class_of(u) for u in sem.elements
                         if g.r_id[u] == g.r_id[base]), key=min)
        assert list(fam.classes) == list(dict.fromkeys(family))
        assert fam.action == reference_family_action(sem, sub, fam.classes)
        for p, cls in enumerate(fam.classes):
            if p == fam.base_pos:
                assert fam.to_witness[p] == fam.back_witness[p] == sem.order
                continue
            assert fam.to_witness[p] == next(
                t for t in t_one if sem.mul1(base, t) == min(cls))
            assert fam.back_witness[p] == next(
                t for t in t_one if sem.mul1(min(cls), t) == base)


def test_lambda_data_matches_reference_on_the_ladder():
    cases = [(sem, sub) for _n, sem, sub, _a, _b in fixed_instances()]
    cases += ladder_pairs() + [nonperm_ideal(3), nonperm_ideal(4)]
    cases += random_pairs(60)
    for sem, sub in cases:
        _assert_family_matches_reference(sem, sub)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.data())
def test_lambda_data_matches_reference_on_random_subsemigroups(pick, data):
    pool = small_pool()
    sem = pool[pick % len(pool)]
    gens = data.draw(st.lists(st.integers(0, sem.order - 1),
                              min_size=1, max_size=3))
    _assert_family_matches_reference(sem, core.closure(sem, gens))


def test_find_generating_set_matches_the_rebuilding_reference():
    sems = [sem for sem, _sub in ladder_pairs() + random_pairs(25)]
    sems += [factories.zmod(n) for n in (8, 16, 24, 32, 48, 64)]
    sems.append(factories.full_transformation_monoid(4))
    for sem in sems:
        assert schutz.find_generating_set(sem) == reference_find_generating_set(sem)


def test_schutz_generators_z6(z6, t03):
    g = green_of(z6, t03)
    grp = schutz.schutz_group(z6, t03, {1, 4}, 1, green=g)
    fam = schutz.lambda_data(z6, t03, g, {1, 4}, 1)
    gens = schutz.schutz_generators([3], fam, grp)
    assert core.generated(grp.group, gens).members == frozenset(range(grp.order))
    with pytest.raises(NotGenerating):
        schutz.schutz_generators([0], fam, grp)


def test_schutz_generators_classical_transformation_monoid():
    # classical case: the subsemigroup is the whole monoid
    t2 = factories.full_transformation_monoid(2)
    full = core.SubSemigroup(parent=t2, members=frozenset(t2.elements))
    g = green_of(t2, full)
    b_gens = [x for x in t2.elements]
    # the units {identity, swap} form an H-class with a 2-element group
    ident = next(x for x in t2.elements if t2.names[x] == "01")
    cls = g.h_class_of(ident)
    assert len(cls) == 2
    grp = schutz.schutz_group(t2, full, cls, ident, green=g)
    fam = schutz.lambda_data(t2, full, g, cls, ident)
    gens = schutz.schutz_generators(b_gens, fam, grp)
    assert core.generated(grp.group, gens).members == frozenset(range(grp.order))
    # and every singleton constant class has a trivial group
    consts = [x for x in t2.elements if len(set(t2.names[x])) == 1]
    cls_c = g.h_class_of(consts[0])
    grp_c = schutz.schutz_group(t2, full, cls_c, consts[0], green=g)
    fam_c = schutz.lambda_data(t2, full, g, cls_c, consts[0])
    gens_c = schutz.schutz_generators(b_gens, fam_c, grp_c)
    reached = (core.generated(grp_c.group, gens_c).members if gens_c
               else {grp_c.group.identity})
    assert reached == frozenset({grp_c.group.identity})


def test_generator_products_stay_in_stabilizer(instances):
    for _name, sem, sub, _a, b_gens in instances:
        g = green_of(sem, sub)
        for idx in range(1, g.class_count):
            cls = g.complement_classes[idx - 1]
            grp = schutz.schutz_group(sem, sub, cls, g.rep_of(idx), green=g)
            fam = schutz.lambda_data(sem, sub, g, cls, g.rep_of(idx))
            for pos in range(len(fam.classes)):
                for t in sub.sorted_members():
                    q = fam.act(pos, t)
                    if q is None:
                        continue
                    elt = sem.mul1(
                        sem.mul1(fam.to_witness[pos], t), fam.back_witness[q]
                    )
                    assert elt in grp.quotient  # lands in the stabilizer
            # every congruence class arises from a plain stabilizer element
            assert set(grp.quotient.values()) == set(range(grp.order))


def test_transport_self(z6, t03):
    g = green_of(z6, t03)
    rep = schutz.check_L_R_transport(g, 1, 1)
    assert rep.stabilizers_equal and rep.gamma_equal
    assert rep.isomorphism == tuple(range(schutz.class_group(g, 1).order))


def test_transport_pairs(instances):
    found_l = found_r = 0
    for _name, sem, sub, _a, _b in instances:
        g = green_of(sem, sub)
        k = g.class_count - 1
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i == j:
                    continue
                ri, rj = g.rep_of(i), g.rep_of(j)
                l_rel = g.l_id[ri] == g.l_id[rj]
                r_rel = g.r_id[ri] == g.r_id[rj]
                if not (l_rel or r_rel):
                    with pytest.raises(NotComparable):
                        schutz.check_L_R_transport(g, i, j)
                    continue
                rep = schutz.check_L_R_transport(g, i, j)
                if l_rel:
                    found_l += 1
                    assert rep.stabilizers_equal
                    assert rep.gamma_equal
                if r_rel:
                    found_r += 1
                    assert rep.isomorphism is not None
    assert found_l > 0 and found_r > 0


def test_groups_isomorphic():
    z4 = factories.zmod(4)
    klein = factories.direct_product(factories.zmod(2), factories.zmod(2))
    assert not reference_groups_isomorphic(z4, klein)
    assert reference_groups_isomorphic(factories.zmod(6), factories.zmod(6))
    z6_alt = factories.direct_product(factories.zmod(2), factories.zmod(3))
    assert reference_groups_isomorphic(factories.zmod(6), z6_alt)
    s3 = factories.symmetric_group(3)
    assert not reference_groups_isomorphic(s3, factories.zmod(6))
    with pytest.raises(NotComparable):
        reference_groups_isomorphic(factories.right_zero(2), factories.zmod(2))


def test_class_group_is_built_once_and_kept(instances):
    for _name, sem, sub, _a, _b in instances:
        g = green_of(sem, sub)
        for i in range(1, g.class_count):
            grp = schutz.class_group(g, i)
            assert schutz.class_group(g, i) is grp
            fresh = schutz.schutz_group(
                sem, sub, g.complement_classes[i - 1], g.rep_of(i), green=g
            )
            assert grp == fresh
        for i in (0, g.class_count, -1):
            with pytest.raises(OutOfRange):
                schutz.class_group(g, i)


def test_each_class_group_built_once_per_green_data(instances, monkeypatch):
    built = Counter()
    real = schutz._build_group

    def counting(green, h_class, basepoint):
        built[basepoint] += 1
        return real(green, h_class, basepoint)

    monkeypatch.setattr(schutz, "_build_group", counting)
    for _name, sem, sub, _a, b_gens in instances:
        built.clear()
        g = green_of(sem, sub)
        conn = relgreen.connectors(g)
        q_pres, q_assign = present.sub_table_presentation(sem, sub)
        present.build_schutz_packs(sem, sub, g, q_pres, q_assign)
        ctx = present.word_problem_context(sem, sub, green=g, conn=conn)
        d_letters = [f"d{i}" for i in range(1, g.class_count)]
        for w1 in d_letters:
            for w2 in d_letters:
                rewrite.word_equality_report((w1, w1), (w2,), ctx)
        for i in range(1, g.class_count):
            for j in range(1, g.class_count):
                try:
                    schutz.check_L_R_transport(g, i, j)
                except NotComparable:
                    pass
        for _ in range(2):
            # certify's generators task, then the CLI's schutz command at
            # an H-class inside T
            for i in range(1, g.class_count):
                cls, rep = g.complement_classes[i - 1], g.rep_of(i)
                grp = schutz.schutz_group(sem, sub, cls, rep, green=g)
                fam = schutz.lambda_data(sem, sub, g, cls, rep)
                schutz.schutz_generators(b_gens, fam, grp)
            inner = g.h_class_of(min(sub.members))
            schutz.schutz_group(sem, sub, inner, min(inner), green=g)
        assert built == Counter([*g.reps, min(inner)])


def _r_related_pairs(g):
    """Ordered pairs (i, j) of complement classes that are R-related,
    i == j included."""
    return [
        (i, j)
        for i in range(1, g.class_count)
        for j in range(1, g.class_count)
        if g.r_id[g.rep_of(i)] == g.r_id[g.rep_of(j)]
    ]


def _assert_isomorphism(iso, a, b):
    """``iso`` is a bijection a -> b respecting both group tables."""
    assert sorted(iso) == list(range(b.order)) and len(iso) == a.order
    for x in a.elements:
        for y in a.elements:
            assert iso[a.mul(x, y)] == b.mul(iso[x], iso[y])


def _s3_times_z25():
    """S3 x Z25 over <(12)> x Z25: four complement classes in two R-classes,
    each group of order 25, above any brute-force search bound."""
    s3, z25 = factories.symmetric_group(3), factories.zmod(25)
    sem = factories.direct_product(s3, z25)
    swap = s3.names.index("102")
    return green_of(sem, core.closure(sem, [swap * 25, 1]))


def test_transport_refuses_class_indices_outside_the_complement(z6, t03):
    # these used to end in a bare IndexError, or for -1 wrap around to
    # the last class
    g = green_of(z6, t03)
    for i, j in ((0, 1), (1, 0), (3, 1), (1, 3), (-1, 1)):
        with pytest.raises(OutOfRange, match="^complement class"):
            schutz.check_L_R_transport(g, i, j)


def test_transport_certifies_order_25_groups():
    g = _s3_times_z25()
    assert g.green_index == 5
    pairs = [(i, j) for i, j in _r_related_pairs(g) if i != j]
    assert len(pairs) == 4
    for i, j in pairs:
        rep = schutz.check_L_R_transport(g, i, j)
        gi, gj = schutz.class_group(g, i), schutz.class_group(g, j)
        assert gi.order == 25
        assert rep.isomorphism is not None
        _assert_isomorphism(rep.isomorphism, gi.group, gj.group)


def test_transport_refuses_a_broken_class_group():
    # relabel two elements of one class group: the conjugation map no
    # longer carries each translation to its own image
    g = _s3_times_z25()
    i, j = next((i, j) for i, j in _r_related_pairs(g) if i != j)
    grp = schutz.class_group(g, j)
    swap = {0: 1, 1: 0}
    quotient = {t: swap.get(q, q) for t, q in grp.quotient.items()}
    g._group_cache[g.rep_of(j)] = replace(grp, quotient=quotient)
    with pytest.raises(InternalInconsistency, match="not an isomorphism"):
        schutz.check_L_R_transport(g, i, j)


def test_transport_isomorphism_matches_brute_force():
    s4 = factories.symmetric_group(4)
    cases = [(sem, sub) for _n, sem, sub, _a, _b in fixed_instances()]
    cases += [nonperm_ideal(3), nonperm_ideal(4)]
    cases += [(s4, core.closure(s4, [s4.names.index("1023")]))]
    cases += random_pairs(40)
    distinct = 0
    for sem, sub in cases:
        g = green_of(sem, sub)
        for i, j in _r_related_pairs(g):
            iso = schutz.check_L_R_transport(g, i, j).isomorphism
            gi, gj = schutz.class_group(g, i), schutz.class_group(g, j)
            _assert_isomorphism(iso, gi.group, gj.group)
            assert reference_groups_isomorphic(gi.group, gj.group)
            if i == j:
                assert iso == tuple(range(gi.order))
            distinct += i != j
    assert distinct == 48


def test_schutz_group_refuses_other_green_data(z6, t03):
    # the Green data of {0, 2, 4} makes {1, 3, 5} an H-class; over {0, 3}
    # its group came out of order 1 with stabilizer (0, 6)
    t024 = core.closure(z6, [2])
    g024 = green_of(z6, t024)
    with pytest.raises(InputError, match="^subsemigroup does not match"):
        schutz.schutz_group(z6, t03, {1, 3, 5}, 1, green=g024)
    grp = schutz.schutz_group(z6, t024, {1, 3, 5}, 1, green=g024)
    assert grp.order == 3 and grp.stabilizer == (0, 2, 4, 6)


def test_lambda_data_refuses_other_green_data(z6, t03):
    g024 = green_of(z6, core.closure(z6, [2]))
    with pytest.raises(InputError, match="^subsemigroup does not match"):
        schutz.lambda_data(z6, t03, g024, {1, 3, 5}, 1)


@pytest.mark.parametrize("k", [6, 5], ids=["s4_c2", "t3_const"])
def test_schutz_generators_refuses_the_group_of_another_class(k):
    # S4 over <(12)> has class groups of order 2, T3 over its constants of
    # order 1; a group from another class is the caller's error, and the
    # matched pairs still harvest generators of their group
    sem, sub = ladder_pairs()[k]
    pairs = class_pairs(sem, sub, green_of(sem, sub))
    b_gens = list(sub._t_gens)
    for i, (fam, _) in enumerate(pairs):
        for j, (_, grp) in enumerate(pairs):
            if i != j:
                with pytest.raises(NotAnHClass, match="family's base class"):
                    schutz.schutz_generators(b_gens, fam, grp)
                continue
            gens = schutz.schutz_generators(b_gens, fam, grp)
            reached = core.generated(grp.group, gens or [grp.group.identity])
            assert reached.members == frozenset(range(grp.order))
    assert max(grp.order for _, grp in pairs) == (2 if k == 6 else 1)


def test_t4_ideal_generators_and_growth_are_pinned():
    # T4 over its ideal from find_generating_set's 36 letters: the harvest
    # B is all of T, so every class harvest and k2 run over |B| = |T| = 232,
    # past the ladder; pinned by sha256 of the sorted-key JSON
    t4, ideal = nonperm_ideal(4)
    g = green_of(t4, ideal)
    conn = relgreen.connectors(g)
    b_gens = sorted(rewrite.schreier_generators(
        t4, schutz.find_generating_set(t4), ideal, g, conn)[0])
    harvests = [sorted(schutz.schutz_generators(b_gens, fam, grp))
                for fam, grp in class_pairs(t4, ideal, g)]
    report = growth.domination_check(
        t4, ideal, sorted(set(g.reps) | {t4.order}), b_gens, 4)
    assert len(b_gens) == len(ideal) == 232
    assert (report.k1, report.k2, report.holds) == (25, 1, True)

    def digest(obj):
        return hashlib.sha256(
            json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()

    assert digest(b_gens) == (
        "44a32326c8acc1441db8282ba8fdb18394f65f6af7fbca798ab8d301a6518795")
    assert digest(harvests) == (
        "5e3393def462e8228a8c31420b2ff02ef0fae506c917d4086cdd730360aec84a")
    assert digest(asdict(report)) == (
        "32ada0e705f50bd097ec8e1a66d1ec88177867163290a638719284b92eb5dd61")
