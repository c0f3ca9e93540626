"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import operator
import subprocess
import sys
import time
from itertools import product

import pytest

from greenindex import automatic as au
from greenindex import core, factories, growth, present, relgreen, rewrite, schutz

from helpers import (
    accepts_pair,
    enumerate_words,
    fixed_instances,
    random_pairs,
    relation_pairs,
    semigroup_tables,
    transfer_relation,
    wp_context,
)


@pytest.fixture(scope="module")
def fixed():
    return fixed_instances()


@pytest.fixture(scope="module")
def randoms():
    return random_pairs(50)


def sub_generators(sem, sub):
    gens = []
    have = frozenset()
    for x in sub.sorted_members():
        if x not in have:
            gens.append(x)
            have = core.closure(sem, gens).members
            if have == sub.members:
                break
    return gens


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_connector_soundness(fixed, randoms):
    start = time.time()
    pairs = [(s, t) for _n, s, t, _a, _b in fixed] + list(randoms)
    checked = 0
    for sem, sub in pairs:
        g = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(g)
        n = sem.order
        t_one = set(sub.members) | {n}
        for s in range(n + 1):
            for i in range(g.class_count):
                prod = sem.mul1(s, g.rep_of(i))
                j = conn.left_class[s][i]
                assert conn.left_factor[s][i] in t_one
                assert prod == sem.mul1(g.rep_of(j), conn.left_factor[s][i])
                assert (j == 0) == (prod == n or prod in sub.members)
                prod2 = sem.mul1(g.rep_of(i), s)
                j2 = conn.right_class[i][s]
                assert conn.right_factor[i][s] in t_one
                assert prod2 == sem.mul1(conn.right_factor[i][s], g.rep_of(j2))
                assert (j2 == 0) == (prod2 == n or prod2 in sub.members)
                checked += 2
    elapsed = time.time() - start
    assert elapsed < 30
    report(1, f"connector equations on {len(pairs)} instances,"
              f" {checked} cells, {elapsed:.1f}s")


def test_criterion_02_representative_pushing(fixed):
    checked = 0
    for _name, sem, sub, _a, _b in fixed:
        g = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(g)
        n = sem.order
        members = sub.sorted_members()
        for i in range(g.class_count):
            rep = g.rep_of(i)
            for length in range(5):
                for word in product(range(n), repeat=length):
                    tr = rewrite.push_right(i, word, conn)
                    assert sem.prod1([rep, *word]) == sem.prod1(
                        [*tr.output_word, g.rep_of(tr.output_class)]
                    )
                    tl = rewrite.push_left(i, word, conn)
                    assert sem.prod1([*word, rep]) == sem.prod1(
                        [g.rep_of(tl.output_class), *tl.output_word]
                    )
                    checked += 2
            for length in range(5):
                for word in product(members, repeat=length):
                    tr = rewrite.push_right(i, word, conn)
                    value = sem.prod1([rep, *word])
                    out_rep = g.rep_of(tr.output_class)
                    if value == n or value in sub.members:
                        assert tr.output_class == 0
                    else:
                        assert g.l_id[value] == g.l_id[out_rep]
                        if g.r_id[value] == g.r_id[rep]:
                            assert g.h_id[value] == g.h_id[out_rep]
                    tl = rewrite.push_left(i, word, conn)
                    value2 = sem.prod1([*word, rep])
                    out_rep2 = g.rep_of(tl.output_class)
                    if value2 == n or value2 in sub.members:
                        assert tl.output_class == 0
                    else:
                        assert g.r_id[value2] == g.r_id[out_rep2]
                        if g.l_id[value2] == g.l_id[rep]:
                            assert g.h_id[value2] == g.h_id[out_rep2]
    report(2, f"push equations and conclusions, {checked} traces")


def test_criterion_03_schreier_generators(fixed, randoms):
    instances = [(s, t, list(a)) for _n, s, t, a, _b in fixed]
    instances += [
        (s, t, list(schutz.find_generating_set(s))) for s, t in randoms
    ]
    for sem, sub, gens in instances:
        g = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(g)
        bset, factorizer = rewrite.schreier_generators(sem, gens, sub, g, conn)
        assert bset <= sub.members
        assert core.closure(sem, bset).members == sub.members
        for t in sub.sorted_members():
            word = factorizer(t)
            assert set(word) <= bset
            assert sem.prod1(word) == t

    z2 = factories.zmod(2)
    s, t = core.strong_semilattice(
        z2, factories.trivial(), factories.collapse_to_trivial(z2)
    )
    assert relgreen.relative_green(s, t).green_index == 2
    report(3, f"generator transfer on {len(instances)} instances;"
              " index-2 instance confirmed")


def test_criterion_04_schutz_generators_and_transport(fixed, randoms):
    instances = [(s, t) for _n, s, t, _a, _b in fixed] + list(randoms)
    classes_checked = transports = 0
    for sem, sub in instances:
        g = relgreen.relative_green(sem, sub)
        b_gens = sub_generators(sem, sub)
        for idx in range(1, g.class_count):
            cls = g.complement_classes[idx - 1]
            grp = schutz.schutz_group(sem, sub, cls, g.rep_of(idx), green=g)
            assert grp.order == len(cls)
            fam = schutz.lambda_data(sem, sub, g, cls, g.rep_of(idx))
            gens = schutz.schutz_generators(b_gens, fam, grp)
            reached = (core.generated(grp.group, gens).members if gens
                       else {grp.group.identity})
            assert reached == frozenset(range(grp.order))
            classes_checked += 1
        for i in range(1, g.class_count):
            for j in range(i + 1, g.class_count):
                ri, rj = g.rep_of(i), g.rep_of(j)
                l_rel = g.l_id[ri] == g.l_id[rj]
                r_rel = g.r_id[ri] == g.r_id[rj]
                if not (l_rel or r_rel):
                    continue
                rep = schutz.check_L_R_transport(g, i, j)
                if l_rel:
                    assert rep.stabilizers_equal and rep.gamma_equal
                if r_rel:
                    assert rep.isomorphism is not None
                transports += 1
    report(4, f"{classes_checked} class groups generated;"
              f" {transports} transport pairs")


def test_criterion_05_presentation_synthesis(fixed):
    for name, sem, sub, _a, _b in fixed:
        start = time.time()
        g = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(g)
        q, qa = present.sub_table_presentation(sem, sub)
        packs = present.build_schutz_packs(sem, sub, g, q, qa)
        pres, assign = present.synthesize_presentation(q, qa, packs, g, conn)
        result = present.enumerate_presentation(pres, 500)
        assert result.complete, f"{name}: {result.reason}"
        assert result.size == sem.order
        evals = [present.evaluate_word(sem, assign, w) for w in result.reps]
        assert sorted(evals) == list(sem.elements)
        assert time.time() - start < 120
    report(5, "synthesized presentations enumerate to |S| bijectively"
              f" on {len(fixed)} instances")


def test_criterion_06_word_problem(fixed):
    total = 0
    for _name, sem, sub, _a, _b in fixed:
        ctx = wp_context(sem, sub)
        letters = sorted(ctx.letter_eval)
        words = []
        for length in range(1, 5):
            words.extend(product(letters, repeat=length))
        evals = {w: sem.prod1(ctx.letter_eval[a] for a in w) for w in words}
        for w1 in words:
            e1 = evals[w1]
            for w2 in words:
                assert rewrite.word_equality_report(w1, w2, ctx).equal == (
                    e1 == evals[w2]
                )
        total += len(words) ** 2
    report(6, f"word equality agrees with evaluation on {total} pairs")


def test_criterion_07_growth(fixed):
    for _name, sem, sub, _a, b_gens in fixed:
        g = relgreen.relative_green(sem, sub)
        r_set = [sem.order] + list(g.reps)
        rep = growth.domination_check(sem, sub, r_set, list(b_gens), 12)
        assert rep.k1 == len(r_set)
        assert rep.holds
    nat = core.BlackBoxSemigroup(multiply=operator.add, generators=(1,))
    series = growth.growth_function(nat, [1], 100)
    assert series == tuple(m + 1 for m in range(101))
    report(7, "domination inequality to radius 12 on all instances;"
              " black-box series exact to 100")


def test_criterion_08_automatic_transfer(fixed):
    for name, sem, sub, a_gens, _b in fixed:
        g = relgreen.relative_green(sem, sub)
        conn = relgreen.connectors(g)
        st = au.structure_for_finite(sem, list(a_gens))
        res = au.transfer_details(st, sub, g, conn)
        ok, reason = au.verify_structure_report(res.structure, sub, 6)
        assert ok, f"{name}: {reason}"

        # the acceptor covers exactly the subsemigroup
        m_words = enumerate_words(res.structure.acceptor,
                                  res.structure.acceptor.n_states + 1)
        assert {res.structure.eval_word(sem, w) for w in m_words} == sub.members

        # full-relation properties on enumerated pairs
        letters = res.letters
        rel = transfer_relation(st, g, conn, letters)
        max_len = 5
        pairs = relation_pairs(rel, max_len)
        by_u = {}
        seen_v = set()
        for u, v in pairs:
            assert len(u) == len(v)
            for a, b in zip(u, v):
                assert letters.info[b][1] == a
            val_u = sem.prod1(st.letter_eval[a] for a in u)
            val_v = sem.prod1(letters.evals[b] for b in v)
            assert val_u == val_v and val_u in sub.members
            by_u.setdefault(u, []).append(v)
            assert v not in seen_v
            seen_v.add(v)
        for length in range(1, max_len + 1):
            for u in product(st.alphabet, repeat=length):
                val = sem.prod1(st.letter_eval[a] for a in u)
                expected = 1 if val in sub.members else 0
                assert len(by_u.get(u, [])) == expected

        # acceptance of the relation matches subscript consistency exactly,
        # with the partner word recoverable from the middle subscripts
        def consistent(v):
            infos = [letters.info[b] for b in v]
            evs = [st.letter_eval[a] for _j, a, _i in infos]
            if infos[-1][2] != 0:
                return False
            for k in range(len(v) - 1, 0, -1):
                if infos[k - 1][2] != conn.left_class[evs[k]][infos[k][2]]:
                    return False
            if infos[0][0] != conn.left_class[evs[0]][infos[0][2]]:
                return False
            for k in range(len(v)):
                j, _a, i = infos[k]
                nxt = conn.right_class[j][conn.left_factor[evs[k]][i]]
                if k + 1 < len(v):
                    if infos[k + 1][0] != nxt:
                        return False
                elif nxt != 0:
                    return False
            return True

        for length in range(1, 4):
            for v in product(letters.names, repeat=length):
                u = tuple(letters.info[b][1] for b in v)
                assert accepts_pair(rel, u, v) == consistent(v)
    report(8, "transferred structures verify to length 6;"
              " relation properties hold on enumerated pairs")


def test_criterion_09_cancellative_tables_are_groups():
    start = time.time()
    checked = groups = 0
    for n in (1, 2, 3, 4):
        for table in semigroup_tables(n):
            sem = core.validate_table(table)
            checked += 1
            if core.is_cancellative(sem):
                assert core.is_group(sem)
                groups += 1
    elapsed = time.time() - start
    assert elapsed < 60
    report(9, f"{checked} associative tables enumerated, {groups}"
              f" cancellative ones all groups, {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    z6 = factories.zmod(6)
    t03 = core.closure(z6, [3])
    sem_path = tmp_path / "z6.json"
    sem_path.write_text(json.dumps(z6.to_json_dict()))
    sub_path = tmp_path / "t03.json"
    sub_path.write_text(json.dumps(t03.to_json_dict()))

    def pipeline():
        chunks = []
        env_cmds = [
            ["validate", "--semigroup", str(sem_path), "--format", "json"],
            ["green-index", "--semigroup", str(sem_path), "--sub",
             str(sub_path), "--format", "json"],
            ["connectors", "--semigroup", str(sem_path), "--sub",
             str(sub_path), "--format", "json"],
            ["eggbox", "--semigroup", str(sem_path), "--sub", str(sub_path),
             "--relative", "--format", "json"],
            ["schreier", "--semigroup", str(sem_path), "--sub", str(sub_path),
             "--gens", "1", "--format", "json"],
            ["schutz", "--semigroup", str(sem_path), "--sub", str(sub_path),
             "--class-of", "1", "--format", "json"],
            ["present", "synth", "--semigroup", str(sem_path), "--sub",
             str(sub_path)],
            ["wp", "--semigroup", str(sem_path), "--sub", str(sub_path),
             "--word1", "t3,t3", "--word2", "t0", "--format", "json"],
            ["growth", "series", "--semigroup", str(sem_path), "--gens", "1",
             "--max", "10", "--format", "json"],
            ["growth", "dominate", "--semigroup", str(sem_path), "--sub",
             str(sub_path), "--r", "6,1,2", "--sub-gens", "3", "--max", "8",
             "--format", "json"],
            ["auto", "build", "--semigroup", str(sem_path), "--gens", "1"],
        ]
        for cmd in env_cmds:
            proc = subprocess.run(
                [sys.executable, "-m", "greenindex.cli"] + cmd,
                capture_output=True,
                check=True,
            )
            chunks.append(proc.stdout)
        # chain: build, transfer, verify
        st = subprocess.run(
            [sys.executable, "-m", "greenindex.cli", "auto", "build",
             "--semigroup", str(sem_path), "--gens", "1"],
            capture_output=True, check=True,
        ).stdout
        st_path = tmp_path / "st.json"
        st_path.write_bytes(st)
        tr = subprocess.run(
            [sys.executable, "-m", "greenindex.cli", "auto", "transfer",
             "--structure", str(st_path), "--semigroup", str(sem_path),
             "--sub", str(sub_path)],
            capture_output=True, check=True,
        ).stdout
        chunks.append(tr)
        tr_path = tmp_path / "tr.json"
        tr_path.write_bytes(tr)
        ver = subprocess.run(
            [sys.executable, "-m", "greenindex.cli", "auto", "verify",
             "--structure", str(tr_path), "--semigroup", str(sem_path),
             "--sub", str(sub_path), "--max-len", "6"],
            capture_output=True, check=True,
        ).stdout
        chunks.append(ver)
        return b"".join(chunks)

    first = pipeline()
    second = pipeline()
    assert first == second
    report(10, f"two CLI pipeline runs byte-identical ({len(first)} bytes)")
