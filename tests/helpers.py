"""Shared test machinery: instance generators and small-order enumeration."""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import replace

from greenindex import (
    automatic, core, factories, growth, present, relgreen, schutz,
)
from greenindex.automatic import (
    PAD,
    Nfa,
    PaddedRelationNfa,
    PairAlphabet,
    _epsilon_free,
)
from greenindex.errors import (
    AlphabetMismatch,
    BoundExceeded,
    EmptyGenerators,
    GreenIndexError,
    HypothesisFails,
    InputError,
    InternalInconsistency,
    InvalidLetter,
    NotAssociative,
    NotComparable,
    NotGenerating,
    NotInSubsemigroup,
)


def fixed_instances():
    """The four standing (S, T) instances with generating sets for S and T."""
    z6 = factories.zmod(6)
    t03 = core.closure(z6, [3])

    z2 = factories.zmod(2)
    s1, t1 = core.strong_semilattice(
        z2, factories.trivial(), factories.collapse_to_trivial(z2)
    )

    z4 = factories.zmod(4)
    s2, t2 = core.strong_semilattice(
        z4, z2, factories.mod_reduction(z4, z2)
    )

    s3 = factories.symmetric_group(3)
    tsub = core.closure(s3, [2])

    return [
        ("z6_mod2", z6, t03, (1,), (3,)),
        ("ss_z2_trivial", s1, t1, (1, 2), (1,)),
        ("ss_z4_z2", s2, t2, (1, 5), (1,)),
        ("s3_nonnormal", s3, tsub, (2, 3), (2,)),
    ]


def nonperm_ideal(k):
    """T_k and its ideal of non-permutations."""
    tk = factories.full_transformation_monoid(k)
    ideal = core.SubSemigroup(
        parent=tk,
        members=frozenset(i for i, m in enumerate(tk.names) if len(set(m)) < k),
    )
    return tk, ideal


def ladder_pairs():
    """The bench ladder's (S, T) pairs: the four standing instances, T3
    over its ideal and over its constants, S4 over <(12)>, and T3 x Z_m
    over ideal x Z_m for m = 2, 3."""
    out = [(sem, sub) for _n, sem, sub, _a, _b in fixed_instances()]
    t3, ideal = nonperm_ideal(3)
    consts = frozenset(i for i, m in enumerate(t3.names) if len(set(m)) == 1)
    s4 = factories.symmetric_group(4)
    out += [(t3, ideal), (t3, core.SubSemigroup(parent=t3, members=consts)),
            (s4, core.closure(s4, [s4.names.index("1023")]))]
    for m in (2, 3):
        prod = factories.direct_product(t3, factories.zmod(m))
        members = frozenset(x for x in prod.elements if x // m in ideal)
        out.append((prod, core.SubSemigroup(parent=prod, members=members)))
    return out


_POOL_CACHE = None


def _base_pool():
    global _POOL_CACHE
    if _POOL_CACHE is not None:
        return _POOL_CACHE
    pool = [
        factories.zmod(2),
        factories.zmod(3),
        factories.zmod(4),
        factories.zmod(5),
        factories.zmod(6),
        factories.zmod(8),
        factories.zmod(12),
        factories.monogenic(2, 3),
        factories.monogenic(3, 2),
        factories.monogenic(1, 5),
        factories.right_zero(2),
        factories.right_zero(3),
        factories.left_zero(3),
        factories.rectangular_band(2, 3),
        factories.full_transformation_monoid(2),
        factories.full_transformation_monoid(3),
        factories.symmetric_group(3),
    ]
    z4, z2 = factories.zmod(4), factories.zmod(2)
    z6, z3 = factories.zmod(6), factories.zmod(3)
    pool.append(core.strong_semilattice(z4, z2, factories.mod_reduction(z4, z2))[0])
    pool.append(core.strong_semilattice(z6, z3, factories.mod_reduction(z6, z3))[0])
    pool.append(
        core.strong_semilattice(z6, factories.trivial(),
                                factories.collapse_to_trivial(z6))[0]
    )
    pool.append(factories.direct_product(factories.zmod(4), factories.right_zero(2)))
    pool.append(factories.direct_product(factories.zmod(3), factories.zmod(3)))
    pool.append(factories.direct_product(factories.monogenic(2, 2),
                                         factories.zmod(3)))
    pool.append(factories.direct_product(factories.zmod(12),
                                         factories.right_zero(3)))
    pool.append(factories.direct_product(factories.full_transformation_monoid(2),
                                         factories.symmetric_group(3)))
    _POOL_CACHE = [s for s in pool if s.order <= 40]
    return _POOL_CACHE


def random_pairs(count: int, seed: int = 20250808):
    """Deterministic stream of (S, T) pairs with |S| <= 40."""
    rng = random.Random(seed)
    pool = _base_pool()
    out = []
    while len(out) < count:
        sem = rng.choice(pool)
        k = rng.randint(1, 3)
        gens = rng.sample(range(sem.order), min(k, sem.order))
        sub = core.closure(sem, gens)
        out.append((sem, sub))
    return out


def semigroup_tables(n: int):
    """All associative Cayley tables on {0..n-1}, by backtracking."""
    table = [[None] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]

    def consistent(i, j):
        # check every associativity triple whose four lookups are defined
        # and which involves the cell (i, j)
        for x in range(n):
            for y in range(n):
                xy = table[x][y]
                if xy is None:
                    continue
                for z in range(n):
                    yz = table[y][z]
                    if yz is None:
                        continue
                    if (x, y) != (i, j) and (y, z) != (i, j) \
                            and (xy, z) != (i, j) and (x, yz) != (i, j):
                        continue
                    left = table[xy][z]
                    right = table[x][yz]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[k]
        for v in range(n):
            table[i][j] = v
            if consistent(i, j):
                yield from fill(k + 1)
        table[i][j] = None

    yield from fill(0)


@functools.lru_cache(maxsize=None)
def small_tables(n: int) -> tuple:
    """``semigroup_tables(n)`` listed once per test session."""
    return tuple(semigroup_tables(n))


@functools.lru_cache(maxsize=None)
def small_pool() -> tuple:
    """The pool semigroups of order <= 40 and every table of order <= 3."""
    return tuple(_base_pool()) + tuple(
        core.validate_table(t) for n in (1, 2, 3) for t in small_tables(n))


def tuple_pair_alphabet(left, right) -> tuple:
    """The padded pair alphabet listed symbol by symbol: the reference for
    ``automatic.PairAlphabet``."""
    return tuple(
        (x, y)
        for x in tuple(left) + (PAD,)
        for y in tuple(right) + (PAD,)
        if not (x == PAD and y == PAD)
    )


def is_empty(nfa: Nfa) -> bool:
    """Whether ``nfa`` accepts no word."""
    return nfa.initial.isdisjoint(nfa._coaccessible)


def enumerate_words(nfa: Nfa, max_len: int) -> list[tuple]:
    """The accepted words of length at most ``max_len``, in shortlex order."""
    return [w for w in automatic._listed(nfa, max_len, "automaton")
            if len(w) <= max_len]


def reference_words(nfa: Nfa, max_len: int) -> list[tuple]:
    """``enumerate_words`` by its definition: every string over the
    alphabet of length at most ``max_len``, in shortlex order by symbol
    rank, kept when ``Nfa.accepts`` it.  It never calls ``iter_words``."""
    return [w for k in range(max_len + 1)
            for w in itertools.product(nfa.alphabet, repeat=k)
            if nfa.accepts(w)]


def relation_pairs(rel: PaddedRelationNfa, max_len: int) -> list[tuple]:
    """The pairs (u, v) that ``rel`` accepts whose convolution has length
    at most ``max_len``, in shortlex order of the convolutions."""
    return [automatic.deconvolve(w) for w in enumerate_words(rel.nfa, max_len)]


def accepts_pair(rel: PaddedRelationNfa, u, v) -> bool:
    """Whether the padded relation ``rel`` accepts the pair (u, v)."""
    return rel.nfa.accepts(automatic.convolve(u, v))


def reference_verify_structure_report(st, target, max_len):
    """``automatic.verify_structure_report`` by its definition: every word
    pair is tested against every multiplier, one acceptance run each."""
    sem, elems = core._target_domain(target)
    elem_set = set(elems)
    words = enumerate_words(st.acceptor, max_len)
    evals = {}
    for w in words:
        e = st.eval_word(sem, w)
        if e not in elem_set:
            return False, f"acceptor word {w} evaluates outside the target"
        evals[w] = e
    if set(evals.values()) != elem_set:
        missing = sorted(elem_set - set(evals.values()))
        return False, f"acceptor is not onto; missing elements {missing}"
    word_set = set(words)
    for key, rel in sorted(st.multipliers.items()):
        if key == "":
            factor = sem.order
        elif key in st.letter_eval:
            factor = st.letter_eval[key]
        else:
            return False, f"multiplier key {key!r} is not a letter"
        for u in words:
            for v in words:
                semantic = sem.mul1(evals[u], factor) == evals[v]
                accepted = accepts_pair(rel, u, v)
                if semantic != accepted:
                    return False, (
                        f"multiplier {key!r} disagrees on pair ({u}, {v}):"
                        f" semantic={semantic} accepted={accepted}"
                    )
        for s in enumerate_words(rel.nfa, max_len):
            try:
                u, v = automatic.deconvolve(s)
            except InputError:
                return False, f"multiplier {key!r} accepts malformed string {s}"
            if len(u) <= max_len and len(v) <= max_len:
                if u not in word_set or v not in word_set:
                    return False, (
                        f"multiplier {key!r} accepts pair outside the"
                        f" acceptor ({u}, {v})"
                    )
    return True, "ok"


def reference_closure(sem, gens):
    """The members of ``core.closure`` by a two-sided BFS: products with a
    generator on either side, from the sorted distinct generators."""
    gens = sorted(set(gens))
    if not gens:
        raise EmptyGenerators("need at least one generator")
    seen = set(gens)
    frontier = list(gens)
    tab = sem.table
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                for p in (tab[x][g], tab[g][x]):
                    if p not in seen:
                        seen.add(p)
                        new.append(p)
        frontier = new
    return frozenset(seen)


def reference_relative_green(sem, sub):
    """``relative_green``'s ``(r_id, l_id, h_id)`` by the definition: u and
    v are R^T-related iff the principal sets u*T^1 and v*T^1 agree, L^T
    dually, H^T when both are; ids number the classes by first occurrence
    in element order."""
    members = sub.sorted_members()

    def ids(keys):
        seen: dict = {}
        return tuple(seen.setdefault(k, len(seen)) for k in keys)

    r_id = ids(frozenset(sem.mul(u, t) for t in members) | {u}
               for u in sem.elements)
    l_id = ids(frozenset(sem.mul(t, u) for t in members) | {u}
               for u in sem.elements)
    return r_id, l_id, ids(zip(r_id, l_id))


def reference_not_closed(sem, members):
    """The ``NotClosed`` message of a pairwise |T|^2 scan of ``members`` in
    frozenset iteration order, or None when they are closed."""
    members = frozenset(members)
    for x in members:
        for y in members:
            if sem.table[x][y] not in members:
                return f"not closed: {x}*{y} = {sem.table[x][y]} is outside"
    return None


def reference_find_generating_set(sem):
    """``schutz.find_generating_set`` by rebuilding ``core.generated``
    after each addition: elements in index order, each kept if the set so
    far does not generate it."""
    gens: list[int] = []
    have: frozenset[int] = frozenset()
    for x in sem.elements:
        if x not in have:
            gens.append(x)
            have = core.generated(sem, gens).members
            if len(have) == sem.order:
                break
    return tuple(gens)


def reference_size_order_generators(sem, candidates):
    """The greedy generating set in the order Light's test and T's B used
    before ties in |x*S| were broken by |<x>|: ``candidates`` by
    decreasing |x*S|, ties by index, each kept unless ``core.generated``
    of the set so far reaches it."""
    gens: list[int] = []
    have: frozenset[int] = frozenset()
    for x in sorted(candidates, key=lambda x: (-len(set(sem.table[x])), x)):
        if x not in have:
            gens.append(x)
            have = core.generated(sem, gens).members
    return tuple(gens)


def reference_shortlex_forms(sem, gens):
    """The words of ``core.generated`` by a BFS over (element, word) pairs:
    letter order is the order of ``gens``, and each element keeps the first
    word that reaches it."""
    forms = {}
    level = []
    for g in gens:
        if g not in forms:
            forms[g] = (g,)
            level.append((g, (g,)))
    while level:
        nxt = []
        for elt, word in level:
            for g in gens:
                p = sem.mul(elt, g)
                if p not in forms:
                    w = word + (g,)
                    forms[p] = w
                    nxt.append((p, w))
        level = nxt
    return forms


def reference_factorize_element(sem, gens, target):
    """``core.generated(sem, gens).word(target)`` by its definition: a
    fresh shortlex BFS for every target."""
    forms = reference_shortlex_forms(sem, gens)
    if target not in forms:
        raise NotInSubsemigroup(f"{target} is not generated by {list(gens)}")
    return forms[target]


def reference_domination_check(sem, sub, r_set, b_gens, m_max):
    """``growth.domination_check`` by its definition: k2 is a double loop
    over A x A, each element's decomposition a scan of R x T^1 (once per
    element), each generator length read off one shortlex BFS over B, and
    each growth series entry a fresh out-ball."""
    if not set(b_gens) <= sub.members or \
            reference_closure(sem, b_gens) != sub.members:
        raise NotGenerating("the given set does not generate T")
    n = sem.order
    r_sorted = sorted(set(r_set))
    if n not in r_sorted:
        raise HypothesisFails("the adjoined identity must belong to R")
    for r in r_sorted:
        if not 0 <= r <= n:
            raise InputError(f"R element {r} is not an S^1 index")
    t_one = list(sub.sorted_members()) + [n]

    @functools.cache
    def decompose(s):
        for r in r_sorted:
            for t in t_one:
                if sem.mul1(r, t) == s:
                    return r, t
        return None

    for s in range(n + 1):
        if decompose(s) is None:
            raise HypothesisFails(f"element {s} has no decomposition r * t")

    a_gens = sorted(set(b_gens) | set(r_sorted))
    b_sorted = sorted(set(b_gens))
    forms = reference_shortlex_forms(sem, b_sorted)

    def length_b(t):
        return 0 if t == n else len(forms[t])

    k1 = len(r_sorted)
    k2 = 1
    for a1 in a_gens:
        for a2 in a_gens:
            _, mu = decompose(sem.mul1(a1, a2))
            k2 = max(k2, length_b(mu))

    def series(gens, m):
        return [len(ball) for ball in reference_balls(sem, gens, n, m)]

    g_s = series([g for g in a_gens if g != n], m_max)
    g_t = series(b_sorted, k2 * m_max)
    rows = []
    holds = True
    for m in range(m_max + 1):
        bound = k1 * g_t[k2 * m]
        rows.append((m, g_s[m], bound))
        holds &= g_s[m] <= bound
    return growth.DominationReport(
        k1=k1,
        k2=k2,
        r_set=tuple(r_sorted),
        rows=tuple(rows),
        holds=holds,
    )


def reference_schreier_set(gens, green, conn):
    """The generators ``rewrite.schreier_generators`` harvests, by its
    definition: right_factor[j][left_factor[a][i]] for every letter a and
    classes j and i, the adjoined identity dropped."""
    n, classes = green.sem.order, range(green.class_count)
    return frozenset(conn.right_factor[j][conn.left_factor[a][i]]
                     for a in gens for j in classes for i in classes) - {n}


def class_pairs(sem, sub, green):
    """(family, group) of each complement class, in class order."""
    out = []
    for i in range(1, green.class_count):
        cls, rep = green.complement_classes[i - 1], green.rep_of(i)
        out.append((schutz.lambda_data(sem, sub, green, cls, rep),
                    schutz.schutz_group(sem, sub, cls, rep, green=green)))
    return out


def reference_balls(sem, gens, start, radius):
    """The out-balls of a FiniteSemigroup around ``start`` for radii
    0..radius, by a right-multiplication BFS over S^1: each level multiplies
    the previous level's new elements by every generator.  Generators and
    ``start`` are S^1 indices (``OutOfRange`` otherwise)."""
    n = sem.order
    for g in gens:
        core._check_index(g, n + 1, "generator")
    core._check_index(start, n + 1, "start")
    ball = {start}
    frontier = [start]
    balls = [frozenset(ball)]
    for _ in range(radius):
        new = []
        for x in frontier:
            for g in gens:
                p = sem.mul1(x, g)
                if p not in ball:
                    ball.add(p)
                    new.append(p)
        frontier = new
        balls.append(frozenset(ball))
    return balls


def is_padding_valid(rel):
    """True iff every accepted string is a well-formed convolution."""
    nfa = rel.nfa
    out, useful = nfa._outgoing, nfa._coaccessible
    start = [(q, False, False) for q in nfa.initial]
    seen = set(start)
    stack = list(start)
    while stack:
        q, u_done, v_done = stack.pop()
        for (x, y), dsts in out[q].items():
            if ((x == PAD and y == PAD) or (u_done and x != PAD)
                    or (v_done and y != PAD)):
                # a violating prefix: invalid only if it extends to acceptance
                if not useful.isdisjoint(dsts):
                    return False
                continue
            for d in dsts:
                state = (d, u_done or x == PAD, v_done or y == PAD)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return True


def eps_closure(transitions, states):
    """The states reachable from ``states`` by the epsilon moves (symbol
    None) of ``transitions``, a sequence of (src, symbol, dst)."""
    eps: dict[int, set[int]] = {}
    for src, sym, dst in transitions:
        if sym is None:
            eps.setdefault(src, set()).add(dst)
    out = set(states)
    stack = list(out)
    while stack:
        for r in eps.get(stack.pop(), ()):
            if r not in out:
                out.add(r)
                stack.append(r)
    return frozenset(out)


def _eps_step(transitions, states, symbol):
    return eps_closure(transitions, {d for s, sym, d in transitions
                                     if s in states and sym == symbol})


def reference_accepts(transitions, initial, accepting, word):
    """Whether the automaton with epsilon moves given by its parts accepts
    ``word``, read through epsilon closures."""
    cur = eps_closure(transitions, initial)
    for sym in word:
        cur = _eps_step(transitions, cur, sym)
    return not cur.isdisjoint(accepting)


def reference_determinize(alphabet, transitions, initial, accepting):
    """The complete subset-construction DFA of an automaton with epsilon
    moves, built from epsilon-closed subsets in BFS discovery order."""
    start = eps_closure(transitions, initial)
    index = {start: 0}
    order = [start]
    trans = []
    for cur in order:
        for sym in alphabet:
            tgt = _eps_step(transitions, cur, sym)
            if tgt not in index:
                index[tgt] = len(order)
                order.append(tgt)
            trans.append((index[cur], sym, index[tgt]))
    return automatic.Nfa(
        alphabet=alphabet,
        n_states=len(order),
        transitions=tuple(trans),
        initial=frozenset({0}),
        accepting=frozenset(index[s] for s in order
                            if not s.isdisjoint(accepting)),
    )


# The rational-relation algebra: the paper's construction of a transferred
# structure, R^-1 . M_w . R composed as automata.  automatic.transfer_details
# reads each conjugate off the evaluations of the checked acceptor words
# instead; reference_transfer below is its differential reference.


def determinize(nfa: Nfa) -> Nfa:
    """Complete subset-construction DFA (a dead sink is added if needed);
    state numbering follows BFS discovery, so the result is canonical."""
    start = frozenset(nfa.initial)
    index = {start: 0}
    order = [start]
    trans = []
    pos = 0
    while pos < len(order):
        cur = order[pos]
        for sym in nfa.alphabet:
            tgt = nfa.step(cur, sym)
            if tgt not in index:
                index[tgt] = len(order)
                order.append(tgt)
            trans.append((index[cur], sym, index[tgt]))
        pos += 1
    accepting = frozenset(
        index[s] for s in order if s & nfa.accepting
    )
    return Nfa(
        alphabet=nfa.alphabet,
        n_states=len(order),
        transitions=tuple(trans),
        initial=frozenset({0}),
        accepting=accepting,
    )


def invert(rel: PaddedRelationNfa) -> PaddedRelationNfa:
    rel.nfa._outgoing  # refuses an epsilon move
    swapped = tuple(
        (s, (sym[1], sym[0]), d) for s, sym, d in rel.nfa.transitions
    )
    return PaddedRelationNfa(
        left_alphabet=rel.right_alphabet,
        right_alphabet=rel.left_alphabet,
        nfa=Nfa(
            alphabet=PairAlphabet(rel.right_alphabet, rel.left_alphabet),
            n_states=rel.nfa.n_states,
            transitions=swapped,
            initial=rel.nfa.initial,
            accepting=rel.nfa.accepting,
        ),
    )


def project(rel: PaddedRelationNfa, track: int) -> Nfa:
    """Language of one track.  A padded position of that track reads no
    letter: it is an epsilon move, removed by ``automatic._epsilon_free``."""
    if track not in (1, 2):
        raise InputError("track must be 1 or 2")
    base = rel.left_alphabet if track == 1 else rel.right_alphabet
    rel.nfa._outgoing  # refuses an epsilon move
    trans = []
    for s, sym, d in rel.nfa.transitions:
        comp = sym[track - 1]
        trans.append((s, None if comp == PAD else comp, d))
    return _epsilon_free(tuple(base), rel.nfa.n_states, tuple(trans),
                         rel.nfa.initial, rel.nfa.accepting)


def compose_relations(
    r1: PaddedRelationNfa, r2: PaddedRelationNfa
) -> PaddedRelationNfa:
    """Join two relations on their shared middle track.

    A pair (u, w) is accepted iff some middle word v has (u, v) in the first
    relation and (v, w) in the second.  Both component automata run in
    lockstep over the output positions; when v is longer than both u and w
    the machines keep running on silent steps.  The product is finite, so
    every silent tail is found exactly and no bound on its length is needed.
    """
    if set(r1.right_alphabet) != set(r2.left_alphabet):
        raise AlphabetMismatch("middle alphabets differ")
    d1, d2 = r1.nfa, r2.nfa
    out1, out2 = d1._outgoing, d2._outgoing
    # second machine's transitions grouped by the middle-track component
    by_mid: list[dict] = []
    for q in range(d2.n_states):
        grouped: dict = {}
        for (y, z), dsts in out2[q].items():
            grouped.setdefault(y, []).append((z, dsts))
        by_mid.append(grouped)
    out_alpha = PairAlphabet(r1.left_alphabet, r2.right_alphabet)

    index: dict = {}
    order: list = []
    main_trans = []
    eps_edges = []

    def state_id(st):
        if st not in index:
            index[st] = len(order)
            order.append(st)
        return index[st]

    for i1 in sorted(d1.initial):
        for i2 in sorted(d2.initial):
            state_id((i1, False, i2, False))
    initials = frozenset(range(len(order)))

    pos = 0
    while pos < len(order):
        q1, f1, q2, f2 = order[pos]
        if not f1 and not f2:
            # both machines consume one position of the middle track
            for (x, y), dsts1 in out1[q1].items():
                for z, dsts2 in by_mid[q2].get(y, ()):
                    for t1 in sorted(dsts1):
                        for t2 in sorted(dsts2):
                            tid = state_id((t1, False, t2, False))
                            if x == PAD and z == PAD:
                                eps_edges.append((pos, tid))
                            else:
                                main_trans.append((pos, (x, z), tid))
        if not f1 and (f2 or q2 in d2.accepting):
            # the second machine is finished; its pair reads ($, $)
            for (x, y), dsts1 in out1[q1].items():
                if y == PAD and x != PAD:
                    for t1 in sorted(dsts1):
                        tid = state_id((t1, False, q2, True))
                        main_trans.append((pos, (x, PAD), tid))
        if (f1 or q1 in d1.accepting) and not f2:
            # the first machine is finished; its pair reads ($, $)
            for (y, z), dsts2 in out2[q2].items():
                if y == PAD and z != PAD:
                    for t2 in sorted(dsts2):
                        tid = state_id((q1, True, t2, False))
                        main_trans.append((pos, (PAD, z), tid))
        pos += 1

    # A state accepts iff silent steps lead it to a configuration where
    # both machines are done.
    back: dict[int, list[int]] = {}
    for s, d in eps_edges:
        back.setdefault(d, []).append(s)
    accepting = {i for i, (q1, f1, q2, f2) in enumerate(order)
                 if (f1 or q1 in d1.accepting) and (f2 or q2 in d2.accepting)}
    stack = list(accepting)
    while stack:
        for s in back.get(stack.pop(), ()):
            if s not in accepting:
                accepting.add(s)
                stack.append(s)
    nfa = Nfa(
        alphabet=out_alpha,
        n_states=len(order),
        transitions=tuple(dict.fromkeys(main_trans)),
        initial=initials,
        accepting=frozenset(accepting),
    )
    return PaddedRelationNfa(
        left_alphabet=r1.left_alphabet,
        right_alphabet=r2.right_alphabet,
        nfa=trim(nfa),
    )


def trim(nfa: Nfa) -> Nfa:
    """The states that are both accessible and co-accessible, renumbered in
    their existing order; the language is unchanged."""
    useful, out = nfa._coaccessible, nfa._outgoing
    keep = set(nfa.initial & useful)
    stack = list(keep)
    while stack:
        for dsts in out[stack.pop()].values():
            for d in dsts:
                if d in useful and d not in keep:
                    keep.add(d)
                    stack.append(d)
    new = {q: i for i, q in enumerate(sorted(keep))}
    return Nfa(
        alphabet=nfa.alphabet,
        n_states=len(new),
        transitions=tuple((new[s], sym, new[d]) for s, sym, d in nfa.transitions
                          if s in new and d in new),
        initial=frozenset(new[q] for q in nfa.initial if q in new),
        accepting=frozenset(new[q] for q in nfa.accepting if q in new),
    )


def reference_transfer(st, green, conn):
    """The transferred structure by composition of relations, without the
    input check.  R pairs each acceptor word in T with its partner from
    ``reference_rewrite_pair``, and the kept letters are those on some
    partner.  The acceptor is the determinized right projection of R, and
    the multiplier of each kept letter b is R^-1 . M_w . R, for w the
    shortlex-first acceptor word of b's evaluation and M_w the composed
    chain of its letters' multipliers."""
    letters = automatic._transfer_letters(st, green, conn)
    pairs, first_word = [], {}
    for u in st.acceptor.iter_words():
        first_word.setdefault(st.eval_word(green.sem, u), u)
        pair = reference_rewrite_pair(st, green, conn, letters, u)
        if pair is not None:
            pairs.append(pair)
    used = {b for _u, v in pairs for b in v}
    kept = tuple(b for b in letters.names if b in used)
    restricted = PaddedRelationNfa.from_pairs(st.alphabet, kept, pairs)
    inv = invert(restricted)

    def conjugate(rel):
        return compose_relations(inv, compose_relations(rel, restricted))

    multipliers = {"": conjugate(st.multipliers[""])}
    for b in kept:
        w = first_word[letters.evals[b]]
        rel = st.multipliers[w[0]]
        for a in w[1:]:
            rel = compose_relations(rel, st.multipliers[a])
        multipliers[b] = conjugate(rel)
    return automatic.AutomaticStructure(
        alphabet=kept,
        letter_eval={b: letters.evals[b] for b in kept},
        acceptor=determinize(project(restricted, 2)),
        multipliers=multipliers,
    )


def invalid_transfer_inputs():
    """Structures for Z6 from the letter a1 -> 1 that ``transfer_details``
    must refuse, by name, each with the failure its check names.  The valid
    structure's longest acceptor word is a1^6.  "dropped" lacks the first
    pair of a1's multiplier, "outside" adds the pair ((), a1), "longer"
    loops (a1, a1) on the start of a1's multiplier, which adds only
    semantically right pairs, all longer than a1^6, and "not_onto" drops
    a1 from the acceptor."""
    z6 = factories.zmod(6)
    st = automatic.structure_for_finite(z6, [1])
    alpha = st.alphabet
    pairs = relation_pairs(st.multipliers["a1"], 6)
    trie = st.multipliers["a1"].nfa
    looped = Nfa(alphabet=trie.alphabet, n_states=trie.n_states,
                 transitions=trie.transitions + ((0, ("a1", "a1"), 0),),
                 initial=trie.initial, accepting=trie.accepting)
    a1 = {
        "dropped": PaddedRelationNfa.from_pairs(alpha, alpha, pairs[1:]),
        "outside": PaddedRelationNfa.from_pairs(
            alpha, alpha, pairs + [((), ("a1",))]),
        "longer": PaddedRelationNfa(alpha, alpha, looped),
    }
    out = {name: replace(st, multipliers={**st.multipliers, "a1": rel})
           for name, rel in a1.items()}
    out["not_onto"] = replace(st, acceptor=automatic.nfa_from_words(
        alpha, enumerate_words(st.acceptor, 6)[1:]))
    seven = ("a1",) * 7
    reasons = {
        "dropped": "multiplier 'a1' disagrees on pair (('a1',), ('a1', 'a1')):"
                   " semantic=True accepted=False",
        "outside": "multiplier 'a1' accepts pair outside the acceptor"
                   " ((), ('a1',))",
        "longer": "multiplier 'a1' accepts pair outside the acceptor"
                  f" ({seven[1:]}, {seven})",
        "not_onto": "acceptor is not onto; missing elements [1]",
    }
    return {name: (out[name], f"structure does not verify against S: {why}")
            for name, why in reasons.items()}


def transfer_relation(st, green, conn, letters):
    """The rewriting relation between words over the original alphabet and
    subscript-consistent words over the transferred letters.

    Pairs have equal length.  The automaton stores the class subscripts of
    the previously read letter: the right subscript chain is guessed and
    checked backwards, the left chain is computed forwards, and acceptance
    requires both chains to close at the identity class.
    """
    ev = {a: st.letter_eval[a] for a in st.alphabet}
    alpha = automatic.PairAlphabet(st.alphabet, letters.names)

    order: list = ["start"]
    index = {"start": 0}
    trans = []
    # One pass over the states in creation order: a state's transitions are
    # listed when it is reached, and the loop picks up the states they add.
    # From the start the first letter's class must be j; after (i, j, pl)
    # the next letter must have left_class[eval][i'] == i and j' == pl.
    for q, prev in enumerate(order):
        for name in letters.names:
            j, a, i = letters.info[name]
            s = ev[a]
            if prev == "start":
                if conn.left_class[s][i] != j:
                    continue
            elif j != prev[2] or conn.left_class[s][i] != prev[0]:
                continue
            pl = conn.right_class[j][conn.left_factor[s][i]]
            tgt = (i, j, pl)
            if tgt not in index:
                index[tgt] = len(order)
                order.append(tgt)
            trans.append((q, (a, name), index[tgt]))
    accepting = frozenset(
        q for q, state in enumerate(order)
        if state != "start" and state[0] == 0 and state[2] == 0
    )
    nfa = automatic.Nfa(
        alphabet=alpha,
        n_states=len(order),
        transitions=tuple(trans),
        initial=frozenset({0}),
        accepting=accepting,
    )
    return automatic.PaddedRelationNfa(
        left_alphabet=st.alphabet, right_alphabet=letters.names, nfa=nfa
    )


def element_orders(sem):
    """Multiplicative order of each element of a finite group."""
    e = sem.identity
    out = []
    for x in sem.elements:
        k, acc = 1, x
        while acc != e:
            acc = sem.mul(acc, x)
            k += 1
        out.append(k)
    return tuple(out)


def reference_groups_isomorphic(a, b):
    """Brute-force isomorphism test for two finite groups.

    Searches images of a small generating set of ``a``, pruning by element
    order, and extends each candidate to a full map by closing products.
    Intended for orders up to about 24.
    """
    if a.order != b.order:
        return False
    if not (core.is_group(a) and core.is_group(b)):
        raise NotComparable("isomorphism search expects two groups")
    if sorted(element_orders(a)) != sorted(element_orders(b)):
        return False
    gens = schutz.find_generating_set(a)
    orders_a = element_orders(a)
    orders_b = element_orders(b)
    candidates = [
        [y for y in b.elements if orders_b[y] == orders_a[g]] for g in gens
    ]

    def extend(images):
        hom = {a.identity: b.identity}
        frontier = list(zip(gens, images))
        for g, im in frontier:
            hom[g] = im
        queue = list(hom)
        while queue:
            x = queue.pop()
            for g, im in zip(gens, images):
                for xa, xb in ((a.mul(x, g), b.mul(hom[x], im)),
                               (a.mul(g, x), b.mul(im, hom[x]))):
                    if xa in hom:
                        if hom[xa] != xb:
                            return None
                    else:
                        hom[xa] = xb
                        queue.append(xa)
        if len(hom) != a.order or len(set(hom.values())) != a.order:
            return None
        for x in a.elements:
            for y in a.elements:
                if hom[a.mul(x, y)] != b.mul(hom[x], hom[y]):
                    return None
        return hom

    def search(k, chosen):
        if k == len(gens):
            return extend(chosen) is not None
        for y in candidates[k]:
            if search(k + 1, chosen + [y]):
                return True
        return False

    return search(0, [])


def reference_transfer_relation(st, green, conn, letters):
    """``transfer_relation`` as a fixed point: every round
    rescans every state against every letter until no state is added, and
    repeated transitions keep their first position."""
    ev = {a: st.letter_eval[a] for a in st.alphabet}
    states = {"start": 0}
    trans = []

    def state_id(s):
        if s not in states:
            states[s] = len(states)
        return states[s]

    for name in letters.names:
        j, a, i = letters.info[name]
        s = ev[a]
        if conn.left_class[s][i] != j:
            continue
        pl = conn.right_class[j][conn.left_factor[s][i]]
        trans.append((0, (a, name), state_id((i, j, pl))))
    made = True
    while made:
        made = False
        for prev in [s for s in list(states) if s != "start"]:
            i_prev, _j_prev, pl_prev = prev
            for name in letters.names:
                j, a, i = letters.info[name]
                if j != pl_prev:
                    continue
                s = ev[a]
                if conn.left_class[s][i] != i_prev:
                    continue
                pl = conn.right_class[j][conn.left_factor[s][i]]
                tgt = (i, j, pl)
                if tgt not in states:
                    made = True
                trans.append((state_id(prev), (a, name), state_id(tgt)))
    accepting = frozenset(
        idx for s, idx in states.items()
        if s != "start" and s[0] == 0 and s[2] == 0
    )
    nfa = automatic.Nfa(
        alphabet=automatic.PairAlphabet(st.alphabet, letters.names),
        n_states=len(states),
        transitions=tuple(dict.fromkeys(trans)),
        initial=frozenset({0}),
        accepting=accepting,
    )
    return automatic.PaddedRelationNfa(
        left_alphabet=st.alphabet, right_alphabet=letters.names, nfa=nfa
    )


def wp_context(sem, sub):
    """``present.word_problem_context`` with fresh Green data and
    connectors."""
    green = relgreen.relative_green(sem, sub)
    return present.word_problem_context(
        sem, sub, green=green, conn=relgreen.connectors(green))


def _reference_push(conn, i, word, direction):
    """(output word, output class) of a push, one connector lookup per
    letter: "right" moves rep(i) through ``word`` left to right, "left"
    right to left."""
    out = []
    if direction == "right":
        for s in word:
            out.append(conn.right_factor[i][s])
            i = conn.right_class[i][s]
    else:
        for s in reversed(word):
            out.insert(0, conn.left_factor[s][i])
            i = conn.left_class[s][i]
    return out, i


def reference_two_pass(word, conn):
    """``rewrite._two_pass`` by one connector lookup per letter, with both
    pushes always run: the identity class pushed left through ``word``, then
    the class it ends in pushed right through the whole output, even from
    class 0.  Each push keeps its own class chain."""
    first, left = [], [relgreen.IDENTITY_CLASS]
    for s in reversed(word):
        first.insert(0, conn.left_factor[s][left[0]])
        left.insert(0, conn.left_class[s][left[0]])
    out, right = [], [left[0]]
    for t in first:
        out.append(conn.right_factor[right[-1]][t])
        right.append(conn.right_class[right[-1]][t])
    return left, out, right


def reference_signature(word, ctx):
    """``rewrite._signature`` by separate pushes and ``mul1`` folds: the
    identity pushed left through the word, its class pushed right through
    the output, and for a word landing outside T a third left push of the
    final class through that output; each T^1 product is folded one
    ``mul1`` call at a time.  Caches in ``ctx._sig_cache``."""
    cached = ctx._sig_cache.get(word)
    if cached is not None:
        return cached
    for letter in word:
        if letter not in ctx.letter_eval:
            raise InvalidLetter(f"unknown letter {letter!r}")
    sem, conn = ctx.green.sem, ctx.conn
    elems = tuple(ctx.letter_eval[a] for a in word)

    def fold(xs):
        return functools.reduce(sem.mul1, xs, sem.order)

    if not elems:
        sig = ("empty", sem.order)
    else:
        first, i = _reference_push(conn, 0, elems, "left")
        pushed, j = _reference_push(conn, i, first, "right")
        if j == 0:
            sig = ("sub", fold(pushed))
        else:
            back, k = _reference_push(conn, j, pushed, "left")
            sig = ("class", k, fold(back))
    ctx._sig_cache[word] = sig
    return sig


def reference_rewrite_pair(st, green, conn, letters, u):
    """``automatic._rewrite_pair`` with its own chains: the right subscripts
    are computed backwards from the identity class, then the left ones
    forwards, and the left chain must close at the identity class."""
    sem = green.sem
    elems = [st.letter_eval[a] for a in u]
    if sem.prod1(elems) not in green.sub.members:
        return None
    m = len(u)
    i_chain = [0] * (m + 1)  # i_chain[k] is the subscript of letter k (1-based)
    for k in range(m, 1, -1):
        i_chain[k - 1] = conn.left_class[elems[k - 1]][i_chain[k]]
    out = []
    j = conn.left_class[elems[0]][i_chain[1]]
    for k in range(1, m + 1):
        name = f"b{j}_{u[k - 1]}_{i_chain[k]}"
        if name not in letters.excluded:
            out.append(name)
        j = conn.right_class[j][conn.left_factor[elems[k - 1]][i_chain[k]]]
    if j != 0:
        raise InternalInconsistency("rewrite of a T word did not close")
    return (tuple(u), tuple(out))


def outcome(fn, *args):
    """The value of a call, or the type and message of the library error it
    raised."""
    try:
        return fn(*args)
    except GreenIndexError as exc:
        return type(exc), str(exc)


def reference_h_class_of(green, x):
    """``GreenData.h_class_of`` by its definition: a scan of S for the
    elements sharing x's H-class id."""
    hid = green.h_id[x]
    return frozenset(u for u in green.sem.elements if green.h_id[u] == hid)


def reference_family_action(sem, sub, classes):
    """``schutz.lambda_data``'s action by its definition: the image of each
    class's whole set under right translation by t in T^1, looked up among
    the classes (None when it is none of them)."""
    sets = {cls: p for p, cls in enumerate(classes)}
    return {(p, t): sets.get(frozenset(sem.mul1(h, t) for h in cls))
            for p, cls in enumerate(classes) for t in sub.t_one()}


def reference_verify_sub_presentation(pres, assignment, sub, **bounds):
    """Verification of a presentation of T by re-indexing: T becomes a
    standalone semigroup (its table validated again), a letter not assigned
    an element of T gives False, and ``present.verify_presentation`` runs
    on the copy."""
    order = sub.sorted_members()
    back = {p: i for i, p in enumerate(order)}
    sem = core.validate_table(
        [[back[sub.parent.mul(x, y)] for y in order] for x in order])
    if any(assignment.get(a) not in back for a in pres.alphabet):
        return False
    local = {a: back[assignment[a]] for a in pres.alphabet}
    return present.verify_presentation(pres, sem, local, **bounds)


def reference_verify_by_enumeration(pres, target, assignment, max_classes):
    """``present.verify_presentation`` by enumeration alone: the letters
    generate the target, every relation holds, and the quotient closes
    within ``max_classes`` with one class per element of the target, mapped
    bijectively.  ``BoundExceeded`` when the enumeration does not close."""
    if isinstance(target, core.SubSemigroup):
        sem, elems = target.parent, target.members
    else:
        sem, elems = target, frozenset(target.elements)

    def value(word):
        return sem.prod1(assignment[a] for a in word)

    if reference_closure(sem, [assignment[a] for a in pres.alphabet]) != elems:
        return False
    if any(value(u) != value(v) for u, v in pres.relations):
        return False
    result = present.enumerate_presentation(pres, max_classes)
    if not result.complete:
        raise BoundExceeded(result.reason)
    return result.size == len(elems) and {value(w) for w in result.reps} == elems


def reference_presents(pres, sem, assignment, max_classes):
    """``present._presents`` in its old order: evaluate every relation,
    then look each rule of the letters up among the relations, read either
    way, and enumerate when one is missing.  The rules pair (a) with w(s)
    for every letter a of element s, and w(x)a with w(xs) for every
    element x, where w spells the shortlex words of ``core.generated`` over
    the least letter of each element."""
    if max_classes is not None and max_classes <= 0:
        raise InputError("max_classes must be positive")

    def value(word):
        return present.evaluate_word(sem, assignment, word)

    if any(value(u) != value(v) for u, v in pres.relations):
        return False
    letter_of = {}
    for a in sorted(pres.alphabet):
        letter_of.setdefault(assignment[a], a)
    over = core.generated(sem, sorted(letter_of))
    tree = {x: tuple(letter_of[g] for g in w) for x, w in over.words.items()}
    rels = set(pres.relations)

    def holds(u, v):
        return u == v or (u, v) in rels or (v, u) in rels

    letters = [(a, assignment[a]) for a in pres.alphabet]
    if all(holds((a,), tree[s]) for a, s in letters) and all(
            holds(w + (a,), tree[sem.mul(x, s)])
            for x, w in tree.items() for a, s in letters):
        return True
    size = len(tree)
    if max_classes is None:
        max_classes = max(4 * size, 64)
    result = present.enumerate_presentation(pres, max_classes)
    if not result.complete:
        raise BoundExceeded(result.reason or "enumeration incomplete")
    return result.size == size and len({value(w) for w in result.reps}) == size


def reference_parse_word(raw: str, alphabet):
    """``present.parse_word`` on a joined string by its definition: a
    recursive search, longest letter first, that returns the first
    tokenization it finds."""
    letters = sorted(set(alphabet), key=len, reverse=True)
    out = []

    def go(i):
        if i == len(raw):
            return True
        for a in letters:
            if raw.startswith(a, i):
                out.append(a)
                if go(i + len(a)):
                    return True
                out.pop()
        return False

    if not go(0):
        raise InvalidLetter(f"cannot tokenize {raw!r} over {list(alphabet)}")
    return tuple(out)


def reference_validate_table(table, names=None):
    """``core.validate_table`` on a well-formed table by its definition:
    every triple (x, y, z) in lexicographic order is checked, the first
    failing one is the witness, and the identity is the first element that
    is a two-sided identity."""
    rows = tuple(tuple(row) for row in table)
    n = len(rows)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
                    raise NotAssociative(x, y, z)
    identity = next((e for e in range(n) if all(
        rows[e][x] == x and rows[x][e] == x for x in range(n))), None)
    return core.FiniteSemigroup(order=n, table=rows, identity=identity,
                                names=names)


def reference_connectors(green):
    """``relgreen.connectors`` by its definition: each factor witness is the
    first element of T^1, in order, that solves its equation, found by a
    linear scan."""
    sem = green.sem
    n = sem.order
    k = len(green.complement_classes)
    t_one = green.sub.t_one()

    def first(pred):
        for t in t_one:
            if pred(t):
                return t
        raise InternalInconsistency("no connector witness")

    lc = [[0] * (k + 1) for _ in range(n + 1)]
    lf = [[0] * (k + 1) for _ in range(n + 1)]
    rc = [[0] * (n + 1) for _ in range(k + 1)]
    rf = [[0] * (n + 1) for _ in range(k + 1)]
    for i in range(k + 1):
        rep = green.rep_of(i)
        for s in range(n + 1):
            p = sem.mul1(s, rep)
            j = lc[s][i] = green.class_of(p)
            if s == n:
                lf[s][i] = n
            elif j == relgreen.IDENTITY_CLASS:
                lf[s][i] = p
            else:
                lf[s][i] = first(lambda t: sem.mul1(green.rep_of(j), t) == p)
            q = sem.mul1(rep, s)
            j2 = rc[i][s] = green.class_of(q)
            if s == n:
                rf[i][s] = n
            elif j2 == relgreen.IDENTITY_CLASS:
                rf[i][s] = q
            else:
                rf[i][s] = first(lambda t: sem.mul1(t, green.rep_of(j2)) == q)
    return relgreen.ConnectorTables(
        green=green,
        left_class=tuple(map(tuple, lc)),
        left_factor=tuple(map(tuple, lf)),
        right_class=tuple(map(tuple, rc)),
        right_factor=tuple(map(tuple, rf)),
    )


class _ReferenceTable:
    """The enumerator's union-find table as it was when tracing and merging
    reported whether they changed anything."""

    def __init__(self, n_letters, cap):
        self.n_letters = n_letters
        self.cap = cap
        self.rows = [[None] * n_letters]
        self.parent = [0]

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def new_node(self):
        if len(self.rows) > self.cap:
            raise _ReferenceCapHit
        self.rows.append([None] * self.n_letters)
        self.parent.append(len(self.rows) - 1)
        return len(self.rows) - 1

    def get(self, node, letter):
        v = self.rows[node][letter]
        return None if v is None else self.find(v)

    def trace_define(self, node, word):
        cur = self.find(node)
        changed = False
        for letter in word:
            nxt = self.get(cur, letter)
            if nxt is None:
                nxt = self.new_node()
                self.rows[cur][letter] = nxt
                changed = True
            cur = nxt
        return cur, changed

    def merge(self, x, y):
        queue = [(x, y)]
        merged = False
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.parent[b] = a
            merged = True
            row_b = self.rows[b]
            row_a = self.rows[a]
            for letter in range(self.n_letters):
                tb = row_b[letter]
                if tb is None:
                    continue
                ta = row_a[letter]
                if ta is None:
                    row_a[letter] = tb
                else:
                    queue.append((ta, tb))
        return merged


class _ReferenceCapHit(Exception):
    pass


def reference_enumerate_presentation(pres, max_classes):
    """``present.enumerate_presentation`` as a fixed point: sweeps of
    relation traces repeat until one changes nothing, then every relation
    is traced from every live node once more as the certificate.  The
    node cap, the verdicts and the shortlex representatives are the
    library's."""
    if max_classes <= 0:
        raise InputError("max_classes must be positive")
    letter_pos = {a: i for i, a in enumerate(pres.alphabet)}
    rels = [
        (tuple(letter_pos[a] for a in u), tuple(letter_pos[a] for a in v))
        for u, v in pres.relations
    ]
    table = _ReferenceTable(len(pres.alphabet), cap=max(64, 8 * max_classes))

    def incomplete(reason):
        return present.EnumerationResult(complete=False, reason=reason,
                                         size=None, reps=())

    try:
        for _round in range(2 * table.cap + 10):
            changed = False
            alpha = 0
            while alpha < len(table.rows):
                if table.find(alpha) != alpha:
                    alpha += 1
                    continue
                for u, v in rels:
                    x, ch1 = table.trace_define(alpha, u)
                    y, ch2 = table.trace_define(table.find(alpha), v)
                    changed |= ch1 or ch2
                    changed |= table.merge(x, y)
                a = table.find(alpha)
                for letter in range(table.n_letters):
                    if table.get(a, letter) is None:
                        table.rows[a][letter] = table.new_node()
                        changed = True
                alpha += 1
            if not changed:
                break
        else:
            raise InternalInconsistency("enumeration did not stabilize")
    except _ReferenceCapHit:
        return incomplete("class bound exceeded")

    live = [i for i in range(len(table.rows)) if table.parent[i] == i]
    if len(live) - 1 > max_classes:
        return incomplete("class bound exceeded")

    for node in live:
        for letter in range(table.n_letters):
            if table.get(node, letter) is None:
                raise InternalInconsistency("table not total after closure")
        for u, v in rels:
            x, _ = table.trace_define(node, u)
            y, _ = table.trace_define(node, v)
            if x != y:
                raise InternalInconsistency("relation open after closure")

    reps = []
    frontier = [(table.find(0), ())]
    seen = {table.find(0)}
    while frontier:
        nxt = []
        for node, word in frontier:
            for letter in range(table.n_letters):
                tgt = table.get(node, letter)
                if tgt not in seen:
                    seen.add(tgt)
                    w = word + (pres.alphabet[letter],)
                    reps.append(w)
                    nxt.append((tgt, w))
        frontier = nxt
    if len(seen) != len(live):
        raise InternalInconsistency("unreachable live classes")
    return present.EnumerationResult(complete=True, reason=None,
                                     size=len(reps), reps=tuple(reps))
