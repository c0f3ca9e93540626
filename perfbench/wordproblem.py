"""Workload ``wordproblem``: seeded word-equality queries on T4 over its
ideal of non-permutations (n = 256, |T| = 232, Green index 25).

Set-up is mostly ``core`` validation of the 256 x 256 table; the queries
are mostly ``rewrite`` pushes.  A fixed share of queries re-ask an earlier
pair of the same pass, so both its words hit the signature cache, while
fresh words take the push path.  Each pass starts from a new context, so
its cache holds only that pass's words.  The enumerator and ``automatic``
are never called.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from greenindex import present, rewrite

import instances
from common import check, green_setup

PAIRS_PER_PASS = 2000
MAX_LEN = 400
REPEAT_SHARE = 0.25   # queries that re-ask an earlier pair of the pass
EMPTY_SHARE = 0.02    # pairs of two empty words
MIXED_SHARE = 0.08    # one word lands in T, the other outside
CLASS_SHARE = 0.35    # of the remaining pairs: words over class letters only
EQUAL_SHARE = 0.55    # of the remaining pairs: equal by construction
COLLECT_BEFORE_OP = False
MEMORY: dict[str, str] = {}


class Inputs:
    """The raw instance; each pass draws its queries from the seed in
    ``make_pass``."""

    def __init__(self):
        self.raw = instances.t4_ideal()


def setup(inp: Inputs, spans):
    sem, sub, green, conn = green_setup(inp.raw, spans)
    with spans.span("present.word_problem_context"):
        ctx = present.word_problem_context(sem, sub, green=green, conn=conn)
    return sem, sub, green, conn, ctx


class Ready:
    """Set-up results plus what the query generator and checker need."""

    def __init__(self, inp: Inputs, contexts, _workdir):
        raw = self.raw = inp.raw
        sem, sub, green, conn, ctx = contexts
        self.sem, self.sub, self.green, self.conn = sem, sub, green, conn
        check(green.green_index == raw.green_index,
              f"t4_ideal: Green index {green.green_index} != {raw.green_index}")
        # The letters of word_problem_context: t<m> is m, d<i> is the
        # representative of complement class i.
        self.value = {f"t{m}": m for m in raw.members}
        for i in range(1, green.class_count):
            self.value[f"d{i}"] = green.rep_of(i)
        check(self.value == ctx.letter_eval, "t4_ideal: unexpected letters")
        self.letter_of = {v: a for a, v in self.value.items()}
        check(len(self.letter_of) == sem.order,
              "t4_ideal: some element has no letter")
        self.sub_letters = sorted(self.value)
        self.class_letters = sorted(a for a, v in self.value.items()
                                    if v not in raw.members)
        self.splits = _splits(raw.table, self.letter_of)

    def fresh_context(self):
        """A context with an empty signature cache, for one pass."""
        return present.word_problem_context(
            self.sem, self.sub, green=self.green, conn=self.conn)


def _splits(table, letter_of):
    """For each element, a few letter pairs whose product it is.  A
    permutation is a product of two elements only if both are
    permutations, so class words stay outside T."""
    out: dict[int, list[tuple[str, str]]] = {}
    n = len(table)
    for x in range(n):
        for y in range(n):
            pairs = out.setdefault(table[x][y], [])
            if len(pairs) < 16:
                pairs.append((letter_of[x], letter_of[y]))
    return out


def _length(rng) -> int:
    return min(MAX_LEN, int(math.exp(rng.uniform(0.0, math.log(MAX_LEN + 1)))))


def _equal_variant(word, ready, rng):
    """A word with the same value: contract adjacent letters into the letter
    of their product, or split a letter into a pair with that product."""
    w = list(word)
    table, value, letter_of = ready.raw.table, ready.value, ready.letter_of
    for _ in range(1 + len(w) // 10):
        if len(w) > 1 and (len(w) >= MAX_LEN or rng.random() < 0.5):
            i = rng.randrange(len(w) - 1)
            w[i:i + 2] = [letter_of[table[value[w[i]]][value[w[i + 1]]]]]
        else:
            i = rng.randrange(len(w))
            w[i:i + 1] = rng.choice(ready.splits[value[w[i]]])
    return tuple(w)


def make_pass(ready: Ready, seed: int, index: int):
    """The query pairs of one pass, from (seed, pass index) alone."""
    rng = random.Random(f"wordproblem:{seed}:{index}")
    pairs: list[tuple[tuple[str, ...], tuple[str, ...]]] = []

    def word(letters):
        return tuple(rng.choices(letters, k=_length(rng)))

    while len(pairs) < PAIRS_PER_PASS:
        r = rng.random()
        if pairs and r < REPEAT_SHARE:
            pairs.append(rng.choice(pairs))
            continue
        r = rng.random()
        if r < EMPTY_SHARE:
            pairs.append(((), ()))
        elif r < EMPTY_SHARE + MIXED_SHARE:
            u, v = word(ready.sub_letters), word(ready.class_letters)
            pairs.append((u, v) if rng.random() < 0.5 else (v, u))
        else:
            letters = (ready.class_letters if rng.random() < CLASS_SHARE
                       else ready.sub_letters)
            u = word(letters)
            if rng.random() < EQUAL_SHARE:
                pairs.append((u, _equal_variant(u, ready, rng)))
            else:
                pairs.append((u, word(letters)))
    return pairs


class Stats:
    """Input properties and branch counts, over every pass of a run."""

    def __init__(self):
        self.lengths: Counter[int] = Counter()
        self.words = 0
        self.repeated_words = 0
        self.pairs_equal = 0
        self.branches: dict[str, int] = {}
        self.decisions = 0

    def counts(self) -> dict[str, float]:
        return {"rewrite.decisions": self.decisions,
                "rewrite.repeated_word_pct": 100 * self.repeated_words / max(1, self.words)}

    def props(self) -> dict:
        total = max(1, sum(self.branches.values()))
        return {"word_length_quartiles": _quartiles(self.lengths), "words": self.words,
                "repeated_word_share": self.repeated_words / max(1, self.words),
                "equal_pair_share": self.pairs_equal / max(1, self.decisions),
                "branch_shares": {b: c / total for b, c in sorted(self.branches.items())}}


def _quartiles(counts: Counter) -> list[int]:
    """Nearest-rank quartiles of a histogram."""
    total, seen, out = sum(counts.values()), 0, []
    marks = [q * total / 4 for q in (1, 2, 3)]
    for value in sorted(counts):
        seen += counts[value]
        while marks and seen >= marks[0]:
            out.append(value)
            marks.pop(0)
    return out


def run_pass(ready: Ready, pairs, rec, spans, stats: Stats) -> None:
    ctx = ready.fresh_context()
    verdicts = []
    for u, v in pairs:
        verdict = None
        with rec.op("decide"):
            with spans.span("rewrite.word_equality_report"):
                verdict = rewrite.word_equality_report(u, v, ctx)
        verdicts.append(verdict)
    table, value, n = ready.raw.table, ready.value, ready.sem.order

    def evaluate(word):
        acc = None
        for a in word:
            x = value[a]
            acc = x if acc is None else table[acc][x]
        return n if acc is None else acc

    seen: set = set()
    for (u, v), verdict in zip(pairs, verdicts):
        expect = evaluate(u) == evaluate(v)
        if verdict is None:
            continue
        check(verdict.equal == expect,
              f"word problem: verdict {verdict.equal} for words {u[:8]}... and"
              f" {v[:8]}... of lengths {len(u)} and {len(v)}")
        stats.branches[verdict.branch] = stats.branches.get(verdict.branch, 0) + 1
        stats.pairs_equal += expect
        for w in (u, v):
            stats.lengths[len(w)] += 1
            stats.words += 1
            stats.repeated_words += w in seen
            seen.add(w)
    stats.decisions += len(pairs)
