"""Workload ``transfer``: the automatic-structure cliff.  T3 over its ideal
of non-permutations.  A pass takes S = T3 with each generating set of
``GENERATING_SETS`` (3, 4 and 5 letters) in turn, builds the structure for
S, transfers it to T and verifies the result on all words up to length 3,
the shortest bound at which every element of T has an accepted word.  The
seed fixes the order of the three tasks within each pass.

The transferred alphabet has (Green index) x |A| x (Green index) letters,
and its multipliers store pair alphabets over it, so cost and memory grow
with the cube of the letter count: about 0.5, 1 and 1.6 s per task here.
The 10 generators of ``find_generating_set(T3)`` take about 20 s and 3 GB
per pass, too long to time often enough in one run to be steady.

Only this workload calls ``automatic``, so a transfer fix should leave the
other two workloads unchanged.
"""

from __future__ import annotations

import random

from greenindex import automatic

import instances
from common import check, green_setup

GENERATING_SETS = (
    ("021", "102", "122"),
    ("021", "112", "210", "220"),
    ("001", "021", "120", "200", "212"),
)
VERIFY_MAX_LEN = 3
COLLECT_BEFORE_OP = True
MEMORY = {"automatic.transfer_details": "tracemalloc"}


class Inputs:
    def __init__(self):
        self.raw = instances.t3_ideal()


def setup(inp: Inputs, spans):
    return green_setup(inp.raw, spans)


class Ready:
    def __init__(self, inp: Inputs, contexts, _workdir):
        self.raw = inp.raw
        self.sem, self.sub, self.green, self.conn = contexts
        check(self.green.green_index == self.raw.green_index,
              f"t3_ideal: Green index {self.green.green_index}")
        index = {name: i for i, name in enumerate(self.raw.names)}
        self.gen_sets = [[index[name] for name in names] for names in GENERATING_SETS]


def make_pass(ready: Ready, seed: int, index: int):
    order = list(range(len(ready.gen_sets)))
    random.Random(f"transfer:{seed}:{index}").shuffle(order)
    return order


class Stats:
    """Counts read from the transferred structures, summed over a pass."""

    def __init__(self):
        self.letters: dict[int, dict[str, int]] = {}

    def counts(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for per_set in self.letters.values():
            for k, v in per_set.items():
                out[f"automatic.{k}"] = out.get(f"automatic.{k}", 0) + v
        return out

    def props(self) -> dict:
        return {"n": 27, "T": 21, "green_index": 7, "verify_max_len": VERIFY_MAX_LEN,
                "per_A": {f"A{len(GENERATING_SETS[k])}": v
                          for k, v in sorted(self.letters.items())}}


def _letters_used(nfa) -> int:
    """Letters on transitions that lie on some accepting path."""
    fwd, back = {}, {}
    for s, _sym, d in nfa.transitions:
        fwd.setdefault(s, []).append(d)
        back.setdefault(d, []).append(s)

    def reach(start, edges):
        seen, todo = set(start), list(start)
        while todo:
            for nxt in edges.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    live = reach(nfa.initial, fwd) & reach(nfa.accepting, back)
    return len({sym for s, sym, d in nfa.transitions
                if sym is not None and s in live and d in live})


def _structure_counts(result) -> dict[str, int]:
    st = result.structure
    mults = st.multipliers.values()
    return {
        "letters_total": len(result.letters.names),
        "letters_kept": len(st.alphabet),
        "letters_used": _letters_used(st.acceptor),
        "acceptor_states": st.acceptor.n_states,
        "multiplier_states": sum(m.nfa.n_states for m in mults),
        "stored_symbols": len(st.acceptor.alphabet)
        + sum(len(m.nfa.alphabet) for m in mults),
    }


def run_task(ready: Ready, k: int, rec, spans, stats: Stats) -> None:
    sem, sub = ready.sem, ready.sub
    tag = f"A{len(ready.gen_sets[k])}"
    st = result = verdict = None
    with rec.op(f"structure_for_finite {tag}"):
        with spans.span("automatic.structure_for_finite"):
            st = automatic.structure_for_finite(sem, ready.gen_sets[k])
    if st is None:
        return
    with rec.op(f"transfer_details {tag}"):
        with spans.span("automatic.transfer_details"):
            result = automatic.transfer_details(st, sub, ready.green, ready.conn)
    if result is not None:
        with rec.op(f"verify_structure_report {tag}"):
            with spans.span("automatic.verify_structure_report"):
                verdict = automatic.verify_structure_report(
                    result.structure, sub, VERIFY_MAX_LEN)
        stats.letters[k] = _structure_counts(result)
        check(set(result.structure.letter_eval.values()) <= sub.members,
              f"transfer {tag}: a letter evaluates outside T")
    del result
    if verdict is not None:
        check(verdict[0], f"transfer {tag}: verifier says {verdict[1]}")


def run_pass(ready: Ready, order, rec, spans, stats: Stats) -> None:
    for k in order:
        run_task(ready, k, rec, spans, stats)
