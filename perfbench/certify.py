"""Workload ``certify``: one pass runs a fixed ladder of certification
tasks under the library's default bounds, then a CLI leg.

For each ladder instance (see ``instances.ladder``) the tasks are
``generators`` (Schreier generators, the factorizer over all of T, extended
generators, and per complement class its Schutzenberger group, lambda data
and group generators), ``presentation`` (synthesis from the table
presentation of T, then verification) and ``growth`` (the domination check
with R = representatives and the adjoined identity).  The table
presentations of Z_n are verified too.  This is where shortlex forms are
re-derived on every call and where the enumerator hits its bounds.  The
seed fixes the order of the ladder tasks within each pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from greenindex import cli, core, growth, present, rewrite, schutz

import instances
from common import check, green_setup

GROWTH_RADIUS = 8
# Ops are short and many allocate heavily, so each starts from a full
# collection; otherwise an op's time depends on which op ran before it.
COLLECT_BEFORE_OP = True
MEMORY = {name: "tracemalloc" for name in (
    "present.synthesize_presentation", "present.verify_presentation",
    "growth.domination_check")}
CLI_COMMANDS = (
    ("green_index", ["green-index", "{S}", "{T}"]),
    ("connectors", ["connectors", "{S}", "{T}"]),
    ("schreier", ["schreier", "{S}", "{T}", "--gens", "1"]),
    ("present_synth", ["present", "synth", "{S}", "{T}"]),
    ("present_verify", ["present", "verify", "--presentation", "{P}",
                        "--semigroup", "{Sfile}"]),
    ("wp", ["wp", "{S}", "{T}", "--word1", "t3,t3", "--word2", "t0"]),
    ("growth_dominate", ["growth", "dominate", "{S}", "{T}", "--r", "6,1,2",
                         "--sub-gens", "3", "--max", "8"]),
    ("auto_build", ["auto", "build", "{S}", "--gens", "1"]),
)
CLI_EXPECT = {"green_index": {"green_index": 3}, "present_verify": {"verified": True},
              "wp": {"equal": True}, "growth_dominate": {"holds": True}}


class Inputs:
    def __init__(self):
        self.ladder = instances.ladder()
        self.zn = {n: instances.zmod(n)[0] for n in instances.ZN_ORDERS}


def setup(inp: Inputs, spans):
    """Validated tables, subsemigroups, Green data and connectors."""
    sems: dict[int, core.FiniteSemigroup] = {}
    contexts = []
    for raw in inp.ladder:
        # t3_ideal and t3_const share one table, validated once.
        ctx = green_setup(raw, spans, sems.get(id(raw.table)))
        sems[id(raw.table)] = ctx[0]
        contexts.append(ctx)
    zn = {}
    for n, table in inp.zn.items():
        with spans.span("core.validate_table"):
            zn[n] = core.validate_table(table)
    return contexts, zn


class Entry:
    """One ladder instance, ready for its tasks."""

    def __init__(self, raw, sem, sub, green, conn):
        self.raw, self.sem, self.sub, self.green, self.conn = raw, sem, sub, green, conn
        check(green.green_index == raw.green_index,
              f"{raw.name}: Green index {green.green_index} != {raw.green_index}")
        self.a_gens = schutz.find_generating_set(sem)
        b_gens, _ = rewrite.schreier_generators(sem, self.a_gens, sub, green, conn)
        self.b_gens = sorted(b_gens)
        self.r_set = sorted(set(green.reps) | {sem.order})

    def props(self) -> dict:
        return {"n": self.sem.order, "T": len(self.sub.members),
                "green_index": self.green.green_index, "A": len(self.a_gens),
                "B": len(self.b_gens)}


class Ready:
    def __init__(self, inp: Inputs, contexts, workdir: Path):
        ladder, self.zn = contexts
        self.entries = [Entry(raw, *ctx) for raw, ctx in zip(inp.ladder, ladder)]
        self.tasks = [(kind, e) for e in self.entries
                      for kind in ("generators", "presentation", "growth")]
        self.tasks += [("zn", n) for n in sorted(self.zn)]
        z6 = inp.ladder[0]
        sem_file, sub_file = workdir / "z6.json", workdir / "t03.json"
        sem_file.write_text(json.dumps({"table": z6.table}))
        sub_file.write_text(json.dumps({"members": sorted(z6.members)}))
        self.pres_file = workdir / "z6_presentation.json"
        fill = {"{S}": ["--semigroup", str(sem_file)], "{T}": ["--sub", str(sub_file)],
                "{P}": [str(self.pres_file)], "{Sfile}": [str(sem_file)]}
        self.cli_argv = [
            (name, [part for arg in argv for part in fill.get(arg, [arg])]
             + ["--format", "json"])
            for name, argv in CLI_COMMANDS
        ]
        self.cli_first: dict[str, str] = {}


def make_pass(ready: Ready, seed: int, index: int):
    order = list(range(len(ready.tasks)))
    random.Random(f"certify:{seed}:{index}").shuffle(order)
    return order


class Stats:
    def __init__(self):
        self.relations = 0
        self.bound_exceeded = 0
        self.k2 = 0
        self.stdout_bytes = 0
        self.passes = 0
        self.instances: dict[str, dict] = {}

    def counts(self) -> dict[str, float]:
        per = max(1, self.passes)
        return {"present.relations": self.relations / per,
                "present.bound_exceeded": self.bound_exceeded / per,
                "growth.k2": self.k2 / per,
                "cli.stdout_bytes": self.stdout_bytes / per}

    def props(self) -> dict:
        return {"ladder": self.instances, "zn_orders": list(instances.ZN_ORDERS)}


def _closure(table, gens):
    return instances.closure(table, sorted(set(gens)))


def _evaluate(table, word, n):
    acc = n
    for x in word:
        acc = x if acc == n else table[acc][x]
    return acc


def task_generators(e: Entry, rec, spans, stats):
    sem, sub, green, conn, raw = e.sem, e.sub, e.green, e.conn, e.raw
    with rec.op(f"generators {raw.name}") as op:
        with spans.span("rewrite.schreier_generators"):
            b_gens, factorizer = rewrite.schreier_generators(
                sem, e.a_gens, sub, green, conn)
        with spans.span("rewrite.factorizer"):
            words = {t: factorizer(t) for t in sub.sorted_members()}
        with spans.span("rewrite.extended_generators"):
            a_ext = rewrite.extended_generators(sorted(b_gens), green)
        groups = []
        for i in range(1, green.class_count):
            cls, rep = green.complement_classes[i - 1], green.rep_of(i)
            with spans.span("schutz.schutz_group"):
                grp = schutz.schutz_group(sem, sub, cls, rep, green=green)
            with spans.span("schutz.lambda_data"):
                fam = schutz.lambda_data(sem, sub, green, cls, rep)
            with spans.span("schutz.schutz_generators"):
                gens = schutz.schutz_generators(sorted(b_gens), fam, grp)
            groups.append((cls, grp, gens))
    if not op.ok:
        return
    table, n = raw.table, sem.order
    for t, word in words.items():
        check(all(x in b_gens for x in word) and _evaluate(table, word, n) == t,
              f"{raw.name}: factorizer word {word} does not give {t}")
    check(_closure(table, b_gens) == raw.members, f"{raw.name}: B does not generate T")
    check(a_ext == frozenset(b_gens) | set(green.reps)
          and _closure(table, a_ext) == frozenset(range(n)),
          f"{raw.name}: B with the representatives does not generate S")
    for cls, grp, gens in groups:
        gtab = [list(r) for r in grp.group.table]
        whole = _closure(gtab, gens or {grp.group.identity})
        check(grp.order == len(cls) and whole == frozenset(range(grp.order)),
              f"{raw.name}: Schutzenberger data of {sorted(cls)} is wrong")


def task_presentation(e: Entry, rec, spans, stats):
    sem, sub, green, conn, raw = e.sem, e.sub, e.green, e.conn, e.raw
    pres = verified = None
    with rec.op(f"presentation {raw.name}") as op:
        with spans.span("present.sub_table_presentation"):
            q_pres, q_assign = present.sub_table_presentation(sem, sub)
        with spans.span("present.build_schutz_packs"):
            packs = present.build_schutz_packs(sem, sub, green, q_pres, q_assign)
        with spans.span("present.synthesize_presentation"):
            pres, assign = present.synthesize_presentation(
                q_pres, q_assign, packs, green, conn)
        with spans.span("present.verify_presentation"):
            verified = present.verify_presentation(pres, sem, assign)
    if not op.ok:
        stats.bound_exceeded += 1
    if pres is not None:
        stats.relations += len(pres.relations)
        for u, v in pres.relations:
            check(_evaluate(raw.table, [assign[a] for a in u], sem.order)
                  == _evaluate(raw.table, [assign[a] for a in v], sem.order),
                  f"{raw.name}: synthesized relation {u} = {v} fails in S")
    if verified is not None:
        check(verified, f"{raw.name}: verify_presentation returned False")


def task_growth(e: Entry, rec, spans, stats):
    report = None
    with rec.op(f"growth {e.raw.name}"):
        with spans.span("growth.domination_check"):
            report = growth.domination_check(
                e.sem, e.sub, e.r_set, e.b_gens, GROWTH_RADIUS)
    if report is not None:
        check(report.holds and report.k1 == len(e.r_set),
              f"{e.raw.name}: domination check does not hold")
        stats.k2 += report.k2
        stats.instances.setdefault(e.raw.name, {})["k2"] = report.k2


def task_zn(ready: Ready, n: int, rec, spans, stats):
    verified = None
    with rec.op(f"presentation Z{n}") as op:
        with spans.span("present.presentation_from_table"):
            pres, assign = present.presentation_from_table(ready.zn[n])
        with spans.span("present.verify_presentation"):
            verified = present.verify_presentation(pres, ready.zn[n], assign)
    if not op.ok:
        stats.bound_exceeded += 1
    if verified is not None:
        check(verified, f"Z{n}: verify_presentation returned False")


def cli_leg(ready: Ready, rec, spans, stats):
    """Each subcommand in-process with --format json; stdout must match the
    first pass byte for byte."""
    for name, argv in ready.cli_argv:
        out = io.StringIO()
        code = None
        with rec.op(f"cli {name}"):
            with spans.span(f"cli.{name}"), contextlib.redirect_stdout(out):
                code = cli.main(argv)
        if code is None:
            continue
        text = out.getvalue()
        check(code == 0, f"cli {name}: exit code {code}")
        first = ready.cli_first.setdefault(name, text)
        check(text == first, f"cli {name}: stdout differs between passes")
        stats.stdout_bytes += len(text.encode())
        data = json.loads(text)
        if name == "present_synth":
            ready.pres_file.write_text(text)
        for key, value in CLI_EXPECT.get(name, {}).items():
            check(data[key] == value, f"cli {name}: {key} is {data[key]}")


def run_pass(ready: Ready, order, rec, spans, stats: Stats) -> None:
    for k in order:
        kind, arg = ready.tasks[k]
        if kind == "zn":
            task_zn(ready, arg, rec, spans, stats)
        else:
            {"generators": task_generators, "presentation": task_presentation,
             "growth": task_growth}[kind](arg, rec, spans, stats)
    cli_leg(ready, rec, spans, stats)
    stats.passes += 1
    for e in ready.entries:
        stats.instances.setdefault(e.raw.name, {}).update(e.props())
