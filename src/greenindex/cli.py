"""Command-line front end.

One executable with subcommands; every command reads JSON files, prints
either a human summary or schema-stable JSON (byte-identical across runs for
identical inputs) through :func:`_emit`, and exits 0 on success, 1 when a
mathematical verification fails or a bound or memory runs out, 2 on input
errors.  Index flags are checked by the library, whose ``OutOfRange`` is an
input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys

from . import automatic as au
from . import growth as gr
from . import present as pr
from . import relgreen as rg
from . import rewrite as rw
from . import schutz as sc
from .core import (
    BlackBoxSemigroup,
    FiniteSemigroup,
    SubSemigroup,
    _generated,
    is_cancellative,
    is_group,
)
from .errors import GreenIndexError, InputError, NotAssociative, OutOfRange


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _emit(args, out, human=None) -> None:
    """Print ``out`` as JSON, or ``human`` when it is given and
    ``--format human`` was asked for."""
    print(human if human is not None and args.format == "human" else _dump(out))


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_semigroup(path: str) -> FiniteSemigroup:
    return FiniteSemigroup.from_json_dict(_load_json(path))


def _load_sub(sem: FiniteSemigroup, path: str) -> SubSemigroup:
    data = _load_json(path)
    members = data.get("members") if isinstance(data, dict) else None
    if not isinstance(members, list) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in members):
        raise InputError("subsemigroup JSON needs a 'members' list of integers")
    return SubSemigroup(parent=sem, members=frozenset(members))


def _ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}")


def _letters(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip() != "")


def _green(args):
    sem = _load_semigroup(args.semigroup)
    sub = _load_sub(sem, args.sub)
    green = rg.relative_green(sem, sub)
    return sem, sub, green


def cmd_validate(args) -> int:
    data = _load_json(args.semigroup)
    try:
        sem = FiniteSemigroup.from_json_dict(data)
    except (OutOfRange,) as exc:
        _emit(args, {"valid": False, "error": str(exc)})
        return 1
    except GreenIndexError as exc:
        witness = getattr(exc, "witness", None)
        _emit(args, {"valid": False, "error": str(exc),
                     "witness": list(witness) if witness else None})
        return 1
    out = {"valid": True, "order": sem.order, "identity": sem.identity,
           "group": is_group(sem), "cancellative": is_cancellative(sem)}
    _emit(args, out, f"valid semigroup of order {sem.order};"
                     f" identity: {sem.identity}; group: {out['group']};"
                     f" cancellative: {out['cancellative']}")
    return 0


def cmd_green_index(args) -> int:
    sem, sub, green = _green(args)
    out = {
        "green_index": green.green_index,
        "rees_index": rg.rees_index(sem, sub),
        "complement_classes": [sorted(c) for c in green.complement_classes],
        "representatives": list(green.reps),
    }
    _emit(args, out, "\n".join([
        f"Green index: {out['green_index']}",
        f"Rees index:  {out['rees_index']}",
        *(f"  class {i}: {cls} (representative {rep})" for i, (cls, rep) in
          enumerate(zip(out["complement_classes"], out["representatives"]), 1)),
    ]))
    return 0


def cmd_eggbox(args) -> int:
    sem = _load_semigroup(args.semigroup)
    if args.relative:
        if not args.sub:
            raise InputError("--relative needs --sub")
        sub = _load_sub(sem, args.sub)
    else:
        sub = SubSemigroup(parent=sem, members=frozenset(sem.elements))
    green = rg.relative_green(sem, sub)
    dot = rg.eggbox_dot(green)
    _emit(args, {"dot": dot}, dot)
    return 0


def cmd_connectors(args) -> int:
    sem, sub, green = _green(args)
    conn = rg.connectors(green)
    out = {
        "class_count": green.class_count,
        "representatives": [green.rep_of(i) for i in range(green.class_count)],
        "left_class": [list(r) for r in conn.left_class],
        "left_factor": [list(r) for r in conn.left_factor],
        "right_class": [list(r) for r in conn.right_class],
        "right_factor": [list(r) for r in conn.right_factor],
    }
    _emit(args, out, "\n".join([
        f"classes (index 0 = adjoined identity): {out['representatives']}",
        "s * h_i = h_[left_class[s][i]] * left_factor[s][i]",
        "h_i * s = right_factor[i][s] * h_[right_class[i][s]]",
        *(f"  s={s}: classes {klass}, factors {factor}" for s, (klass, factor)
          in enumerate(zip(conn.left_class, conn.left_factor))),
    ]))
    return 0


def cmd_rewrite(args) -> int:
    sem, sub, green = _green(args)
    conn = rg.connectors(green)
    push = rw.push_right if args.direction == "right" else rw.push_left
    tr = push(args.class_index, _ints(args.word), conn)
    out = {
        "direction": args.direction,
        "input_class": tr.input_class,
        "word": list(tr.word),
        "output_word": list(tr.output_word),
        "output_class": tr.output_class,
        "steps": list(tr.steps),
    }
    lhs = ([green.rep_of(tr.input_class), *tr.word]
           if args.direction == "right" else [*tr.word, green.rep_of(tr.input_class)])
    rhs = ([*tr.output_word, green.rep_of(tr.output_class)]
           if args.direction == "right" else [green.rep_of(tr.output_class), *tr.output_word])
    _emit(args, out, f"{lhs} = {rhs} (classes visited: {list(tr.steps)})")
    return 0


def cmd_schreier(args) -> int:
    sem, sub, green = _green(args)
    conn = rg.connectors(green)
    gens = _ints(args.gens)
    bset, factorizer = rw.schreier_generators(sem, gens, sub, green, conn)
    closed = bool(bset) and _generated(sem, bset).members == sub.members
    samples = {
        str(t): list(factorizer(t)) for t in sub.sorted_members()
    }
    out = {"generators": sorted(bset), "closure_is_subsemigroup": closed,
           "factorizations": samples}
    _emit(args, out, "\n".join([
        f"generators of T: {sorted(bset)} (closure equals T: {closed})",
        *(f"  {t} = product{tuple(w)}" for t, w in samples.items()),
    ]))
    return 0


def cmd_schutz(args) -> int:
    sem, sub, green = _green(args)
    h_class = green.h_class_of(args.class_of)
    grp = sc.schutz_group(sem, sub, h_class, min(h_class), green=green)
    fam = sc.lambda_data(sem, sub, green, h_class, min(h_class))
    b_gens = _ints(args.sub_gens) if args.sub_gens else list(sub.sorted_members())
    gens = sc.schutz_generators(b_gens, fam, grp)
    out = {
        "h_class": sorted(h_class),
        "stabilizer": list(grp.stabilizer),
        "gamma_classes": [list(c) for c in grp.gamma_classes],
        "order": grp.order,
        "permutations": [list(p) for p in grp.perms],
        "group_table": [list(r) for r in grp.group.table],
        "generators": sorted(gens),
    }
    _emit(args, out, f"H-class {out['h_class']}, stabilizer {out['stabilizer']}\n"
                     f"gamma classes: {out['gamma_classes']}\n"
                     f"group of order {grp.order}; table {out['group_table']}\n"
                     f"generator images: {out['generators']}")
    return 0


def cmd_present_synth(args) -> int:
    sem, sub, green = _green(args)
    conn = rg.connectors(green)
    if args.presentation:
        q_pres, q_assign = pr.Presentation.from_json_dict(
            _load_json(args.presentation)
        )
        if q_assign is None:
            raise InputError("the base presentation file needs an 'assignment'")
    else:
        q_pres, q_assign = pr.sub_table_presentation(sem, sub)
    packs = pr.build_schutz_packs(sem, sub, green, q_pres, q_assign)
    pres, assign = pr.synthesize_presentation(
        q_pres, q_assign, packs, green, conn, max_classes=args.max_classes)
    _emit(args, pres.to_json_dict(assignment=assign))
    return 0


def cmd_present_enumerate(args) -> int:
    pres, _ = pr.Presentation.from_json_dict(_load_json(args.presentation))
    result = pr.enumerate_presentation(pres, args.max_classes)
    if not result.complete:
        _emit(args, {"complete": False, "reason": result.reason})
        return 0
    _emit(args, {
        "complete": True,
        "size": result.size,
        "representatives": list(map(pres._word_encoder(), result.reps)),
    })
    return 0


def cmd_present_verify(args) -> int:
    pres, assign = pr.Presentation.from_json_dict(_load_json(args.presentation))
    if assign is None:
        raise InputError("the presentation file needs an 'assignment'")
    sem = _load_semigroup(args.semigroup)
    ok = pr.verify_presentation(pres, sem, assign,
                                max_classes=args.max_classes)
    witness = None
    if not ok:
        for u, v in pres.relations:
            if (pr.evaluate_word(sem, assign, u)
                    != pr.evaluate_word(sem, assign, v)):
                witness = list(map(pres._word_encoder(), (u, v)))
                break
    _emit(args, {"verified": ok, "violated_relation": witness})
    return 0 if ok else 1


def cmd_wp(args) -> int:
    sem, sub, green = _green(args)
    ctx = pr.word_problem_context(sem, sub, green=green,
                                  conn=rg.connectors(green))
    w1, w2 = _letters(args.word1), _letters(args.word2)
    verdict = rw.word_equality_report(w1, w2, ctx)
    out = {"equal": verdict.equal, "branch": verdict.branch,
           "detail": verdict.detail}
    _emit(args, out, f"branch: {verdict.branch}\n"
                     f"equal: {verdict.equal} ({verdict.detail})")
    return 0


def cmd_growth_series(args) -> int:
    if args.blackbox:
        if args.blackbox != "nat-plus":
            raise InputError("the only built-in black box is 'nat-plus'")
        sem = BlackBoxSemigroup(multiply=lambda a, b: a + b, generators=(1,))
        witness = sem.spot_check_associativity()
        if witness is not None:
            raise NotAssociative(*witness)
        series = gr.growth_function(sem, [1], args.max)
        disclaimer = ("black-box associativity is spot-checked on sampled"
                      " products only, never proven")
    else:
        if not args.semigroup:
            raise InputError("need --semigroup or --blackbox")
        sem = _load_semigroup(args.semigroup)
        series = gr.growth_function(sem, _ints(args.gens), args.max)
        disclaimer = None
    out = {"series": list(series)}
    if disclaimer:
        out["disclaimer"] = disclaimer
    note = f"note: {disclaimer}\n" if disclaimer else ""
    _emit(args, out, note + " ".join(map(str, series)))
    return 0


def cmd_growth_dominate(args) -> int:
    sem, sub, _green_data = _green(args)
    rep = gr.domination_check(sem, sub, _ints(args.r), _ints(args.sub_gens),
                              args.max)
    out = {
        "k1": rep.k1,
        "k2": rep.k2,
        "r_set": list(rep.r_set),
        "rows": [list(r) for r in rep.rows],
        "holds": rep.holds,
    }
    _emit(args, out, "\n".join([
        f"k1 = {rep.k1}, k2 = {rep.k2}, R = {out['r_set']}",
        *(f"  n={m}: g_S={gs} <= {bound}" for m, gs, bound in rep.rows),
        f"inequality holds: {rep.holds}",
    ]))
    return 0 if rep.holds else 1


def cmd_auto_build(args) -> int:
    sem = _load_semigroup(args.semigroup)
    st = au.structure_for_finite(sem, _ints(args.gens))
    _emit(args, au.structure_to_json(st))
    return 0


def cmd_auto_verify(args) -> int:
    sem = _load_semigroup(args.semigroup)
    st = au.structure_from_json(_load_json(args.structure))
    target = _load_sub(sem, args.sub) if args.sub else sem
    ok, reason = au.verify_structure_report(st, target, args.max_len)
    _emit(args, {"verified": ok, "reason": reason})
    return 0 if ok else 1


def cmd_auto_transfer(args) -> int:
    sem = _load_semigroup(args.semigroup)
    sub = _load_sub(sem, args.sub)
    st = au.structure_from_json(_load_json(args.structure))
    green = rg.relative_green(sem, sub)
    conn = rg.connectors(green)
    res = au.transfer_details(st, sub, green, conn)
    out = au.structure_to_json(res.structure)
    out["excluded_letters"] = sorted(res.letters.excluded)
    _emit(args, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenindex",
        description="Green index computations for finite semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the shared flags, declared once: S alone, and S with T
    on_s = argparse.ArgumentParser(add_help=False)
    on_s.add_argument("--semigroup", required=True)
    on_t = argparse.ArgumentParser(add_help=False, parents=[on_s])
    on_t.add_argument("--sub", required=True)

    def add(name, fn, group=sub, fmt="human", **kw):
        p = group.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=["human", "json"], default=fmt)
        return p

    add("validate", cmd_validate, parents=[on_s], help="validate a Cayley table")
    add("green-index", cmd_green_index, parents=[on_t],
        help="relative classes and index")

    p = add("eggbox", cmd_eggbox, parents=[on_s], help="egg-box diagram as DOT")
    p.add_argument("--sub")
    p.add_argument("--relative", action="store_true")

    add("connectors", cmd_connectors, parents=[on_t], help="transport tables")

    p = add("rewrite", cmd_rewrite, parents=[on_t],
            help="push a representative through a word")
    p.add_argument("--class-index", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--direction", choices=["right", "left"], default="right")

    p = add("schreier", cmd_schreier, parents=[on_t],
            help="subsemigroup generators from S generators")
    p.add_argument("--gens", required=True)

    p = add("schutz", cmd_schutz, parents=[on_t],
            help="Schutzenberger group of an H-class")
    p.add_argument("--class-of", type=int, required=True)
    p.add_argument("--sub-gens")

    pres = sub.add_parser("present", help="presentation tools")
    pres_sub = pres.add_subparsers(dest="subcommand", required=True)

    p = add("synth", cmd_present_synth, pres_sub, "json", parents=[on_t])
    p.add_argument("--presentation")
    p.add_argument("--max-classes", type=int, default=None)

    p = add("enumerate", cmd_present_enumerate, pres_sub, "json")
    p.add_argument("--presentation", required=True)
    p.add_argument("--max-classes", type=int, default=1000)

    p = add("verify", cmd_present_verify, pres_sub, "json", parents=[on_s])
    p.add_argument("--presentation", required=True)
    p.add_argument("--max-classes", type=int, default=None)

    p = add("wp", cmd_wp, parents=[on_t], help="decide equality of two words")
    p.add_argument("--word1", required=True)
    p.add_argument("--word2", required=True)

    grw = sub.add_parser("growth", help="growth series and domination")
    grw_sub = grw.add_subparsers(dest="subcommand", required=True)

    p = add("series", cmd_growth_series, grw_sub)
    p.add_argument("--semigroup")
    p.add_argument("--gens", default="")
    p.add_argument("--max", type=int, default=20)
    p.add_argument("--blackbox")

    p = add("dominate", cmd_growth_dominate, grw_sub, parents=[on_t])
    p.add_argument("--r", required=True)
    p.add_argument("--sub-gens", required=True)
    p.add_argument("--max", type=int, default=12)

    aut = sub.add_parser("auto", help="automatic structures")
    aut_sub = aut.add_subparsers(dest="subcommand", required=True)

    p = add("build", cmd_auto_build, aut_sub, "json", parents=[on_s])
    p.add_argument("--gens", required=True)

    p = add("verify", cmd_auto_verify, aut_sub, "json", parents=[on_s])
    p.add_argument("--structure", required=True)
    p.add_argument("--sub")
    p.add_argument("--max-len", type=int, default=6)

    p = add("transfer", cmd_auto_transfer, aut_sub, "json", parents=[on_t])
    p.add_argument("--structure", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of :func:`main` and then reused:
    parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GreenIndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # report once the frames that filled memory are freed
    print(f"error: out of memory ({_memory_limit()}); try a smaller input"
          " or bound", file=sys.stderr)
    return 1


def _memory_limit() -> str:
    """The process's soft address-space limit, in MB."""
    soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY:
        return "no address-space limit set"
    return f"address-space limit {soft >> 20} MB"


if __name__ == "__main__":
    sys.exit(main())
