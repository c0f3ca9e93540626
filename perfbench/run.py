"""Benchmark harness for greenindex.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there and nowhere else.  Workloads: ``wordproblem``, ``certify``
and ``transfer`` (see each module's docstring and README.md).

One run sets up several times, then repeats passes over the workload's
operations until ``--seconds`` have been measured; set-up and pass times
are reported at reference speed (see harness.py).
Every answer is checked; a wrong one ends the run with exit code 1 and no
result.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, measured with tracing off.  With ``--trace 1`` they are its
per-layer metrics: the run sets up once with spans on, then alternates a
traced and an untraced pass over the same inputs, so the difference is the
tracing overhead.  Full results and the spans are written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE_LIMIT = 2 << 30  # the transfer workload peaks near 300 MB
WORKLOADS = ("certify", "transfer", "wordproblem")


def import_program():
    """Import greenindex from this checkout's src/, or exit non-zero."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import greenindex
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import greenindex from {src}: {exc}")
    if Path(greenindex.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: greenindex came from {greenindex.__file__}, not {src}")


def limit_address_space():
    """Cap this process's address space, so that a runaway layer ends in a
    recorded MemoryError instead of exhausting a shared machine."""
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_LIMIT)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def print_report(args, info, full, run):
    """The readable lines that precede the JSON line."""
    metrics, failures, bounded = full["metrics"], full["failures"], full["bounded"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} run={json.dumps(info, sort_keys=True)}")
    print(f"  inputs: {json.dumps(full['inputs'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for name, value in full["named"].items():
        print(f"  {name:44s} {value:14.6g}")
    if args.trace:
        for name, value in sorted(run.layer_seconds.items()):
            per = "set-up" if name.startswith("setup.") else "pass"
            print(f"  {name + '_s':44s} {value:14.6g} s per {per}")
        print(f"  tracing overhead {info['overhead_s']:.6g} s"
              f" ({info['overhead_pct']:.3g} % of the untraced passes)")
    print(f"  failed_ratio {full['failed_ratio']:.4f} = ({len(failures)} failed"
          f" + {len(bounded)} bounded) / {full['attempted']} attempted")
    for label, reason in sorted(set(failures + bounded)):
        print(f"    {label}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    limit_address_space()
    import certify
    import transfer
    import wordproblem
    from common import WrongAnswer
    from harness import Run

    wl = {"wordproblem": wordproblem, "certify": certify, "transfer": transfer}[args.workload]
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, wl, args, workdir)
    try:
        if args.trace:
            measured, info = run.traced()
            wanted = spec["per_layer"]
        else:
            measured, info = run.untraced()
            wanted = spec["end_to_end"]
    except WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        return 1

    attempted, failures, bounded = run.outcome()
    metrics = {}
    for m in wanted:
        # A layer the workload never calls reads 0.
        value = measured[m["name"]] if not args.trace else measured.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    unlisted = sorted(set(measured) - set(metrics))
    if unlisted:
        print(f"perfbench: measured but not in BENCHMARK.json: {unlisted}", file=sys.stderr)

    failed_ratio = (len(failures) + len(bounded)) / attempted
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run": info, "inputs": run.stats.props(),
        "metrics": metrics, "named": run.named() if not args.trace else {},
        "attempted": attempted, "failures": failures, "bounded": bounded,
        "failed_ratio": failed_ratio,
    }
    if args.trace:
        full["layer_seconds_per_pass"] = run.layer_seconds
        (workdir / "spans.json").write_text(json.dumps(
            {"columns": ["name", "start", "end", "parent", "op"],
             "spans": run.spans.records}))
    (workdir / "result.json").write_text(json.dumps(full, indent=1, sort_keys=True))

    print_report(args, info, full, run)
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
