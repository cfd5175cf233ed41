"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the
separate traced run that prints the per-layer metrics (and writes its
spans to ``.bench_out/``).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every checked answer was right (``wrong`` = 0).

The program under test is imported from ``src/`` next to this
directory; without it the run fails before printing a result.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("solve-cold", "serve-zipf", "match-log")


def _import_program():
    """Put the checkout's ``src`` first on the path and make sure the
    program comes from there, not from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program source under %s" % SRC)
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise SystemExit("perfbench: imported repro from %s" % where)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, HERE)
    from common import Report, out_dir

    if args.workload == "solve-cold":
        import solve_cold as workload
    elif args.workload == "serve-zipf":
        import serve_zipf as workload
    else:
        import match_log as workload

    report = Report(args.workload, args.seed, args.trace)
    tracer = workload.run(report, args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        path = os.path.join(out_dir(), "trace-%s-%d.jsonl" % (
            args.workload, args.seed))
        tracer.write(path)
        report.note("spans: %s" % os.path.relpath(path))
    print(report.render())
    print(json.dumps(report.result(), sort_keys=True))
    sys.stdout.flush()
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
