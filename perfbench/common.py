"""Shared pieces of the benchmark: quantiles, the run report, memory
probes and the output directory.

Nothing here imports the program under test.
"""

import math
import os
import resource
import statistics

#: The checkout root: the directory that holds ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where runs leave their span files and per-rung daemon scratch.
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: The solving budget of every query, in process and in the daemon:
#: fuel decides, the wall cap is high enough never to.
FUEL = 200000
WALL_CAP_S = 120.0


def out_dir(*parts):
    """A directory under :data:`OUT_DIR`, created on demand."""
    path = os.path.join(OUT_DIR, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def quantile(values, q):
    """Nearest-rank ``q``-quantile of ``values`` (``None`` if empty)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values) if values else None


def self_rss_mb():
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_children(pid):
    """Direct children of ``pid`` read from ``/proc``."""
    kids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return kids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, "rb") as handle:
                stat = handle.read().decode("ascii", "replace")
        except OSError:
            continue
        # the command name may hold spaces: the ppid follows the ')'
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == str(pid):
            kids.append(int(entry))
    return kids


def process_tree(pid):
    """``pid`` and all its descendants."""
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(_proc_children(current))
    return tree


def tree_peak_rss_mb(pid):
    """Summed peak resident set (``VmHWM``) of ``pid`` and its
    descendants, in MiB."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open("/proc/%d/status" % member) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Report:
    """What one run prints: human-readable lines, the metrics of its
    mode, and the answer accounting.

    ``wrong`` counts answers an independent check contradicts;
    ``errors`` counts operations that failed outright (an error
    status, a rejection, a lost reply); ``unchecked`` counts answers
    no independent check could decide — reported, never trusted.
    """

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.lines = []
        self.metrics = {}
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.unchecked = 0
        self.problems = []

    def note(self, text):
        self.lines.append(text)

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def flag(self, message):
        """Record one contradicted answer."""
        self.wrong += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def correct(self):
        return self.wrong == 0

    def result(self):
        """The final JSON object the run prints last."""
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.wrong + self.errors),
            "metrics": self.metrics,
        }

    def render(self):
        out = ["perfbench %s seed=%d trace=%d" % (
            self.workload, self.seed, self.trace)]
        out.extend("  " + line for line in self.lines)
        for name in sorted(self.metrics):
            entry = self.metrics[name]
            out.append("  %-28s %.6g %s" % (name, entry["value"],
                                             entry["unit"]))
        out.append("  attempted=%d wrong=%d errors=%d unchecked=%d" % (
            self.attempted, self.wrong, self.errors, self.unchecked))
        for message in self.problems:
            out.append("  WRONG: %s" % message)
        return "\n".join(out)
