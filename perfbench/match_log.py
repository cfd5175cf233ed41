"""match-log: closed loop, one thread, in process.

A seeded synthetic log is scanned line by line with
``RegexMatcher.finditer`` for every RegExLib pattern plus the extended
(``&``/``~``) ones, all sharing one ``LazyDfa``.  One operation is one
log line scanned by every pattern; a pattern's scan that raises counts
as failed and is not checked.
"""

import time

from repro.alphabet import IntervalAlgebra
from repro.matcher.dfa_cache import LazyDfa
from repro.matcher.matcher import RegexMatcher
from repro.regex.builder import RegexBuilder

import inputs
import oracle
from calibrate import Calibration
from common import median, quantile, self_rss_mb
from layers import Counters, dfa_counters, instrument, per_layer_metrics
from tracer import Tracer

#: Lines generated per run; a run that scans them all starts over.
LOG_LINES = 4000
SETUP_SAMPLES = 21
#: the traced phase runs about three times slower than the reference
TRACE_REFERENCE_SHARE = 0.3


def compile_all():
    """Parse and compile every pattern onto one builder and one shared
    lazy DFA: the program's set-up for this workload."""
    builder = RegexBuilder(IntervalAlgebra())
    dfa = LazyDfa(builder)
    matchers = []
    for name, pattern, expressible in inputs.log_patterns():
        regex = oracle.regex_parser.parse(builder, pattern)
        matchers.append((name, pattern, expressible,
                         RegexMatcher(builder, regex, dfa)))
    return builder, dfa, matchers


def scan(matchers, line):
    """Every pattern's match spans in ``line`` (None for a pattern
    whose scan raised), and the time taken."""
    started = time.perf_counter()
    spans = []
    for _name, _pattern, _expressible, matcher in matchers:
        try:
            spans.append([m.span() for m in matcher.finditer(line)])
        except Exception:
            spans.append(None)
    return time.perf_counter() - started, spans


def _checkers(builder, matchers):
    return [oracle.SpanChecker(builder, matcher.regex, pattern, expressible)
            for _name, pattern, expressible, matcher in matchers]


def _check(report, checkers, matchers, line, spans):
    for checker, (name, *_rest), found in zip(checkers, matchers, spans):
        if found is None:
            report.errors += 1
            continue
        for message in checker.check_line(line, found):
            report.flag("%s on %r: %s" % (name, line, message))


def run(report, seed, seconds, trace):
    lines = inputs.log_lines(seed, LOG_LINES)
    if trace:
        return _run_traced(report, lines, seconds)
    setup_calibration = Calibration(every_s=0.0)
    setup_times = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        builder, _dfa, matchers = compile_all()
        setup_times.append(time.perf_counter() - started)
        setup_calibration.after(setup_times[-1])
    checkers = _checkers(builder, matchers)
    calibration = Calibration()
    latencies = []
    chars = completed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        line = lines[len(latencies) % len(lines)]
        elapsed, spans = scan(matchers, line)
        latencies.append(elapsed)
        calibration.after(elapsed)
        chars += len(line)
        completed += sum(found is not None for found in spans)
        _check(report, checkers, matchers, line, spans)
    scaled = calibration.scaled(latencies)
    report.attempted = len(latencies) * len(matchers)
    report.note("lines=%d patterns=%d inputs=%s" % (
        len(latencies), len(matchers), inputs.digest(lines)))
    report.note("raw: p50=%.4f ms p95=%.4f ms lines/s=%.3f setup=%.6f s" % (
        quantile(latencies, 0.50) * 1e3, quantile(latencies, 0.95) * 1e3,
        len(latencies) / sum(latencies), median(setup_times)))
    report.note(calibration.describe())
    report.note("match.kchars_s=%.3f (characters scanned per second, "
                "summed over patterns, calibrated)" % (
                    chars * len(matchers) / sum(scaled) / 1e3))
    report.metric("setup_s",
                  median(setup_calibration.scaled(setup_times)), "s")
    report.metric("peak_rss_mb", self_rss_mb(), "MB")
    report.metric("decided_frac", completed / report.attempted, "frac")
    report.metric("p50_ms", quantile(scaled, 0.50) * 1e3, "ms")
    report.metric("p95_ms", quantile(scaled, 0.95) * 1e3, "ms")
    report.metric("ops_per_s", len(scaled) / sum(scaled), "1/s")


def _run_traced(report, lines, seconds):
    """Untraced reference phase, then the same lines traced on a fresh
    matcher set: spans must be identical."""
    builder, _dfa, matchers = compile_all()
    checkers = _checkers(builder, matchers)
    reference = []
    deadline = time.perf_counter() + seconds * TRACE_REFERENCE_SHARE
    while time.perf_counter() < deadline and len(reference) < len(lines):
        line = lines[len(reference)]
        elapsed, spans = scan(matchers, line)
        _check(report, checkers, matchers, line, spans)
        reference.append((line, elapsed, spans))
    tracer = Tracer()
    counters = Counters()
    traced_s = request_s = 0.0
    with tracer:
        instrument(tracer, counters)
        builder, dfa, matchers = compile_all()
        before = dfa_counters(dfa)
        for index, (line, _elapsed, expected) in enumerate(reference):
            tracer.request = index
            with tracer.span("request") as span:
                elapsed, spans = scan(matchers, line)
            traced_s += elapsed
            request_s += span.duration
            if spans != expected:
                report.flag("traced spans differ on line %d" % index)
        counters.add_dfa(dfa, before)
    report.attempted = len(reference) * len(matchers)
    untraced_s = sum(elapsed for _line, elapsed, _spans in reference)
    report.metrics.update(per_layer_metrics(
        tracer, counters, len(reference), request_s, untraced_s, traced_s))
    return tracer
