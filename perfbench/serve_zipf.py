"""serve-zipf: open loop against the solver daemon.

One process with two threads drives two unix-socket connections to
``python -m repro --store F serve --socket S --jobs 1`` running in its
own process.  The sending thread submits each request at its due time
on a fixed-rate schedule; the receiving thread stamps every reply.
Latency is timed from the due time, so a stall also charges the
requests queued behind it.

The stream is zipfian over ``pattern`` and ``smt2`` jobs; a fixed share
of the requests are first-seen (store capture) and the rest repeat
(store replay).  The stream runs at a fixed 16 qps, then up a
geometric ladder (x1.5) until a rung misses its limits, then once at
the ladder's top rate, far beyond what the daemon can serve, to
measure its capacity.  Every rung starts a fresh daemon with an empty
store.
"""

import json
import os
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import inputs
import oracle
from common import (
    FUEL, ROOT, WALL_CAP_S, median, out_dir, quantile, tree_peak_rss_mb,
)
from layers import Counters, instrument, per_layer_metrics
from tracer import Tracer

FIXED_RATE = 16
#: At least this many requests at the fixed rate, so ten lie beyond p95.
FIXED_MIN_REQUESTS = 200
#: Share of ``--seconds`` the fixed-rate phase lasts (when above the
#: minimum request count).
FIXED_SHARE = 0.65
LADDER_REQUESTS = 100
#: A rung passes when p95 stays within this limit...
P95_LIMIT_MS = 100.0
#: ... and no request is rejected, fails, or is still unanswered this
#: long after its due time.
REPLY_TIMEOUT_S = 20.0
STATS_EVERY_S = 0.25
SPAWN_TIMEOUT_S = 60.0
WARMUP_PATTERN = "perfbench"


class Connection:
    """One NDJSON connection to the daemon."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buffer = b""
        self.lock = threading.Lock()

    def send(self, message):
        data = (json.dumps(message) + "\n").encode("utf-8")
        with self.lock:
            self.sock.sendall(data)

    def read_available(self):
        """Complete lines received so far (blocking for at least one
        chunk)."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buffer += chunk
        *lines, self.buffer = self.buffer.split(b"\n")
        return [json.loads(line) for line in lines if line.strip()]

    def request(self, message, kind):
        """Send ``message`` and wait for the first reply of ``kind``
        (only while no reader thread owns this connection)."""
        self.send(message)
        self.sock.settimeout(SPAWN_TIMEOUT_S)
        try:
            while True:
                for reply in self.read_available():
                    if reply.get("type") == kind:
                        return reply
        finally:
            self.sock.settimeout(None)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class Daemon:
    """One daemon process with a fresh, empty store."""

    def __init__(self, name):
        self.dir = out_dir("serve-%d-%s" % (os.getpid(), name))
        self.store = os.path.join(self.dir, "store.json")
        self.socket = self._short(os.path.join(self.dir, "d.sock"))
        self.proc = None
        self.control = None
        self.setup_s = None

    @staticmethod
    def _short(path):
        """Unix socket paths are limited to about 100 bytes: fall back
        to the path relative to the working directory."""
        return path if len(path) < 100 else os.path.relpath(path)

    def start(self):
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--store", self.store,
             "--fuel", str(FUEL), "--seconds", str(WALL_CAP_S),
             "serve", "--socket", self.socket, "--jobs", "1",
             # token buckets and watermarks far above any rung's load
             "--max-queue", "1000000", "--max-backlog", "1e9",
             "--client-budget", "1000000", "--client-refill", "1e6"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = started + SPAWN_TIMEOUT_S
        while self.control is None:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited with %s"
                                   % self.proc.returncode)
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not come up")
            try:
                self.control = Connection(self.socket)
            except OSError:
                time.sleep(0.005)
        self.control.request({"op": "ping"}, "pong")
        # the worker is up once it has answered a job
        reply = self.control.request(
            {"op": "submit", "id": "warmup", "kind": "pattern",
             "payload": WARMUP_PATTERN}, "result")
        if reply.get("status") != "sat":
            raise RuntimeError("warm-up job failed: %r" % (reply,))
        self.setup_s = time.perf_counter() - started
        return self

    def stats(self):
        return self.control.request({"op": "stats"}, "stats")

    def peak_rss_mb(self):
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self):
        """Shut the daemon down and wait for it and its workers."""
        if self.proc is None:
            return
        try:
            if self.control is not None and self.proc.poll() is None:
                try:
                    self.control.send({"op": "shutdown"})
                except OSError:
                    pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=30)
        finally:
            if self.control is not None:
                self.control.close()
            # the session may still hold workers of a killed daemon
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            self.proc = None
            shutil.rmtree(self.dir, ignore_errors=True)


class Rung:
    """Everything one rung recorded: per-request stamps and replies."""

    def __init__(self, rate, stream):
        self.rate = rate
        self.stream = stream
        self.due = inputs.schedule(rate, len(stream))
        self.sent = [None] * len(stream)
        self.received = [None] * len(stream)
        self.replies = [None] * len(stream)
        self.rejected = 0
        self.errors = 0
        self.in_flight = []       # requests in flight at each send
        self.depths = []          # daemon queue depth samples
        self.stats_before = None
        self.stats_after = None
        self.setup_s = None
        self.rss_mb = None

    def latencies_ms(self):
        return [(self.received[i] - self.due[i]) * 1e3
                for i in range(len(self.stream))
                if self.received[i] is not None]

    def saturated_qps(self):
        """Replies per second from the first reply to the last.  On a
        rung offered far more than the daemon can serve, the daemon is
        busy throughout, so this is its capacity."""
        stamps = [r for r in self.received if r is not None]
        return (len(stamps) - 1) / (max(stamps) - min(stamps))

    def backlog_grows(self):
        """Did requests in flight pile up over the rung?"""
        quarter = max(1, len(self.in_flight) // 4)
        first = max(self.in_flight[:quarter])
        last = max(self.in_flight[-quarter:])
        return last > 2 * first + 2

    def passed(self):
        lat = self.latencies_ms()
        return (self.rejected == 0 and self.errors == 0
                and len(lat) == len(self.stream)
                and quantile(lat, 0.95) <= P95_LIMIT_MS
                and not self.backlog_grows())


def _receive(rung, conns, done, base):
    """The receiving thread: stamp every reply on both connections."""
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    try:
        while not done.is_set():
            for key, _events in selector.select(timeout=0.05):
                now = time.perf_counter() - base
                for reply in key.data.read_available():
                    kind = reply.get("type")
                    if kind == "stats":
                        rung.depths.append(reply.get("queue_depth") or 0)
                        continue
                    ident = reply.get("id") or ""
                    if not ident.startswith("r"):
                        continue
                    index = int(ident[1:])
                    if kind == "result":
                        rung.received[index] = now
                        rung.replies[index] = reply
                    elif kind == "overloaded":
                        rung.rejected += 1
                        rung.received[index] = now
                    elif kind == "error":
                        rung.errors += 1
                        rung.received[index] = now
            if all(r is not None for r in rung.received):
                done.set()
    finally:
        selector.close()


def run_rung(daemon, pool, rung):
    """Drive one rung against a started daemon."""
    conns = [Connection(daemon.socket), Connection(daemon.socket)]
    try:
        rung.stats_before = daemon.stats()
        done = threading.Event()
        base = time.perf_counter() + 0.05
        receiver = threading.Thread(target=_receive,
                                    args=(rung, conns, done, base))
        receiver.start()
        try:
            next_stats = 0.0
            for i, index in enumerate(rung.stream):
                now = time.perf_counter() - base
                if rung.due[i] > now:
                    time.sleep(rung.due[i] - now)
                query = pool[index]
                rung.sent[i] = time.perf_counter() - base
                conns[i % 2].send({
                    "op": "submit", "id": "r%d" % i, "kind": query.kind,
                    "payload": query.text,
                })
                rung.in_flight.append(
                    i + 1 - sum(1 for r in rung.received[:i + 1]
                                if r is not None))
                if rung.sent[i] >= next_stats:
                    conns[0].send({"op": "stats"})
                    next_stats = rung.sent[i] + STATS_EVERY_S
            done.wait(timeout=REPLY_TIMEOUT_S)
        finally:
            done.set()
            receiver.join(timeout=30)
        rung.errors += sum(1 for r in rung.received if r is None)
    finally:
        for conn in conns:
            conn.close()
    rung.stats_after = daemon.stats()
    rung.rss_mb = daemon.peak_rss_mb()
    return rung


def drive(pool, rate, stream, name):
    """One rung on its own fresh daemon."""
    rung = Rung(rate, stream)
    daemon = Daemon(name)
    try:
        daemon.start()
        rung.setup_s = daemon.setup_s
        run_rung(daemon, pool, rung)
    finally:
        daemon.stop()
    return rung


def fixed_length(seconds):
    return max(FIXED_MIN_REQUESTS, int(FIXED_RATE * seconds * FIXED_SHARE))


def _grade(report, rung, pool, labels, memo):
    """Check every reply of a rung; returns how many were decided."""
    decided = 0
    for i, index in enumerate(rung.stream):
        reply = rung.replies[i]
        if reply is None:
            continue
        status = reply.get("status")
        if status in ("sat", "unsat"):
            decided += 1
        elif status == "error":
            report.errors += 1
        query = pool[index]
        key = (query.text, status, reply.get("witness"),
               json.dumps(reply.get("model"), sort_keys=True))
        if key not in memo:
            ok = oracle.check_reply(query, reply)
            memo[key] = oracle.grade(status, labels.get(query.text), ok)
        if memo[key] == oracle.WRONG:
            report.flag("%s at %d qps: %s" % (query.name, rung.rate, status))
        elif memo[key] == oracle.UNCHECKED and status != "unknown":
            report.unchecked += 1
    return decided


def run(report, seed, seconds, trace):
    fixed_pool, fixed_stream = inputs.serve_stream(seed, fixed_length(seconds))
    ladder_pool, ladder_stream = inputs.serve_stream(seed, LADDER_REQUESTS)
    labels = oracle.labels_for(fixed_pool + ladder_pool)
    if trace:
        return _run_traced(report, fixed_pool, fixed_stream, labels)
    memo = {}
    rungs = [drive(fixed_pool, FIXED_RATE, fixed_stream, "fixed")]
    top = rungs[0] if rungs[0].passed() else None
    if top is not None:
        for rate in inputs.ladder()[1:]:
            rung = drive(ladder_pool, rate, ladder_stream, "r%d" % rate)
            rungs.append(rung)
            if not rung.passed():
                break
            top = rung
    capacity = drive(ladder_pool, inputs.LADDER_TOP, ladder_stream,
                     "capacity")
    rungs.append(capacity)
    decided = attempted = 0
    for rung in rungs:
        pool = fixed_pool if rung is rungs[0] else ladder_pool
        decided += _grade(report, rung, pool, labels, memo)
        attempted += len(rung.stream)
        report.errors += rung.errors + rung.rejected
        lat = rung.latencies_ms()
        late = [(sent - due) * 1e3 for sent, due in zip(rung.sent, rung.due)
                if sent is not None]
        failed = rung.errors + rung.rejected
        report.note("rung %3d qps: attempted=%d succeeded=%d failed=%d "
                    "(rejected=%d) p50=%.1fms p95=%.1fms late_p95=%.2fms "
                    "backlog_grows=%s setup=%.3fs" % (
                        rung.rate, len(rung.stream),
                        len(rung.stream) - failed, failed, rung.rejected,
                        quantile(lat, 0.5) or 0, quantile(lat, 0.95) or 0,
                        quantile(late, 0.95) or 0, rung.backlog_grows(),
                        rung.setup_s))
    fixed = rungs[0].latencies_ms()
    report.attempted = attempted
    report.note("inputs=%s first_seen=%d/%d" % (
        inputs.digest([(q.kind, q.text) for q in fixed_pool]
                      + fixed_stream), len(fixed_pool), len(fixed_stream)))
    report.metric("setup_s", median([r.setup_s for r in rungs]), "s")
    report.metric("peak_rss_mb", max(r.rss_mb for r in rungs), "MB")
    report.metric("decided_frac", decided / attempted, "frac")
    report.metric("p50_ms", quantile(fixed, 0.50), "ms")
    report.metric("p95_ms", quantile(fixed, 0.95), "ms")
    report.note("serve.max_qps=%s serve.capacity_qps=%.3f" % (
        top.rate if top else 0, capacity.saturated_qps()))
    report.metric("ops_per_s", capacity.saturated_qps(), "1/s")


# -- the traced run -----------------------------------------------------------

def _serve_spans(tracer, rung):
    """Nested spans per request from the client's stamps and the
    daemon's ``latency_s`` and ``elapsed``; returns the serving
    layer's figures."""
    first_seen = set()
    solve_ms, queue_ms, socket_ms, late_ms = [], [], [], []
    miss_ms, hit_ms = [], []
    for i, index in enumerate(rung.stream):
        reply = rung.replies[i]
        late_ms.append((rung.sent[i] - rung.due[i]) * 1e3)
        if reply is None or reply.get("latency_s") is None:
            continue
        due, sent, done = rung.due[i], rung.sent[i], rung.received[i]
        latency, elapsed = reply["latency_s"], reply["elapsed"]
        top = tracer.add("serve.request", due, done, request=i)
        tracer.add("serve.generator", due, sent, parent=top, request=i)
        daemon = tracer.add("serve.daemon", done - latency, done, parent=top,
                            request=i)
        tracer.add("serve.worker", done - elapsed, done, parent=daemon,
                   request=i)
        solve_ms.append(elapsed * 1e3)
        queue_ms.append((latency - elapsed) * 1e3)
        socket_ms.append(((done - sent) - latency) * 1e3)
        (hit_ms if index in first_seen else miss_ms).append(elapsed * 1e3)
        first_seen.add(index)
    before = rung.stats_before["store"]
    after = rung.stats_after["store"]
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.miss_solve_ms": median(miss_ms) or 0.0,
        "store.hit_solve_ms": median(hit_ms) or 0.0,
        "serve.solve_ms": median(solve_ms) or 0.0,
        "serve.queue_ms": median(queue_ms) or 0.0,
        "serve.socket_ms": median(socket_ms) or 0.0,
        "serve.rejected": rung.rejected,
        "serve.backlog_max": max(rung.depths or [0]),
        "serve.gen_late_ms": quantile(late_ms, 0.95) or 0.0,
    }


def _replay(pool, stream, tracer=None):
    """The stream solved in process on one worker-shaped stack (the
    code a daemon worker runs), so the in-process layers can be traced
    on the serving mix.  Returns the stack and, per request, the
    elapsed seconds, the answer and the request span's duration."""
    from repro.serve.worker import WorkerState, execute_task

    state = WorkerState({"fuel": FUEL, "seconds": WALL_CAP_S,
                         "store_capture": True})
    out = []
    for i, index in enumerate(stream):
        query = pool[index]
        task = {"index": i, "name": query.name, "kind": query.kind,
                "payload": query.text, "expected": None, "attempts": 0}
        span = None
        if tracer is not None:
            tracer.request = "replay-%d" % i
            span = tracer.span("request").__enter__()
        started = time.perf_counter()
        reply = execute_task(state, task)
        elapsed = time.perf_counter() - started
        if span is not None:
            span.__exit__(None, None, None)
        out.append((elapsed, (reply["status"], reply.get("witness"),
                              json.dumps(reply.get("model"), sort_keys=True)),
                    span.duration if span is not None else elapsed))
    return state, out


def _run_traced(report, pool, stream, labels):
    rung = drive(pool, FIXED_RATE, stream, "traced")
    report.errors += rung.errors + rung.rejected
    _grade(report, rung, pool, labels, {})
    tracer = Tracer()
    serve = _serve_spans(tracer, rung)
    _state, reference = _replay(pool, stream)
    counters = Counters()
    with tracer:
        instrument(tracer, counters)
        state, traced = _replay(pool, stream, tracer)
    counters.add("interned", state.builder.interned_count)
    for i, index in enumerate(stream):
        if traced[i][1] != reference[i][1]:
            report.flag("%s: traced replay answer differs"
                        % pool[index].name)
    report.attempted = len(stream)
    report.metrics.update(per_layer_metrics(
        tracer, counters, len(stream),
        request_s=sum(item[2] for item in traced),
        untraced_s=sum(item[0] for item in reference),
        traced_s=sum(item[0] for item in traced), serve=serve))
    return tracer
