"""The event-driven serving core: the pool thread sleeps only while
there is nothing to do, and wakes on exactly the events that matter —
a worker's exit, a task deadline, a message of any size."""

import json
import os
import pickle
import signal
import threading
import time

from repro.serve import Job, solve_batch
from repro.serve.client import DaemonClient
from repro.serve.daemon import SolverDaemon

BUDGET = {"fuel": 100000, "seconds": 5.0}


def start_daemon(path, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("fuel", BUDGET["fuel"])
    kwargs.setdefault("seconds", BUDGET["seconds"])
    daemon = SolverDaemon(path=path, **kwargs)
    daemon.start()
    return daemon


def count_sweeps(pool):
    """Wrap ``pool.pump`` with a call counter; returns the counter."""
    calls = []
    lock = threading.Lock()
    pump = pool.pump

    def counting_pump():
        with lock:
            calls.append(time.monotonic())
        return pump()

    pool.pump = counting_pump
    return calls


class TestIdleDaemon:
    def test_idle_daemon_makes_no_sweeps(self, tmp_path):
        path = str(tmp_path / "d.sock")
        daemon = start_daemon(path)
        try:
            # one job through, so the fleet is up and the loop settled
            with DaemonClient(path) as client:
                outcomes = client.solve([Job("warm", "pattern", "a*b")],
                                        timeout=30.0)
            assert outcomes["warm"]["status"] == "sat"
            calls = count_sweeps(daemon.pool)
            time.sleep(1.0)
            # a 20 ms poll would sweep about 50 times in this window
            assert len(calls) <= 2, "idle daemon swept %d times" % len(calls)
            # and a wake still gets through at once
            with DaemonClient(path) as client:
                outcomes = client.solve([Job("after", "pattern", "a|b")],
                                        timeout=30.0)
            assert outcomes["after"]["status"] == "sat"
        finally:
            daemon.stop()

    def test_killed_idle_worker_is_replaced_without_traffic(self, tmp_path):
        path = str(tmp_path / "d.sock")
        daemon = start_daemon(path, workers=2)
        try:
            with DaemonClient(path) as client:
                assert client.ping()
            victim = daemon.pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # the exit (end of stream on its result pipe, and its
            # process sentinel) wakes the pool thread, whose health
            # check respawns the worker — no client traffic needed
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                pids = daemon.pool.worker_pids()
                if victim not in pids and len(pids) == 2:
                    break
                time.sleep(0.01)
            pids = daemon.pool.worker_pids()
            assert victim not in pids and len(pids) == 2, pids
            with DaemonClient(path) as client:
                outcomes = client.solve(
                    [Job("x", "pattern", "a*b"), Job("y", "pattern", "a&b")],
                    timeout=30.0,
                )
            assert outcomes["x"]["status"] == "sat"
            assert outcomes["y"]["status"] == "unsat"
        finally:
            daemon.stop()


class TestDeadlineWake:
    def test_hung_job_is_reaped_on_its_deadline(self, tmp_path):
        path = str(tmp_path / "d.sock")
        daemon = start_daemon(path, allow_crash=True, seconds=0.3,
                              reap_grace=0.3, retries=0)
        try:
            with DaemonClient(path) as client:
                started = time.monotonic()
                outcomes = client.solve([Job("stuck", "crash", "hang")],
                                        timeout=30.0)
                waited = time.monotonic() - started
            stuck = outcomes["stuck"]
            assert stuck["status"] == "unknown"
            assert stuck["reason"] == "worker reaped"
            assert stuck["error"]["type"] == "WorkerTimeout"
            # reaped at the 0.6 s deadline, not at some later wake
            assert waited < 5.0
            # the replacement worker serves the next job
            with DaemonClient(path) as client:
                outcomes = client.solve([Job("next", "pattern", "a*b")],
                                        timeout=30.0)
            assert outcomes["next"]["status"] == "sat"
        finally:
            daemon.stop()


#: Distinct patterns whose captured fragments together pickle to far
#: more than a 64 KiB pipe buffer.
BIG_PATTERNS = (
    ["(.*a.{%d})&(.*b.{%d})" % (k, k) for k in range(2, 8)]
    + ["[a-f]{%d,%d}&~(.*cc.*)" % (i, i + 3) for i in range(1, 30)]
)


class TestLargeMessages:
    def test_final_stats_larger_than_pipe_buffer_arrive_whole(
            self, tmp_path):
        store = str(tmp_path / "store.json")
        jobs = [Job("p%d" % i, "pattern", pattern)
                for i, pattern in enumerate(BIG_PATTERNS)]
        report = solve_batch(jobs, workers=1, store_save=store, **BUDGET)
        assert report.counts["error"] == 0
        (worker,) = report.worker_reports
        assert worker["store"]["fragments"] == len(BIG_PATTERNS)
        with open(store, "r", encoding="utf-8") as handle:
            fragments = json.load(handle)["fragments"]
        assert len(fragments) == len(BIG_PATTERNS)
        # the worker's final stats message carried all of them at once
        assert len(pickle.dumps(fragments)) > 1 << 16
        # and they arrived intact: a warm rerun replays every one
        warm = solve_batch(jobs, workers=1, store_path=store, **BUDGET)
        assert [r.status for r in warm.results] == [
            r.status for r in report.results
        ]
        (worker,) = warm.worker_reports
        assert worker["store"]["hits"] == len(BIG_PATTERNS)
        assert worker["store"]["misses"] == 0
