"""The worker pool: sharded dispatch, crash isolation, aggregation.

Design notes
------------

* **Depth-one dispatch.**  Each worker holds at most one in-flight
  task, so the pool always knows exactly which task a dead or wedged
  worker was running — crash attribution needs no guesswork.
* **Per-worker channels.**  Every worker gets its own task queue and
  its own one-way result pipe, whose only write end lives in the
  worker.  A SIGKILLed worker can die mid-send, leaving a partial
  pickle in its pipe; with per-worker pipes that corruption is
  confined to the dead worker's (discarded) pipe — it reads as
  ``EOFError`` or an unpickling error, which ends the drain — instead
  of breaking the whole pool, which is how ``ProcessPoolExecutor`` ends
  up in ``BrokenProcessPool``.
* **Deterministic budgets.**  Tasks carry fuel budgets through the
  pool untouched, so a batch run returns the same verdicts as a serial
  run regardless of worker count; only wall time changes.
* **Reaping.**  A worker past its deadline (task wall budget plus
  ``reap_grace``) is killed and its task recorded as a structured
  ``unknown``; a worker that died on its own is recorded as ``error``
  and the task retried on a fresh worker up to ``retries`` times.
* **Two lifetimes.**  :meth:`WorkerPool.run` is the one-shot batch
  driver; underneath it sits a streaming core — :meth:`start`,
  :meth:`submit`, :meth:`pump`, :meth:`take_completed`, :meth:`stop` —
  that the solver daemon (:mod:`repro.serve.daemon`) drives directly,
  feeding an ongoing job stream into a pool whose workers keep their
  warm store and caches across submissions.
* **Event-driven sweeps.**  Nothing polls on a timer.  A driver calls
  :meth:`pump` until it reports no progress, then blocks in
  :meth:`wait`, which wakes on any worker's result pipe, any worker's
  process sentinel (so a dead worker is replaced the moment it dies),
  the caller's own handles (the daemon's wake pipe) and the earliest
  in-flight task deadline (so a wedged worker is reaped on time with no
  other traffic).
* **Signal safety.**  ``run`` installs a SIGTERM handler for its
  duration and converts the signal (or a ``KeyboardInterrupt``) into an
  emergency :meth:`kill`: workers get SIGTERM, stragglers SIGKILL after
  a short grace, and the partial store snapshot is *not* saved — a
  half-run batch must never leak orphan processes or clobber the store
  with a partial capture.
"""

import itertools
import signal
import threading
import time
from collections import deque
from multiprocessing import get_context
from multiprocessing.connection import wait as wait_ready

from repro.serve.report import BatchReport, TaskResult
from repro.serve.worker import worker_main

#: Extra wall seconds past a task's own budget before its worker is
#: declared wedged and reaped.
DEFAULT_REAP_GRACE = 10.0

#: Abort threshold for workers that die before taking any task (e.g.
#: an import failure on spawn) — prevents an infinite respawn loop.
_MAX_IDLE_DEATHS = 8

#: How many queued tasks the affinity router inspects when a worker
#: frees up.  A bounded scan keeps dispatch O(1)-ish; a repeat pattern
#: deeper in the queue simply dispatches in arrival order.
_AFFINITY_SCAN = 32

#: The affinity map is keyed by payload text; a long-lived daemon sees
#: an unbounded key stream, so the map is cleared when it reaches this
#: size (routing is a latency hint only — clearing never changes
#: verdicts).
_AFFINITY_CAP = 4096

#: Streaming mode keeps at most this many per-worker retirement
#: reports / heartbeats; a daemon recycling workers for days must not
#: grow its report history without bound.
_HISTORY_CAP = 1024

#: Seconds SIGTERM'd workers get to exit before the emergency shutdown
#: escalates to SIGKILL.
KILL_GRACE = 2.0


class PoolInterrupted(BaseException):
    """Raised by the pool's temporary SIGTERM handler.

    A ``BaseException`` on purpose: broad ``except Exception`` handlers
    between the signal and the pool's cleanup must not swallow it —
    the whole point is reaching the worker-killing ``finally``.
    """


def _affinity_key(task):
    """The routing key for warm-store affinity: the raw payload text of
    pattern/smt2 tasks (what the store keys on, pre-canonicalization).
    Bench and crash tasks have no reusable fragments — no key."""
    if task.get("kind") in ("pattern", "smt2"):
        payload = task.get("payload")
        if isinstance(payload, str):
            return (task["kind"], payload)
    return None


class _Worker:
    __slots__ = (
        "id", "proc", "task_q", "results", "task", "deadline", "retiring",
        "ended",
    )

    def __init__(self, id, proc, task_q, results):
        self.id = id
        self.proc = proc
        self.task_q = task_q
        self.results = results  # read end of the worker's result pipe
        self.task = None        # the in-flight task dict, if any
        self.deadline = None
        self.retiring = False   # announced planned retirement (recycling)
        self.ended = False      # result pipe hit end of stream


class WorkerPool:
    """Fans :class:`~repro.serve.jobs.Job` streams across worker
    processes.

    :meth:`run` is the batch entry point (returns a
    :class:`BatchReport`); the daemon instead calls :meth:`start` once
    and then interleaves :meth:`submit` / :meth:`pump` /
    :meth:`take_completed` forever, so workers — and their warm stores,
    derivative memos and lazy-DFA rows — persist across submissions
    from many clients."""

    def __init__(self, workers=2, fuel=None, seconds=None, max_char=None,
                 retries=1, reap_grace=DEFAULT_REAP_GRACE,
                 start_method=None, progress=None, max_tasks=None,
                 max_rss_mb=None, max_cache_entries=None,
                 compact_entries=None, flight_dir=None, slow_s=None,
                 slow_explored=None, heartbeat_s=None, trace_solver=False,
                 explain=False, store_path=None, store_save=None):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.retries = retries
        self.reap_grace = reap_grace
        self.progress = progress
        self.store_path = store_path
        self.store_save = store_save
        #: affinity map for the warm store: task routing key -> id of
        #: the worker that last solved that payload (and so holds its
        #: fragments hot in-process, beyond what the shared snapshot
        #: provides)
        self._affinity = {}
        if flight_dir is not None and slow_s is None and slow_explored is None:
            # flight recording without an explicit threshold still
            # captures: default to the latency trigger
            from repro.obs.flight import DEFAULT_SLOW_S

            slow_s = DEFAULT_SLOW_S
        self.flight_dir = flight_dir
        #: the pool-side flight recorder, live only while the pool flies
        self._flight = None
        # recycling watermarks (max_tasks / max_rss_mb / max_cache_
        # entries), the in-worker compaction policy and the flight-
        # recorder configuration travel to the workers through the
        # shared config dict
        self._config = {
            "fuel": fuel, "seconds": seconds, "max_char": max_char,
            "max_tasks": max_tasks, "max_rss_mb": max_rss_mb,
            "max_cache_entries": max_cache_entries,
            "compact_entries": compact_entries,
            "flight_dir": str(flight_dir) if flight_dir else None,
            "slow_s": slow_s, "slow_explored": slow_explored,
            "heartbeat_s": heartbeat_s, "trace_solver": bool(trace_solver),
            "explain": bool(explain),
            "store_path": str(store_path) if store_path else None,
            "store_capture": bool(store_save),
        }
        if start_method is None:
            import multiprocessing

            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else None
        self._ctx = get_context(start_method)
        self._ids = itertools.count()
        # streaming-core state: live between start() and stop()/kill()
        self._fleet = []
        self._pending = deque()     # normal-priority task dicts
        self._degraded = deque()    # degraded-priority (over-budget clients)
        self._state = None
        self._started = False
        self._idle_deaths = 0
        self.broken = False

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self):
        task_q = self._ctx.SimpleQueue()
        results, sender = self._ctx.Pipe(duplex=False)
        worker_id = "w%d" % next(self._ids)
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker_id, task_q, sender, self._config),
            name="repro-serve-%s" % worker_id,
            daemon=True,
        )
        proc.start()
        # the worker now holds the only write end, so its exit — clean
        # or a SIGKILL mid-send — reads as end of stream here
        sender.close()
        if self._flight is not None:
            self._flight.events.emit(
                "worker.spawn", spawned=worker_id, spawned_pid=proc.pid,
            )
        return _Worker(worker_id, proc, task_q, results)

    def _discard(self, worker):
        """Reap a dead/killed worker's process and result pipe."""
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=5.0)
        worker.results.close()

    def _task_deadline(self):
        seconds = self._config.get("seconds")
        if seconds is None:
            return None
        return time.monotonic() + seconds + self.reap_grace

    # -- the streaming core --------------------------------------------------

    def start(self, fleet_size=None, jobs=None):
        """Spawn the fleet and arm the pool for :meth:`submit` /
        :meth:`pump`.  ``fleet_size`` caps the initial spawn below
        ``self.workers`` (the batch path never spawns more workers than
        it has jobs); ``jobs`` is the expected batch size for the
        flight recorder (None for an open-ended stream)."""
        if self._started:
            raise RuntimeError("pool already started")
        self._state = {
            "results": {}, "retries": 0, "worker_metrics": [],
            "stats_seen": 0, "recycled": 0,
            "worker_reports": deque(maxlen=_HISTORY_CAP),
            "heartbeats": deque(maxlen=_HISTORY_CAP), "store_new": [],
        }
        self._pending.clear()
        self._degraded.clear()
        self._idle_deaths = 0
        self.broken = False
        if self.flight_dir is not None:
            from repro.obs.flight import PoolFlight

            self._flight = PoolFlight(self.flight_dir)
            self._flight.events.emit(
                "pool.start", jobs=jobs, workers=self.workers,
            )
        size = self.workers
        if fleet_size is not None:
            size = max(1, min(self.workers, fleet_size))
        self._fleet = [self._spawn() for _ in range(size)]
        self._started = True

    def submit(self, task, degraded=False):
        """Queue one task dict (see :meth:`repro.serve.jobs.Job.to_task`
        for the shape).  ``degraded`` tasks only dispatch when no
        normal-priority task is waiting — the admission controller's
        lever for serving compliant clients first."""
        if not self._started:
            raise RuntimeError("pool is not started")
        (self._degraded if degraded else self._pending).append(task)

    @property
    def queued(self):
        """Tasks accepted but not yet dispatched to a worker."""
        return len(self._pending) + len(self._degraded)

    @property
    def inflight(self):
        """Tasks currently being solved by a worker."""
        return sum(1 for w in self._fleet if w.task is not None)

    @property
    def backlog(self):
        """Queued plus in-flight: everything accepted but unfinished."""
        return self.queued + self.inflight

    def worker_pids(self):
        """PIDs of the current fleet (diagnostics and the shutdown
        regression test)."""
        return [w.proc.pid for w in self._fleet]

    def pump(self):
        """One scheduling sweep; never blocks.  Dispatches idle
        workers, drains result pipes, and — only on an otherwise idle
        sweep — runs the health check (crash/reap detection, respawn).

        Returns True when a message arrived or the health check
        replaced a worker; the caller then sweeps again at once.  On
        False the caller blocks in :meth:`wait`, which wakes on the
        next message, worker exit, task deadline or caller handle."""
        state = self._state
        progressed = False
        for worker in self._fleet:
            # drain first: a worker that just answered gets its next
            # task in this same sweep, and one that just announced its
            # retirement or exit is never handed a task it cannot run
            progressed |= self._pump(worker, state)
            if worker.task is None and not worker.retiring \
                    and not worker.ended and self.queued:
                task = self._next_task(worker)
                worker.task = task
                worker.deadline = self._task_deadline()
                worker.task_q.put(task)
        if progressed:
            return True
        new_fleet = []
        broken = False
        for worker in self._fleet:
            outcome = self._check_health(worker, state)
            if outcome is None:
                new_fleet.append(worker)
                continue
            # a replacement may take a requeued task, and a reaped or
            # crashed task may have a synthesized result to hand out
            progressed = True
            if outcome is worker:
                # idle death (already discarded): respawn unless
                # workers keep dying before taking any task
                self._idle_deaths += 1
                if self._idle_deaths > _MAX_IDLE_DEATHS:
                    broken = True
                else:
                    new_fleet.append(self._spawn())
            else:
                new_fleet.append(outcome)
        self._fleet = new_fleet
        if broken or not self._fleet:
            self.broken = True
        if self.broken:
            # workers keep dying before accepting work: fail what is
            # queued with structured errors instead of looping forever
            self._fail_pending()
        return progressed

    def wait(self, extra=(), timeout=None):
        """Block until there is something for :meth:`pump` to do.

        Wakes on a message on any live worker's result pipe, any
        worker's exit (its process sentinel), any of the caller's
        ``extra`` handles (anything :func:`multiprocessing.connection.
        wait` accepts), or after ``timeout`` seconds.  The timeout is
        capped at the earliest in-flight task deadline, so a wedged
        worker is reaped on time even with no other traffic.  Returns
        the ready handles; returns at once when nothing could wake it.
        """
        handles = list(extra)
        for worker in self._fleet:
            if not worker.ended:
                handles.append(worker.results)
            handles.append(worker.proc.sentinel)
            if worker.deadline is not None:
                until = max(0.0, worker.deadline - time.monotonic())
                timeout = until if timeout is None else min(timeout, until)
        if not handles:
            return []
        return wait_ready(handles, timeout)

    def take_completed(self):
        """Pop every finished :class:`TaskResult`, ascending by index.
        The streaming consumer's half of the contract — the batch
        driver instead leaves results in place until the batch ends."""
        results = self._state["results"]
        if not results:
            return []
        out = [results[i] for i in sorted(results)]
        results.clear()
        return out

    def stop(self):
        """Graceful shutdown: sentinel every live worker, collect their
        final stats/metrics snapshots (bounded wait), reap the fleet.
        Returns the merged worker metrics list."""
        worker_metrics = self._collect_final_stats(self._fleet, self._state)
        self._fleet = []
        if self._flight is not None:
            self._flight.finish(results=len(self._state["results"]))
            self._flight = None
        self._started = False
        return worker_metrics

    def kill(self, grace=KILL_GRACE):
        """Emergency shutdown for the signal path: SIGTERM the fleet,
        SIGKILL stragglers after ``grace`` seconds, skip the stats
        barrier entirely.  Never raises."""
        fleet, self._fleet = self._fleet, []
        for worker in fleet:
            try:
                worker.proc.terminate()
            except (OSError, ValueError):  # pragma: no cover
                pass
        deadline = time.monotonic() + grace
        for worker in fleet:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in fleet:
            try:
                self._discard(worker)
            except (OSError, ValueError):  # pragma: no cover
                pass
        if self._flight is not None:
            try:
                self._flight.finish(
                    results=len(self._state["results"]) if self._state else 0,
                )
            except Exception:  # pragma: no cover - flight dir gone
                pass
            self._flight = None
        self._started = False

    # -- the batch driver ----------------------------------------------------

    def run(self, jobs):
        """Solve a finite job list; returns an order-stable
        :class:`BatchReport`.

        An empty list returns an empty report without spawning workers;
        duplicate job names raise ``ValueError`` up front (report rows,
        JSONL output and result routing are keyed by name — silently
        clobbering one of the duplicates helps nobody).  SIGTERM or
        ``KeyboardInterrupt`` mid-batch triggers :meth:`kill` — no
        orphan workers, no partial store save — and re-raises.
        """
        jobs = list(jobs)
        seen, duplicates = set(), set()
        for job in jobs:
            if job.name in seen:
                duplicates.add(job.name)
            seen.add(job.name)
        if duplicates:
            raise ValueError(
                "duplicate job name%s in batch: %s"
                % ("s" if len(duplicates) > 1 else "",
                   ", ".join(repr(n) for n in sorted(duplicates)))
            )
        if not jobs:
            return BatchReport([], 0.0, self.workers)
        started = time.perf_counter()
        total = len(jobs)
        previous_term = None
        def _on_term(signum, frame):
            raise PoolInterrupted("SIGTERM during batch")
        if threading.current_thread() is threading.main_thread():
            try:
                previous_term = signal.signal(signal.SIGTERM, _on_term)
            except (ValueError, OSError):  # pragma: no cover - exotic host
                previous_term = None
        interrupted = False
        try:
            self.start(fleet_size=total, jobs=total)
            state = self._state
            for i, job in enumerate(jobs):
                self.submit(job.to_task(i))
            while len(state["results"]) < total:
                if not self.pump() and len(state["results"]) < total:
                    self.wait()
            worker_metrics = self.stop()
        except BaseException as exc:
            interrupted = isinstance(
                exc, (KeyboardInterrupt, SystemExit, PoolInterrupted)
            )
            raise
        finally:
            if previous_term is not None:
                # a second SIGTERM racing the cleanup must not abort
                # the worker kill and re-orphan the fleet: ignore the
                # signal until the fleet is dead, then restore
                try:
                    signal.signal(signal.SIGTERM, signal.SIG_IGN)
                except (ValueError, OSError):  # pragma: no cover
                    pass
            if self._started:
                # the normal path already ran stop(); reaching here
                # still started means an exception (or a signal) broke
                # the loop — take the emergency exit so no worker
                # outlives the batch, and never attempt the partial
                # _save_store below (the raise skips it)
                if interrupted:
                    self.kill()
                else:
                    try:
                        self.stop()
                    except Exception:
                        self.kill()
            if previous_term is not None:
                signal.signal(signal.SIGTERM, previous_term)
        wall = time.perf_counter() - started
        self._save_store(state)
        results = [state["results"][i] for i in sorted(state["results"])]
        return BatchReport(
            results, wall, self.workers, retries=state["retries"],
            worker_metrics=worker_metrics, recycled=state["recycled"],
            worker_reports=list(state["worker_reports"]),
            heartbeats=list(state["heartbeats"]), flight_dir=self.flight_dir,
        )

    def _next_task(self, worker):
        """Pick this worker's next task, preferring payloads it has
        solved before (warm-store affinity), and normal-priority tasks
        over degraded ones.

        Without a store every dispatch is ``popleft`` — arrival order
        within each priority band.  With one, a bounded scan of the
        queue head looks for a task whose payload this worker already
        compiled: its in-process rows make the repeat essentially free,
        where another worker would at best replay the shared snapshot.
        Verdicts never depend on the routing — only latency does."""
        for pending in (self._pending, self._degraded):
            if not pending:
                continue
            if self.store_path or self.store_save:
                for i in range(min(len(pending), _AFFINITY_SCAN)):
                    key = _affinity_key(pending[i])
                    if key is not None and self._affinity.get(key) == worker.id:
                        task = pending[i]
                        del pending[i]
                        return task
            task = pending.popleft()
            key = _affinity_key(task)
            if key is not None:
                if len(self._affinity) >= _AFFINITY_CAP:
                    self._affinity.clear()
                self._affinity[key] = worker.id
            return task
        return None

    def _pump(self, worker, state):
        """Drain one worker's result pipe; True if anything arrived."""
        progressed = False
        while not worker.ended:
            try:
                if not worker.results.poll():
                    break
                msg = worker.results.recv()
            except Exception:
                # end of stream: the worker exited, or died mid-send
                # and left a partial pickle.  Nothing more can arrive;
                # the health check (woken by the process sentinel)
                # picks the body up
                worker.ended = True
                break
            progressed = True
            self._handle(worker, msg, state)
        return progressed

    def _handle(self, worker, msg, state):
        kind = msg.get("type")
        if kind == "result":
            index = msg["index"]
            if index in state["results"]:
                return  # late duplicate after a pool-synthesized verdict
            state["results"][index] = TaskResult(
                index, msg.get("name"), msg.get("status", "error"),
                witness=msg.get("witness"), model=msg.get("model"),
                reason=msg.get("reason"), error=msg.get("error"),
                elapsed=msg.get("elapsed", 0.0), worker=msg.get("worker"),
                attempts=msg.get("attempts", 1), stats=msg.get("stats"),
                outcome=msg.get("outcome"),
                explanation=msg.get("explanation"),
            )
            # a real result proves workers can run tasks: reset the
            # spawn-failure abort counter so a long-lived pool is not
            # broken by deaths spread over days
            self._idle_deaths = 0
            if worker.task is not None and worker.task["index"] == index:
                worker.task = None
                worker.deadline = None
            if self.progress is not None:
                self.progress(len(state["results"]), None)
        elif kind == "heartbeat":
            state["heartbeats"].append(msg)
            if self._flight is not None:
                self._flight.record_heartbeat(msg)
        elif kind == "stats":
            state["worker_metrics"].append(msg.get("metrics") or {})
            report = {
                "worker": msg.get("worker"),
                "tasks": msg.get("tasks", 0),
                "retiring": bool(msg.get("retiring")),
                "reason": msg.get("reason"),
                "rss_bytes": msg.get("rss_bytes", 0),
            }
            store = msg.get("store")
            if store is not None:
                report["store"] = {
                    "hits": store.get("hits", 0),
                    "misses": store.get("misses", 0),
                    "fragments": store.get("fragments", 0),
                }
                state["store_new"].extend(store.get("new") or ())
            state["worker_reports"].append(report)
            if msg.get("retiring"):
                # planned retirement mid-batch: the health check will
                # replace this worker without charging a crash, and the
                # shutdown barrier must not count this snapshot
                worker.retiring = True
                state["recycled"] += 1
                if self._flight is not None:
                    self._flight.events.emit(
                        "worker.recycle", recycled=worker.id,
                        reason=msg.get("reason"),
                    )
            else:
                state["stats_seen"] += 1

    def _check_health(self, worker, state):
        """Detect crashed or wedged workers.

        Returns None when the worker is healthy, a fresh replacement
        worker after a crash/reap, or ``worker`` itself to signal an
        idle death (counted toward the respawn abort threshold).
        """
        alive = worker.proc.is_alive()
        if worker.task is None:
            if alive:
                return None
            self._discard(worker)
            if self._flight is not None and not worker.retiring:
                self._flight.events.emit(
                    "worker.crash", crashed=worker.id, name=None,
                    exitcode=worker.proc.exitcode, idle=True,
                )
            if worker.retiring:
                # planned retirement, stats already merged: replace it
                # directly instead of counting an idle death
                return self._spawn()
            return worker  # idle death: caller counts and respawns
        now = time.monotonic()
        if alive and (worker.deadline is None or now < worker.deadline):
            return None
        if alive:
            # wedged: kill it, then drain any result that raced the kill
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
            self._pump(worker, state)
            task = worker.task
            if self._flight is not None:
                self._flight.events.emit(
                    "worker.reap", reaped=worker.id,
                    name=task["name"] if task else None,
                )
            if task is not None and task["index"] not in state["results"]:
                budget = self._config.get("seconds")
                state["results"][task["index"]] = TaskResult(
                    task["index"], task["name"], "unknown",
                    reason="worker reaped",
                    error={
                        "type": "WorkerTimeout",
                        "message": "worker %s reaped after exceeding the "
                                   "%.1fs task budget by %.1fs grace"
                                   % (worker.id, budget or 0.0,
                                      self.reap_grace),
                    },
                    elapsed=budget or 0.0, worker=worker.id,
                    attempts=task["attempts"] + 1,
                )
                if self.progress is not None:
                    self.progress(len(state["results"]), None)
        else:
            # crashed mid-task: maybe its result is already in the pipe
            self._pump(worker, state)
            task = worker.task
            if self._flight is not None:
                self._flight.events.emit(
                    "worker.crash", crashed=worker.id,
                    name=task["name"] if task else None,
                    exitcode=worker.proc.exitcode,
                )
            if task is not None and task["index"] not in state["results"]:
                if worker.retiring:
                    # the dispatch raced a planned retirement: the task
                    # was queued to a worker that had already decided to
                    # exit; requeue it with no attempt penalty
                    self._pending.appendleft(task)
                elif task["attempts"] < self.retries:
                    task["attempts"] += 1
                    state["retries"] += 1
                    self._pending.appendleft(task)
                    if self._flight is not None:
                        self._flight.events.emit(
                            "task.retry", name=task["name"],
                            index=task["index"],
                        )
                else:
                    state["results"][task["index"]] = TaskResult(
                        task["index"], task["name"], "error",
                        reason="worker crashed",
                        error={
                            "type": "WorkerCrashed",
                            "message": "worker %s exited with code %s while "
                                       "running this task (attempt %d)"
                                       % (worker.id, worker.proc.exitcode,
                                          task["attempts"] + 1),
                        },
                        worker=worker.id, attempts=task["attempts"] + 1,
                    )
                    if self.progress is not None:
                        self.progress(len(state["results"]), None)
        self._discard(worker)
        return self._spawn()

    def _save_store(self, state=None):
        """Fold the fragments the workers learned into the snapshot at
        ``store_save`` (merging whatever is already there, plus the
        read snapshot when it is a different file).  Insert-only merge
        over an atomic replace: a concurrent batch's or daemon's
        fragments are never clobbered and a reader never sees a torn
        file."""
        if not self.store_save:
            return None
        state = state if state is not None else self._state
        if state is None or not state["store_new"]:
            return None
        from repro.solver.store import SolverStore

        store = SolverStore()
        if self.store_path and str(self.store_path) != str(self.store_save):
            try:
                store.load(self.store_path)
            except (OSError, ValueError):
                pass
        store.merge(state["store_new"])
        try:
            store.save_merged(self.store_save)
        except OSError:
            return None
        state["store_new"] = []
        return store

    def _fail_pending(self):
        """Workers keep dying before taking any task — fail what's left
        with structured errors rather than looping forever."""
        state = self._state
        leftovers = list(self._pending) + list(self._degraded)
        self._pending.clear()
        self._degraded.clear()
        for worker in self._fleet:
            if worker.task is not None:
                leftovers.append(worker.task)
                worker.task = None
        for task in leftovers:
            if task["index"] not in state["results"]:
                state["results"][task["index"]] = TaskResult(
                    task["index"], task["name"], "error",
                    reason="worker pool broken",
                    error={
                        "type": "WorkerPoolBroken",
                        "message": "workers kept dying before accepting "
                                   "tasks; batch aborted",
                    },
                    attempts=task["attempts"],
                )

    def _collect_final_stats(self, fleet, state):
        """Stop the fleet and collect the final metric snapshots of
        every worker that can still produce one."""
        expected = 0
        for worker in fleet:
            if worker.proc.is_alive():
                try:
                    worker.task_q.put(None)
                    expected += 1
                except (OSError, ValueError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + 5.0
        while state["stats_seen"] < expected:
            # a worker's final message precedes its end of stream, so
            # the barrier is done once every pipe has ended
            open_pipes = [w.results for w in fleet if not w.ended]
            remaining = deadline - time.monotonic()
            if not open_pipes or remaining <= 0:
                break
            wait_ready(open_pipes, remaining)
            for worker in fleet:
                self._pump(worker, state)
        for worker in fleet:
            self._discard(worker)
        return state["worker_metrics"]


def solve_batch(jobs, workers=2, fuel=None, seconds=None, max_char=None,
                retries=1, reap_grace=DEFAULT_REAP_GRACE, start_method=None,
                progress=None, max_tasks=None, max_rss_mb=None,
                max_cache_entries=None, compact_entries=None,
                flight_dir=None, slow_s=None, slow_explored=None,
                heartbeat_s=None, trace_solver=False, explain=False,
                store_path=None, store_save=None):
    """Solve ``jobs`` on a pool of ``workers`` processes.

    Returns a :class:`~repro.serve.report.BatchReport` with one
    order-stable result per job; no input — however pathological — can
    abort the batch (crashes and hangs become structured ``error`` /
    ``unknown`` records).  An empty job list returns an empty report
    without spawning anything; duplicate job names raise ``ValueError``
    before any work starts.

    ``max_tasks`` / ``max_rss_mb`` / ``max_cache_entries`` recycle
    workers at the corresponding watermark (counted in ``report.
    recycled``); ``compact_entries`` arms in-worker cache compaction.
    Verdicts are unaffected by any of them — a recycled worker merely
    restarts with cold caches.

    ``flight_dir`` arms the flight recorder: per-process event/span
    streams, worker heartbeats (``heartbeat_s`` between beats) and
    slow-query artifacts for tasks past ``slow_s`` seconds or
    ``slow_explored`` explored states land under that directory, plus
    a merged ``timeline.json`` at batch end (see
    :mod:`repro.obs.flight`).  The recorder keeps one task-level span
    per job; ``trace_solver`` additionally streams the solver's
    internal spans into the flight (markedly slower on derivative-heavy
    queries — a debugging mode, not a default).  Verdicts are
    unaffected by any of it.

    ``explain`` turns on verdict provenance in every worker: each
    concrete pattern/smt2 verdict carries a certificate that the
    worker re-checks with the independent checker before reporting,
    and each task result gains an ``explanation`` summary (``report.
    certified`` counts the checked ones).  Verdicts are unaffected.

    ``store_path`` gives every worker (including replacements spawned
    after recycling — a warm restart) a shared read-only warm-store
    snapshot to load on spawn; ``store_save`` additionally captures the
    fragments workers learn and merges them into that file at batch
    end.  Either one also arms affinity routing: repeat payloads
    prefer the worker that already compiled them.  Verdicts are
    unaffected — a warm hit replays the exact rows a cold solve would
    rebuild (see :mod:`repro.solver.store`).
    """
    pool = WorkerPool(
        workers=workers, fuel=fuel, seconds=seconds, max_char=max_char,
        retries=retries, reap_grace=reap_grace, start_method=start_method,
        progress=progress, max_tasks=max_tasks, max_rss_mb=max_rss_mb,
        max_cache_entries=max_cache_entries, compact_entries=compact_entries,
        flight_dir=flight_dir, slow_s=slow_s, slow_explored=slow_explored,
        heartbeat_s=heartbeat_s, trace_solver=trace_solver, explain=explain,
        store_path=store_path, store_save=store_save,
    )
    return pool.run(jobs)
