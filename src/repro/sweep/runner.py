"""The sweep executor: specs across a process pool, results folded home.

:class:`SweepRunner` drives a list of :class:`~repro.sweep.plan.SweepTask`s
(or a whole :class:`~repro.sweep.plan.SweepSpec`) to completion through
one scheduling loop (submission window, retries, crash isolation, per-task
timeouts, settling).  The loop runs over an executor picked from
``workers`` and ``timeout_s``:

* **in-process** (``workers <= 1`` and no ``timeout_s``): each spec builds
  and runs in the calling process when it is submitted, in task order —
  the reference execution the differential tests compare the pool against.
  It shares the caller's process, so a hard crash there (a segfault, an
  ``os._exit``) still ends the caller;
* **process pool** (``workers >= 2``, or any ``timeout_s``): specs are
  pickled across a ``ProcessPoolExecutor``; only a worker process can be
  torn down when a task overruns its budget.

Retries, settle order, telemetry spans and manifest writes therefore come
from the same code at every worker count, and the optional ``on_outcome``
callback fires the moment each task settles, in completion order.

Because scenarios are deterministic and self-contained, and because
:class:`~repro.session.ResultSummary` values are commutative-monoid
bundles, the *merged* view of a sweep is invariant in worker count and
completion order: :meth:`SweepResult.canonical_artifact` renders
byte-identically whether the sweep ran in-process, on 2 workers, or on 8 —
the sweep-layer analogue of the collect plane's shard-count invariance.

Resumability: give the runner a ``manifest_dir`` and every completed spec
is recorded (by content fingerprint) in ``manifest.json`` as it finishes;
a rerun loads the manifest, skips completed fingerprints, and still folds
their stored summaries into the full merged artifact.  The canonical
artifact of a resumed sweep is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import base64
import json
import math
import os
import pickle
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Executor, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

import multiprocessing

from repro import check_count
from repro.collect import SummaryBundle, fold, summary_jsonable
from repro.obs import Telemetry
from repro.session import Experiment, ResultSummary, ScenarioSpec
from repro.session.experiment import check_duration

from .plan import SweepSpec, SweepTask

__all__ = ["SweepResult", "SweepRunner", "TaskOutcome"]

#: Terminal task states.
DONE, FAILED, TIMEOUT = "done", "failed", "timeout"

#: Seconds the loop waits for a pool task before it checks budgets again.
POLL_S = 0.02

#: The pool's start method: fork where available, so workers inherit
#: topologies and workloads registered at runtime (e.g. from a test module);
#: under spawn every registration must be importable from the spec's modules.
MP_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")


def _execute_task(spec: ScenarioSpec, duration_s: Optional[float],
                  run_until_idle: bool,
                  telemetry_slices: Optional[int] = None) -> ResultSummary:
    """Worker entry point: build the spec's experiment, run it, summarise.

    Module-level so the pool can import it; returns only the picklable
    :class:`ResultSummary` — live simulator state never crosses back.
    ``telemetry_slices`` (not ``None``) runs the experiment under a
    worker-local :class:`~repro.obs.Telemetry`, so the summary carries a
    telemetry snapshot home — observation only, never part of the
    canonical rendering.  The experiment builds from a copy, so an
    in-process run leaves the task's spec fresh for a retry or a second
    run.
    """
    telemetry = Telemetry(slices=telemetry_slices) \
        if telemetry_slices is not None else None
    experiment = Experiment(spec.copy(), duration_s, telemetry=telemetry)
    result = experiment.run(duration_s, run_until_idle=run_until_idle)
    return ResultSummary.from_result(result)


#: Exact types the renderer hands to the C encoder as one flat list or row.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_ROWS = frozenset((list, tuple))


def render_canonical(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, indent=2) + "\n"``, byte for byte.

    CPython's C encoder runs only when ``indent`` is ``None``, so this walks
    dicts and lists itself and hands every scalar, flat list and list of
    flat rows (a series' ``[time, key, value]`` samples) to a compact C
    ``json.dumps`` whose item separator carries the indent.  A list of rows
    renders with the row indent everywhere; one ``str.replace`` moves each
    ``],<newline>[`` row boundary out a level.  That is sound because json
    escapes newlines inside strings, and a scalar never ends in ``]``.
    """
    out: list[str] = []
    _render(value, "\n", out.append)
    out.append("\n")                   # not `+ "\n"`: that copies the text
    return "".join(out)


def _render(value: Any, newline: str, emit: Callable[[str], None]) -> None:
    """Emit ``value`` at the level whose line break is ``newline``."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        sep = "{" + inner
        for key, item in sorted(value.items()):
            # json's own key spelling (or TypeError): '{"key": null}'[1:-7].
            emit(sep + json.dumps({key: None})[1:-7] + ": ")
            _render(item, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif not isinstance(value, (list, tuple)) or not value:
        emit(json.dumps(value))         # a scalar, [] or {}, or json's TypeError
    elif _SCALARS.issuperset(map(type, value)):
        text = json.dumps(value, separators=("," + inner, ": "))
        emit("[" + inner + text[1:-1] + newline + "]")
    elif (_ROWS.issuperset(map(type, value)) and all(value)
            and _SCALARS.issuperset(map(type, chain.from_iterable(value)))):
        row = inner + "  "
        text = json.dumps(value, separators=("," + row, ": "))[2:-2]
        text = text.replace("]," + row + "[", inner + "]," + inner + "[" + row)
        emit("[" + inner + "[" + row + text + inner + "]" + newline + "]")
    else:
        sep = "[" + inner
        for item in value:
            emit(sep)
            _render(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")


class _InlineExecutor(Executor):
    """The in-process executor: a task runs when it is submitted, so the
    scheduling loop finds its future already resolved."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:                  # noqa: BLE001 - the loop settles it
            future.set_exception(exc)
        return future


@dataclass
class TaskOutcome:
    """How one sweep task ended."""

    index: int
    label: str
    fingerprint: str
    status: str                                   # done | failed | timeout
    summary: Optional[ResultSummary] = None
    error: Optional[str] = None
    attempts: int = 1
    wall_s: float = 0.0
    source: str = "run"                           # run | manifest


def _outcome(task: SweepTask, status: str, attempts: int, wall_s: float,
             **fields) -> TaskOutcome:
    """The :class:`TaskOutcome` of ``task`` (its index, label, fingerprint)."""
    return TaskOutcome(index=task.index, label=task.label,
                       fingerprint=task.fingerprint, status=status,
                       attempts=attempts, wall_s=wall_s, **fields)


class SweepManifest:
    """The on-disk resume ledger: fingerprint -> terminal outcome.

    ``manifest.json`` is rewritten atomically after every settled task, so
    an interrupted sweep loses at most the task in flight.  Completed
    summaries are stored twice: canonically rendered (human-inspectable)
    and pickled (base64) so a resumed sweep rehydrates real
    :class:`ResultSummary` objects and can still build the full merged
    artifact without re-running anything.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.path = self.directory / "manifest.json"
        self.tasks: dict[str, dict] = {}
        self.accounting: dict[str, int] = {}
        if self.path.exists():
            try:
                data = json.loads(self.path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                data = None                       # reported below, with the path
            if not (isinstance(data, dict) and data.get("version") == 1
                    and isinstance(data.get("tasks"), dict)
                    and isinstance(data.get("accounting"), dict)):
                raise ValueError(f"{self.path} is not a version-1 sweep manifest "
                                 f"(a JSON object with dict tasks and accounting)")
            self.tasks, self.accounting = data["tasks"], data["accounting"]

    def completed_summary(self, fingerprint: str) -> Optional[ResultSummary]:
        entry = self.tasks.get(fingerprint)
        if entry is None or entry.get("status") != DONE:
            return None
        return pickle.loads(base64.b64decode(entry["pickle"]))

    def record(self, outcome: TaskOutcome) -> None:
        entry = {"label": outcome.label, "status": outcome.status,
                 "attempts": outcome.attempts, "wall_s": outcome.wall_s}
        if outcome.error is not None:
            entry["error"] = outcome.error
        if outcome.summary is not None:
            entry["summary"] = outcome.summary.as_jsonable()
            if outcome.summary.telemetry is not None:
                # Side channel only: worker telemetry rides next to (never
                # inside) the canonical summary rendering.
                entry["telemetry"] = outcome.summary.telemetry
            entry["pickle"] = base64.b64encode(
                pickle.dumps(outcome.summary)).decode("ascii")
        self.tasks[outcome.fingerprint] = entry

    def write(self, accounting: dict) -> None:
        self.accounting = dict(accounting)
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = render_canonical({"version": 1, "accounting": self.accounting,
                                    "tasks": self.tasks})
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, self.path)


@dataclass
class SweepResult:
    """Everything a finished sweep produced, plus the invariant merged view."""

    outcomes: list[TaskOutcome]
    workers: int
    duration_s: Optional[float]
    wall_s: float = 0.0
    retries: int = 0
    worker_crashes: int = 0
    pool_restarts: int = 0
    skipped_from_manifest: int = 0

    # ------------------------------------------------------------- accessors
    @property
    def completed(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if o.status == DONE]

    @property
    def failed(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if o.status == FAILED]

    @property
    def timeouts(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if o.status == TIMEOUT]

    def summaries(self) -> dict[str, ResultSummary]:
        """label -> summary for every completed task."""
        return {o.label: o.summary for o in self.completed}

    def experiments_per_second(self) -> float:
        ran = [o for o in self.completed if o.source == "run"]
        return len(ran) / self.wall_s if self.wall_s > 0 and ran else 0.0

    # ----------------------------------------------------------- merged view
    def merged_bundle(self) -> Optional[SummaryBundle]:
        """The sweep-wide fold of every completed experiment's bundle.

        Folded in canonical (label, fingerprint) order — *not* completion
        order — over commutative-monoid bundles, so the result is invariant
        in worker count, scheduling, and completion order.
        """
        ordered = sorted(self.completed,
                         key=lambda o: (o.label, o.fingerprint))
        return fold(o.summary.bundle() for o in ordered) if ordered else None

    # ------------------------------------------------------------- artifacts
    def canonical_artifact(self) -> dict:
        """The deterministic sweep artifact (stable ordering throughout).

        Contains only run content — labels, fingerprints, statuses, result
        summaries, and the merged view.  Wall-clock, attempts, worker
        counts, and manifest provenance are deliberately excluded so the
        rendering is byte-identical across worker counts, completion
        orders, and resumed runs (see :meth:`accounting` for those).
        """
        rows = [{"label": o.label, "fingerprint": o.fingerprint,
                 "status": o.status,
                 "summary": o.summary.as_jsonable() if o.summary else None,
                 "error": o.error}
                for o in sorted(self.outcomes,
                                key=lambda o: (o.label, o.fingerprint))]
        merged = self.merged_bundle()
        return {
            "artifact": "repro.sweep",
            "tasks": len(self.outcomes),
            "completed": len(self.completed),
            "results": rows,
            "merged": summary_jsonable(merged) if merged is not None else None,
        }

    def canonical_json(self) -> str:
        """The canonical artifact as canonical JSON text (the byte contract)."""
        return render_canonical(self.canonical_artifact())

    def accounting(self) -> dict:
        """Non-deterministic run accounting (wall clock, retries, crashes)."""
        return {
            "workers": self.workers,
            "duration_s": self.duration_s,
            "wall_s": self.wall_s,
            "tasks": len(self.outcomes),
            "completed": len(self.completed),
            "failed": len(self.failed),
            "timeouts": len(self.timeouts),
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "pool_restarts": self.pool_restarts,
            "skipped_from_manifest": self.skipped_from_manifest,
            "experiments_per_second": self.experiments_per_second(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SweepResult {len(self.completed)}/{len(self.outcomes)} done "
                f"workers={self.workers} wall={self.wall_s:.2f}s "
                f"retries={self.retries} timeouts={len(self.timeouts)}>")


class SweepRunner:
    """Execute sweep tasks through one scheduling loop over an executor.

    The executor is picked from ``workers`` and ``timeout_s`` (see
    :meth:`_make_executor`); nothing else about a run depends on it.

    Args:
        workers: how many tasks run at once.  ``<= 1`` runs every spec
            in-process, in task order (the reference execution; a hard
            crash there ends the caller too); ``>= 2`` fans specs across a
            ``ProcessPoolExecutor``.
        duration_s / run_until_idle: forwarded to every scenario run.
        timeout_s: per-task wall-clock budget, enforced at every worker
            count.  A task past its budget is recorded as ``timeout`` and
            its worker process is torn down (the pool is rebuilt; other
            in-flight tasks are re-dispatched without consuming retry
            budget).  An in-process run cannot preempt itself, so
            ``workers <= 1`` with a budget runs on a one-worker pool.
        retries: how many times a *failing or crashing* task is re-dispatched
            before being recorded as ``failed``; a retry runs before the
            tasks queued behind it.  Timeouts never retry — a
            deterministic spec that timed out once will time out again.
        manifest_dir: enable resumability: completed spec fingerprints (and
            their summaries) are persisted here incrementally; a rerun
            skips them and still folds their results into the artifact.
            The canonical artifact is also written here (``artifact.json``).
        telemetry: the :class:`~repro.obs.Telemetry` the runner records its
            own spans and per-task timing into (``sweep.run`` /
            ``sweep.task``).  Timing and the per-task timeout both read
            spans, so the runner *requires* a live instance: omitted — or
            handed a disabled one — it builds a runner-local enabled
            telemetry.  Runner-side accounting (``wall_s``) is part of the
            runner's contract and still never touches canonical artifacts.
        worker_slices: ``None`` (the default) leaves workers unobserved.
            A count runs every worker's experiment under a fresh
            worker-local telemetry with that many engine slices, and the
            resulting snapshot rides home on ``ResultSummary.telemetry``
            and into the manifest — next to, never inside, the canonical
            summary rendering.
    """

    def __init__(self, *, workers: int = 1, duration_s: Optional[float] = 1.0,
                 run_until_idle: bool = False, timeout_s: Optional[float] = None,
                 retries: int = 0,
                 manifest_dir: Union[str, Path, None] = None,
                 telemetry: Optional[Telemetry] = None,
                 worker_slices: Optional[int] = None) -> None:
        check_count("workers", workers, minimum=0)
        check_count("retries", retries, minimum=0)
        if worker_slices is not None:
            check_count("worker_slices", worker_slices, minimum=0)
        check_duration(duration_s)
        if timeout_s is not None and not 0.0 < timeout_s < math.inf:
            raise ValueError(f"timeout_s must be finite and positive, "
                             f"got {timeout_s!r}")
        self.workers = workers
        self.duration_s = duration_s
        self.run_until_idle = run_until_idle
        self.timeout_s = timeout_s
        self.retries = retries
        self.manifest_dir = Path(manifest_dir) if manifest_dir is not None else None
        if telemetry is None or not telemetry.enabled:
            telemetry = Telemetry()
        self.telemetry = telemetry
        self.worker_slices = worker_slices

    # ------------------------------------------------------------------ entry
    def run(self, sweep: Union[SweepSpec, Sequence[SweepTask],
                               Sequence[ScenarioSpec]],
            on_outcome: Optional[Callable[[TaskOutcome], None]] = None
            ) -> SweepResult:
        """Run every task; return the :class:`SweepResult`.

        ``on_outcome`` (optional) is called with each :class:`TaskOutcome`
        the moment it settles — completion order, not task order — which is
        how callers stream incremental results out of a long sweep.
        """
        tasks = self._resolve_tasks(sweep)
        manifest = SweepManifest(self.manifest_dir) \
            if self.manifest_dir is not None else None
        result = SweepResult(outcomes=[], workers=self.workers,
                             duration_s=self.duration_s)
        sweep_span = self.telemetry.interval("sweep.run", tasks=len(tasks),
                                             workers=self.workers)
        task_wall = self.telemetry.metrics.histogram("sweep.task_wall_s")

        def settle(outcome: TaskOutcome) -> None:
            result.outcomes.append(outcome)
            if outcome.source == "run":
                task_wall.observe(outcome.wall_s)
                if manifest is not None:
                    manifest.record(outcome)
                    manifest.write(result.accounting())
            if on_outcome is not None:
                on_outcome(outcome)

        # Resume: completed fingerprints come straight from the manifest.
        pending_tasks: list[SweepTask] = []
        for task in tasks:
            summary = manifest.completed_summary(task.fingerprint) \
                if manifest is not None else None
            if summary is not None:
                result.skipped_from_manifest += 1
                settle(_outcome(task, DONE, 0, 0.0, summary=summary,
                                source="manifest"))
            else:
                pending_tasks.append(task)
        self._schedule(pending_tasks, settle, result)

        result.wall_s = sweep_span.finish().duration
        result.outcomes.sort(key=lambda outcome: outcome.index)
        if manifest is not None:
            manifest.write(result.accounting())
            artifact_path = self.manifest_dir / "artifact.json"
            artifact_path.write_text(result.canonical_json(), encoding="utf-8")
        return result

    def _resolve_tasks(self, sweep) -> list[SweepTask]:
        if isinstance(sweep, SweepSpec):
            return sweep.expand()
        tasks: list[SweepTask] = []
        for index, item in enumerate(sweep):
            if isinstance(item, SweepTask):
                tasks.append(item)
            elif isinstance(item, ScenarioSpec):
                label = f"{item.name or item.topology}#{index}"
                tasks.append(SweepTask(index=index, label=label,
                                       overrides={}, spec=item))
            else:
                raise TypeError(
                    f"sweep item #{index} must be a SweepTask or ScenarioSpec, "
                    f"got {type(item).__name__}")
        if not tasks:
            raise ValueError("the sweep has no tasks")
        return tasks

    # ------------------------------------------------------------- executors
    def _make_executor(self) -> Executor:
        """In-process for ``workers <= 1`` without a budget, else a pool.

        ``workers=1`` with ``timeout_s`` gets a one-worker pool: only a
        worker process can be torn down when a task overruns its budget.
        """
        if self.workers <= 1 and self.timeout_s is None:
            return _InlineExecutor()
        return ProcessPoolExecutor(max_workers=max(self.workers, 1),
                                   mp_context=MP_CONTEXT)

    @staticmethod
    def _terminate(executor: Executor) -> None:
        """Tear an executor down hard (stuck pool workers included)."""
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            process.terminate()
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join(timeout=1.0)

    # ------------------------------------------------------------------- loop
    def _schedule(self, tasks: list[SweepTask],
                  settle: Callable[[TaskOutcome], None],
                  result: SweepResult) -> None:
        """The one scheduling loop: fill the window, wait, settle, repeat.

        Every executor runs through it, so retries, settle order, spans and
        manifest writes are the same in-process and on a pool.  A retried
        task goes to the front of the queue and runs next.
        """
        queue = deque((task, 0) for task in tasks)    # (task, attempts so far)
        executor = self._make_executor()
        inflight: dict = {}                 # future -> (task, attempts, span)
        # Tasks in flight when a pool broke with >1 task running: the crash
        # cannot be attributed, so they re-run one at a time (window of 1)
        # until each either settles or breaks the pool alone.
        suspects: set[str] = set()

        def retry_or_fail(task: SweepTask, attempts: int, wall: float,
                          error: str) -> None:
            suspects.discard(task.fingerprint)
            if attempts <= self.retries:
                result.retries += 1
                queue.appendleft((task, attempts))
            else:
                settle(_outcome(task, FAILED, attempts, wall, error=error))

        try:
            while queue or inflight:
                window = 1 if suspects else max(self.workers, 1)
                while queue and len(inflight) < window:
                    task, attempts = queue.popleft()
                    # interval(), not span(): pool tasks overlap, and each
                    # task's track gets its own exporter row.  Opened before
                    # submit, which runs an in-process task to completion.
                    span = self.telemetry.interval(
                        "sweep.task", track=f"task:{task.label}",
                        label=task.label, attempt=attempts + 1)
                    future = executor.submit(_execute_task, task.spec,
                                             self.duration_s,
                                             self.run_until_idle,
                                             self.worker_slices)
                    inflight[future] = (task, attempts + 1, span)

                done, _ = wait(list(inflight), timeout=POLL_S,
                               return_when=FIRST_COMPLETED)
                crashed: list = []          # (task, attempts, wall) from break
                for future in done:
                    task, attempts, span = inflight.pop(future)
                    wall = span.finish().duration
                    try:
                        summary = future.result()
                    except BrokenProcessPool:
                        span.set(status="crashed")
                        crashed.append((task, attempts, wall))
                        continue
                    except Exception as exc:           # noqa: BLE001 - accounted
                        span.set(status=FAILED)
                        retry_or_fail(task, attempts, wall,
                                      f"{type(exc).__name__}: {exc}")
                        continue
                    span.set(status=DONE)
                    suspects.discard(task.fingerprint)
                    settle(_outcome(task, DONE, attempts, wall,
                                    summary=summary))

                restart = bool(crashed)
                if crashed:
                    result.worker_crashes += 1
                    # Every task on the broken pool is a casualty: the ones
                    # whose futures raised plus the ones still in flight.
                    for task, attempts, span in inflight.values():
                        span.set(status="casualty")
                        crashed.append((task, attempts, span.finish().duration))
                    inflight.clear()
                    if len(crashed) == 1:
                        # Alone on the pool: definitively the crasher.
                        retry_or_fail(*crashed[0], "worker process crashed")
                    else:
                        # Ambiguous: isolate all of them (front of the queue,
                        # re-dispatched without consuming retry budget).
                        for task, attempts, _ in reversed(crashed):
                            suspects.add(task.fingerprint)
                            queue.appendleft((task, attempts - 1))

                if self.timeout_s is not None and not restart:
                    expired = [future for future, (_, _, span) in inflight.items()
                               if span.elapsed > self.timeout_s]
                    for future in expired:
                        task, attempts, span = inflight.pop(future)
                        span.set(status=TIMEOUT)
                        settle(_outcome(
                            task, TIMEOUT, attempts, span.finish().duration,
                            error=f"exceeded {self.timeout_s}s budget"))
                        if not future.cancel():
                            # The task is running on a worker we cannot
                            # preempt: the whole pool is torn down below and
                            # innocent in-flight tasks are re-dispatched.
                            restart = True

                if restart:
                    # Victim tasks (in flight on the dead pool through no
                    # fault of their own) re-queue without consuming retries.
                    for future, (task, attempts, span) in inflight.items():
                        span.set(status="requeued")
                        span.finish()
                        queue.append((task, attempts - 1))
                    inflight.clear()
                    self._terminate(executor)
                    executor = self._make_executor()
                    result.pool_restarts += 1
        finally:
            self._terminate(executor)
