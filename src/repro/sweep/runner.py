"""Parallel, crash-isolated, resumable sweep execution.

The runner fans the trials of a :class:`SweepSpec` out over a
``ProcessPoolExecutor`` and consolidates one deterministic record per
trial:

- **Crash isolation** — a trial that raises returns a structured
  :class:`TrialFailure`; a worker process that dies outright breaks the
  pool, which the runner rebuilds before resubmitting the affected
  trials.  No failure mode kills the sweep.
- **Wall-clock timeouts** — enforced *inside* the worker with
  ``SIGALRM`` (the simulation is pure Python, so the signal interrupts
  it promptly), which frees the pool slot immediately.  On platforms
  without ``SIGALRM`` timeouts are not enforced.
- **Bounded retry** — failed trials re-execute up to ``retries`` extra
  times (timeouts only when ``retry_timeouts`` is set: a deterministic
  simulation that ran out of budget once will again).  A trial that
  raised ``ValueError`` or ``TypeError``, as a description that cannot
  be built does, fails once: every attempt would fail the same way.
- **Resume** — with a ``cache_dir``, finished cells are reloaded from
  disk and never re-executed; an interrupted sweep picks up where it
  left off.  See :mod:`repro.sweep.cache` for the keying.

Determinism: trials execute via a pure function of their parameters, so
per-trial records are byte-identical whether the sweep ran serially
(``workers=1``, in-process) or in parallel — ``tests/test_sweep.py``
asserts this.  Completion order never leaks into the artifacts: records
consolidate in spec order.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import json
import multiprocessing
import pathlib
import signal
import threading
import time
import typing
from concurrent.futures.process import BrokenProcessPool

from repro.fields import COUNT, INDEX, POSITIVE, check_number
from repro.sweep.cache import ResultCache, code_fingerprint
from repro.sweep.spec import SweepSpec, TrialConfig, canonical_json
from repro.sweep.trial import TELEMETRY_KEY, TIMING_KEY, execute_trial


class TrialTimeout(BaseException):
    """Raised inside a worker when a trial exceeds its wall-clock budget.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``): the
    alarm fires at an arbitrary point in the trial, and any ordinary
    ``except Exception`` along the way — e.g. the simulation kernel
    wrapping a crashed simulated process — must not absorb it and turn
    the timeout into a bogus trial failure.
    """


@dataclasses.dataclass(frozen=True)
class TrialFailure:
    """Structured description of why a trial did not produce a result."""

    kind: str  # "exception" | "timeout" | "worker-died"
    type: str
    message: str

    def to_dict(self) -> typing.Dict[str, str]:
        return {"kind": self.kind, "type": self.type, "message": self.message}


@dataclasses.dataclass
class TrialRecord:
    """One consolidated per-trial outcome (a ``results.jsonl`` row).

    ``timing`` carries wall-clock measurements (e.g. the scheduler's real
    decision time) extracted from the trial's ``"_timing"`` return key.
    It is cached and available in-memory, but excluded from
    :meth:`to_json_line` so that ``results.jsonl`` stays byte-identical
    across serial/parallel runs and resumes.
    """

    trial_id: str
    status: str  # "ok" | "failed" | "timeout"
    params: typing.Dict[str, typing.Any]
    result: typing.Optional[typing.Dict[str, typing.Any]]
    error: typing.Optional[typing.Dict[str, str]]
    timing: typing.Optional[typing.Dict[str, typing.Any]] = None

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return {
            "trial_id": self.trial_id,
            "status": self.status,
            "params": self.params,
            "result": self.result,
            "error": self.error,
            "timing": self.timing,
        }

    def to_json_line(self) -> str:
        deterministic = self.to_dict()
        del deterministic["timing"]
        return canonical_json(deterministic)

    @classmethod
    def from_dict(cls, data: typing.Mapping[str, typing.Any]) -> "TrialRecord":
        return cls(
            trial_id=data["trial_id"],
            status=data["status"],
            params=dict(data["params"]),
            result=data.get("result"),
            error=data.get("error"),
            timing=data.get("timing"),
        )


class _WallClockLimit:
    """SIGALRM-based wall-clock guard; a no-op off the main thread or on
    platforms without the signal."""

    def __init__(self, seconds: typing.Optional[float]) -> None:
        self.seconds = seconds
        self._armed = False
        self._previous: typing.Any = None

    def __enter__(self) -> "_WallClockLimit":
        if (
            self.seconds
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        ):
            def _expired(signum, frame):
                raise TrialTimeout()

            self._previous = signal.signal(signal.SIGALRM, _expired)
            # The repeat interval re-raises if an intermediate handler
            # swallows the first alarm while unwinding.
            signal.setitimer(signal.ITIMER_REAL, self.seconds, self.seconds)
            self._armed = True
        return self

    def __exit__(self, *exc_info: typing.Any) -> None:
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


def _chains_timeout(exc: typing.Optional[BaseException]) -> bool:
    """Whether a :class:`TrialTimeout` hides in the exception chain.

    The alarm fires at an arbitrary point in the trial; framework code
    (e.g. the simulation kernel's crash path) may legitimately wrap it in
    its own exception before it reaches us.
    """
    seen: typing.Set[int] = set()
    while exc is not None and id(exc) not in seen:
        if isinstance(exc, TrialTimeout):
            return True
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return False


def _guarded(
    trial_fn: typing.Callable[[typing.Mapping[str, typing.Any]], typing.Any],
    params: typing.Dict[str, typing.Any],
    timeout: typing.Optional[float],
) -> typing.Tuple[str, typing.Any, typing.Optional[typing.Dict[str, str]]]:
    """Run one trial under the timeout guard; never raises.

    Executes in the worker process (or inline when ``workers=1``).  The
    failure payloads are functions of the trial alone — no wall-clock
    values — so records stay deterministic: a timeout is always reported
    with the same canonical payload whether it surfaced directly or
    wrapped by framework code.
    """
    def timeout_failure() -> typing.Dict[str, str]:
        return TrialFailure(
            kind="timeout",
            type="TrialTimeout",
            message=f"exceeded the {timeout:g}s wall-clock budget",
        ).to_dict()

    try:
        with _WallClockLimit(timeout):
            result = trial_fn(params)
    except TrialTimeout:
        return "timeout", None, timeout_failure()
    except Exception as exc:
        if _chains_timeout(exc):
            return "timeout", None, timeout_failure()
        failure = TrialFailure(
            kind="exception", type=type(exc).__name__, message=str(exc)
        )
        # "invalid" is recorded as "failed" but never retried.
        status = "invalid" if isinstance(exc, (ValueError, TypeError)) else "failed"
        return status, None, failure.to_dict()
    return "ok", result, None


#: A trial queued for (re-)execution: attempts counts executions started,
#: deaths counts worker-process deaths during its solo runs, and suspect
#: marks a trial that was in flight when the pool broke (it reruns alone).
_Pending = collections.namedtuple("_Pending", "trial attempts deaths suspect")


@dataclasses.dataclass
class SweepResult:
    """Outcome of one :meth:`SweepRunner.run` call."""

    spec_name: str
    fingerprint: str
    records: typing.List[TrialRecord]  # spec order
    executed: int  # trials actually run this invocation
    cached: int  # trials served from the result cache
    retried: int  # extra execution attempts (failures + worker deaths)
    workers: int
    wall_seconds: float

    def by_id(self) -> typing.Dict[str, TrialRecord]:
        return {record.trial_id: record for record in self.records}

    def status_counts(self) -> typing.Dict[str, int]:
        counts = {"ok": 0, "failed": 0, "timeout": 0}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    @property
    def failures(self) -> typing.List[TrialRecord]:
        return [r for r in self.records if r.status != "ok"]

    def merged_sketch(self, dotted_path: str) -> typing.Optional[typing.Any]:
        """Merge one latency sketch out of every ok trial's result.

        ``dotted_path`` navigates each record's result dict to a
        serialized :class:`~repro.telemetry.sketch.QuantileSketch`
        payload (or a :class:`~repro.telemetry.sketch.LatencyProbe`
        payload, whose ``merged`` sub-sketch is then taken) — e.g.
        ``"latency_sketch"`` or ``"probes.sink"``.  Sketches are exactly
        mergeable, so the result is identical whether the sweep ran
        serially or fanned out over workers.  Trials that failed or lack
        the path are skipped; returns ``None`` when nothing merged.
        """
        from repro.telemetry.sketch import PAYLOAD_KIND, merge_payloads

        payloads: typing.List[typing.Mapping[str, typing.Any]] = []
        for record in self.records:
            if record.status != "ok" or not isinstance(record.result, dict):
                continue
            node: typing.Any = record.result
            for part in dotted_path.split("."):
                if not isinstance(node, dict) or part not in node:
                    node = None
                    break
                node = node[part]
            if isinstance(node, dict) and node.get("kind") != PAYLOAD_KIND:
                node = node.get("merged")  # probe payload -> its sketch
            if isinstance(node, dict) and node.get("kind") == PAYLOAD_KIND:
                payloads.append(node)
        return merge_payloads(payloads)

    def summary_dict(self) -> typing.Dict[str, typing.Any]:
        return {
            "spec": self.spec_name,
            "fingerprint": self.fingerprint,
            "workers": self.workers,
            "total": len(self.records),
            "statuses": self.status_counts(),
            "executed": self.executed,
            "cached": self.cached,
            "retried": self.retried,
            "wall_seconds": self.wall_seconds,
            "trials": {r.trial_id: r.status for r in self.records},
        }

    def write(
        self, out_dir: typing.Union[str, pathlib.Path]
    ) -> typing.Tuple[pathlib.Path, pathlib.Path]:
        """Write ``results.jsonl`` + ``summary.json`` under ``out_dir``.

        ``results.jsonl`` is fully deterministic (spec order, canonical
        JSON); ``summary.json`` additionally carries wall-clock timing
        and execution counters, which vary run to run.
        """
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        results_path = out / "results.jsonl"
        results_path.write_text(
            "".join(record.to_json_line() + "\n" for record in self.records)
        )
        summary_path = out / "summary.json"
        summary_path.write_text(
            json.dumps(self.summary_dict(), indent=2, sort_keys=True) + "\n"
        )
        return results_path, summary_path


#: progress(done, total, record, cached) after every consolidated trial.
ProgressFn = typing.Callable[[int, int, TrialRecord, bool], None]


class SweepRunner:
    """Execute a :class:`SweepSpec`; see the module docstring."""

    def __init__(
        self,
        spec: SweepSpec,
        *,
        workers: int = 1,
        timeout: typing.Optional[float] = None,
        retries: int = 1,
        retry_timeouts: bool = False,
        cache_dir: typing.Optional[typing.Union[str, pathlib.Path]] = None,
        fingerprint: typing.Optional[str] = None,
        reuse_failures: bool = True,
        trial_fn: typing.Callable[
            [typing.Mapping[str, typing.Any]], typing.Any
        ] = execute_trial,
        telemetry_dir: typing.Optional[typing.Union[str, pathlib.Path]] = None,
        progress: typing.Optional[ProgressFn] = None,
        mp_context: typing.Optional[str] = None,
    ) -> None:
        check_number("workers", workers, COUNT)
        check_number("retries", retries, INDEX)
        if timeout is not None:
            check_number("timeout", timeout, POSITIVE)
        self.spec = spec
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.retry_timeouts = retry_timeouts
        self.cache = (
            ResultCache(cache_dir, fingerprint) if cache_dir is not None else None
        )
        self.reuse_failures = reuse_failures
        self.trial_fn = trial_fn
        self.telemetry_dir = (
            pathlib.Path(telemetry_dir) if telemetry_dir is not None else None
        )
        self.progress = progress
        if mp_context is None:
            available = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in available else "spawn"
        self.mp_context = mp_context

    # -- helpers -----------------------------------------------------------

    def _dispatch_params(self, trial: TrialConfig) -> typing.Dict[str, typing.Any]:
        params = trial.to_dict()
        if self.telemetry_dir is not None:
            # Injected after the trial id was computed: the export target
            # is runner policy, not part of the experiment's identity.
            params[TELEMETRY_KEY] = str(self.telemetry_dir / trial.trial_id)
        return params

    def _timeout_for(self, trial: TrialConfig) -> typing.Optional[float]:
        if trial.timeout_seconds is not None:
            return trial.timeout_seconds
        return self.timeout

    def _should_retry(self, status: str, attempts: int) -> bool:
        if attempts > self.retries:
            return False
        if status == "failed":
            return True
        return status == "timeout" and self.retry_timeouts

    # -- execution ---------------------------------------------------------

    def run(self) -> SweepResult:
        started = time.monotonic()
        fingerprint = self.cache.fingerprint if self.cache else code_fingerprint()
        total = len(self.spec)
        records: typing.Dict[str, TrialRecord] = {}
        counters = {"executed": 0, "cached": 0, "retried": 0}
        pending: typing.List[TrialConfig] = []

        for trial in self.spec:
            cached = self.cache.get(trial.trial_id) if self.cache else None
            if cached is not None and (
                cached.get("status") == "ok" or self.reuse_failures
            ):
                record = TrialRecord.from_dict(cached)
                records[trial.trial_id] = record
                counters["cached"] += 1
                self._report(len(records), total, record, True)
            else:
                pending.append(trial)

        def finish(
            trial: TrialConfig,
            status: str,
            result: typing.Any,
            error: typing.Optional[typing.Dict[str, str]],
        ) -> None:
            if status == "invalid":
                status = "failed"
            timing = None
            if isinstance(result, dict) and TIMING_KEY in result:
                result = dict(result)
                timing = result.pop(TIMING_KEY)
            record = TrialRecord(
                trial_id=trial.trial_id,
                status=status,
                params=trial.to_dict(),
                result=result,
                error=error,
                timing=timing,
            )
            records[trial.trial_id] = record
            if self.cache is not None:
                self.cache.put(record.to_dict())
            self._report(len(records), total, record, False)

        if self.workers == 1:
            self._run_serial(pending, counters, finish)
        else:
            self._run_parallel(pending, counters, finish)

        ordered = [records[trial_id] for trial_id in self.spec.trial_ids()]
        return SweepResult(
            spec_name=self.spec.name,
            fingerprint=fingerprint,
            records=ordered,
            executed=counters["executed"],
            cached=counters["cached"],
            retried=counters["retried"],
            workers=self.workers,
            wall_seconds=time.monotonic() - started,
        )

    def _report(
        self, done: int, total: int, record: TrialRecord, cached: bool
    ) -> None:
        if self.progress is not None:
            self.progress(done, total, record, cached)

    def _run_serial(
        self,
        pending: typing.Sequence[TrialConfig],
        counters: typing.Dict[str, int],
        finish: typing.Callable[..., None],
    ) -> None:
        """In-process execution — the determinism reference.

        Note: no isolation from a trial that kills the *process* (e.g. a
        segfault); use ``workers >= 2`` for hard-crash containment.
        """
        for trial in pending:
            attempts = 1
            while True:
                counters["executed"] += 1
                status, result, error = _guarded(
                    self.trial_fn,
                    self._dispatch_params(trial),
                    self._timeout_for(trial),
                )
                if status != "ok" and self._should_retry(status, attempts):
                    attempts += 1
                    counters["retried"] += 1
                    continue
                finish(trial, status, result, error)
                break

    def _run_parallel(
        self,
        pending: typing.Sequence[TrialConfig],
        counters: typing.Dict[str, int],
        finish: typing.Callable[..., None],
    ) -> None:
        context = multiprocessing.get_context(self.mp_context)
        queue: typing.Deque[_Pending] = collections.deque(
            _Pending(trial, 1, 0, False) for trial in pending
        )
        #: Trials in flight when the pool broke, each rerun alone.
        suspects: typing.Deque[_Pending] = collections.deque()
        inflight: typing.Dict[concurrent.futures.Future, _Pending] = {}
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context
        )
        # When the pool breaks, the culprit cannot be told apart from the
        # innocent trials in flight with it.  So every victim reruns with
        # nothing else in flight, and only a break during such a solo run
        # is charged to the trial's (small) death budget.
        max_deaths = self.retries + 1

        def rebuild_pool() -> None:
            nonlocal pool
            pool.shutdown(wait=False, cancel_futures=True)
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )

        def requeue_victims(victims: typing.List[_Pending]) -> None:
            if len(victims) > 1:
                for victim in victims:
                    counters["retried"] += 1
                    suspects.append(victim._replace(suspect=True))
                return
            victim = victims[0]
            if victim.deaths + 1 > max_deaths:
                finish(
                    victim.trial,
                    "failed",
                    None,
                    TrialFailure(
                        kind="worker-died",
                        type="BrokenProcessPool",
                        message=(
                            "worker process died while running this "
                            f"trial alone (x{victim.deaths + 1})"
                        ),
                    ).to_dict(),
                )
            else:
                counters["retried"] += 1
                suspects.append(
                    victim._replace(deaths=victim.deaths + 1, suspect=True)
                )

        def retry_or_finish(
            item: _Pending,
            status: str,
            result: typing.Any,
            error: typing.Optional[typing.Dict[str, str]],
        ) -> None:
            if status != "ok" and self._should_retry(status, item.attempts):
                counters["retried"] += 1
                # A completed run cleared the trial of killing the pool.
                queue.append(
                    item._replace(attempts=item.attempts + 1, suspect=False)
                )
            else:
                finish(item.trial, status, result, error)

        try:
            while queue or suspects or inflight:
                broken_victims: typing.List[_Pending] = []
                solo_running = any(item.suspect for item in inflight.values())
                to_submit: typing.List[_Pending] = []
                if suspects:
                    if not inflight:
                        to_submit.append(suspects.popleft())
                elif not solo_running:
                    while queue and len(inflight) + len(to_submit) < self.workers * 2:
                        to_submit.append(queue.popleft())
                for index, item in enumerate(to_submit):
                    try:
                        future = pool.submit(
                            _guarded,
                            self.trial_fn,
                            self._dispatch_params(item.trial),
                            self._timeout_for(item.trial),
                        )
                    except (BrokenProcessPool, RuntimeError):
                        broken_victims.append(item)
                        queue.extendleft(reversed(to_submit[index + 1:]))
                        break
                    counters["executed"] += 1
                    inflight[future] = item
                if not broken_victims and inflight:
                    done, _ = concurrent.futures.wait(
                        inflight, return_when=concurrent.futures.FIRST_COMPLETED
                    )
                    for future in done:
                        item = inflight.pop(future)
                        exc = future.exception()
                        if isinstance(exc, BrokenProcessPool):
                            broken_victims.append(item)
                        elif exc is not None:
                            # Orchestration error (e.g. unpicklable
                            # result), not a pool death: fail the trial.
                            retry_or_finish(
                                item,
                                "failed",
                                None,
                                TrialFailure(
                                    kind="exception",
                                    type=type(exc).__name__,
                                    message=str(exc),
                                ).to_dict(),
                            )
                        else:
                            retry_or_finish(item, *future.result())
                if broken_victims:
                    # Every other in-flight trial is doomed with the pool.
                    broken_victims.extend(inflight.values())
                    inflight.clear()
                    rebuild_pool()
                    requeue_victims(broken_victims)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
