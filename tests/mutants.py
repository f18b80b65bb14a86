"""Mutation score: does tier-1 catch each of this repo's real bugs?

Each mutant puts one bug back into the tree as a text patch: a bug this
repository shipped and later fixed, or a step-order slip the paper's
consistent reassignment (§3.3) forbids.  The runner applies one mutant at
a time to a scratch copy of the repository and runs tier-1 on it: the
test suite, without the patch check in ``tests/test_mutants.py``.

:data:`MUTANTS` is the committed score table (``docs/static-analysis.md``
shows it).  Tier-1 must catch every mutant; ``caught_by`` records up to
three of the fastest tier-1 tests that fail on it, from a full run.  The
runner exits 1 when tier-1 misses a mutant, when a recorded catcher
passes on its mutant, or when a patch no longer applies.

Usage (from the repository root)::

    python tests/mutants.py                # the full score, ~70 s a mutant
    python tests/mutants.py --catchers     # only the recorded catchers, ~5 s a mutant
    python tests/mutants.py route-before-migrate skip-pause

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import typing

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The tier-1 run leaves out the patch check, which fails on any mutated
#: tree by design.
TIER1 = ("tests", "--ignore=tests/test_mutants.py")

#: Wall-clock cap of one test run; a wedged mutant counts as caught.
RUN_TIMEOUT = 1200


@dataclasses.dataclass(frozen=True)
class Mutant:
    """One bug as ``(old, new)`` text edits of one file.

    Each ``old`` must occur exactly once in the file, so a refactor that
    moves the code breaks the mutant loudly instead of silently testing
    nothing.
    """

    name: str
    origin: str
    path: str
    edits: typing.Tuple[typing.Tuple[str, str], ...]
    caught_by: typing.Tuple[str, ...] = ()

    def apply(self, text: str) -> str:
        for old, new in self.edits:
            count = text.count(old)
            if count != 1:
                raise ValueError(
                    f"{self.name}: edit matches {count} times in {self.path}: "
                    f"{old.strip().splitlines()[0]!r}"
                )
            text = text.replace(old, new)
        return text


ELASTIC = "src/repro/executors/elastic.py"
TASK = "src/repro/executors/task.py"
SKETCH = "src/repro/telemetry/sketch.py"

MUTANTS: typing.Tuple[Mutant, ...] = (
    Mutant(
        "remove-core-bare-migrate",
        "remove_core evacuates by bare migrate_shard + assign, as before the moves were unified",
        ELASTIC,
        ((
            "            for shard_id, dst_task in sorted(placement.items()):\n"
            "                yield from self._move_shard(shard_id, victim, dst_task, draining=victim)\n",
            "            for shard_id, dst_task in sorted(placement.items()):\n"
            "                if dst_task.node_id != victim.node_id:\n"
            "                    yield from migrate_shard(\n"
            "                        self.env, self.cluster.network, self.stores[victim.node_id],\n"
            "                        self.stores[dst_task.node_id], shard_id, self.migration_clock,\n"
            "                    )\n"
            "                self.routing.assign(shard_id, dst_task)\n",
        ),),
        caught_by=(
            "tests/test_differential.py::test_identical_streams_end_in_identical_state",
            "tests/test_differential.py::test_some_run_moved_shards",
            "tests/test_differential.py::test_state_counts_every_emitted_tuple_once[elasticutor-cloud]",
        ),
    ),
    Mutant(
        "skip-pause",
        "the move never pauses routing for the shard (§3.3 step 1)",
        ELASTIC,
        ((
            "                # entry.  (The crash already paused an orphan.)\n"
            "                entry.pause()\n",
            "                # entry.  (The crash already paused an orphan.)\n",
        ),),
        caught_by=(
            "tests/test_differential.py::test_identical_streams_end_in_identical_state",
            "tests/test_differential.py::test_some_run_moved_shards",
            "tests/test_differential.py::test_state_counts_every_emitted_tuple_once[elasticutor-cloud]",
        ),
    ),
    Mutant(
        "skip-label-chase",
        "the move does not chase pending tuples with a labeling tuple (§3.3 step 2)",
        ELASTIC,
        ((
            "                label_event = self.env.event()\n"
            "                yield self._forward(LabelTuple(shard_id, label_event), src_task)\n"
            "                yield label_event\n",
            "                pass\n",
        ),),
        caught_by=(
            "tests/test_differential.py::test_identical_streams_end_in_identical_state",
            "tests/test_differential.py::test_some_run_moved_shards",
            "tests/test_differential.py::test_state_counts_every_emitted_tuple_once[elasticutor-cloud]",
        ),
    ),
    Mutant(
        "route-before-migrate",
        "the routing table names the target before the state step (§3.3 order)",
        ELASTIC,
        ((
            "            migrated_bytes = 0\n            inter_node =",
            "            self.routing.assign(shard_id, dst)\n"
            "            migrated_bytes = 0\n            inter_node =",
        ),),
        caught_by=(
            "tests/test_elastic_executor.py::TestScaling::test_routing_flips_only_after_state_migrates",
        ),
    ),
    Mutant(
        "remove-core-hole",
        "the remove_core hole: a move may fall back to the task being removed, which "
        "then stops with the shards it kept",
        ELASTIC,
        (
            ("            t for t in self.tasks.values() if not t.stopped and t is not draining\n",
             "            t for t in self.tasks.values() if not t.stopped\n"),
            (
                "            if self.routing.shards_of(victim):\n"
                "                # Every other task crashed mid-evacuation, so the victim\n"
                "                # kept the shards it could not hand over: it is the last\n"
                "                # core now.\n"
                "                raise ValueError(f\"{self.name} cannot drop its last core\")\n",
                "",
            ),
        ),
        caught_by=(
            "tests/test_protocol_fuzz.py::test_exactly_once_or_counted_lost_under_crashes",
        ),
    ),
    Mutant(
        "install-resumes-orphan",
        "_install resumes a shard whose target crashed during the flush",
        ELASTIC,
        ((
            "        if entry.task is task:\n"
            "            # A crash of ``task`` during the flush orphaned the shard: it\n"
            "            # stays paused for recovery.\n"
            "            entry.paused = False\n",
            "        entry.paused = False\n",
        ),),
        caught_by=(
            "tests/test_elastic_executor.py::TestCrashDuringFlush::test_destination_crashed_mid_flush_stays_paused_for_recovery",
        ),
    ),
    Mutant(
        "lost-get-batch",
        "the lost get batch: a batch handed to a pending get as a crash hits is never dead-lettered",
        "src/repro/executors/group.py",
        ((
            "        if callback is on_get and not queue.cancel(waiting):\n"
            "            return [waiting._value]\n",
            "        if callback is on_get and not queue.cancel(waiting):\n"
            "            return []\n",
        ),),
        caught_by=(
            "tests/test_executor_parts.py::TestCrashInTheHandOffInstant::test_rc_emitter_batch_is_lost_but_settled",
            "tests/test_executor_parts.py::TestCrashInTheHandOffInstant::test_receiver_batch_is_counted_lost",
            "tests/test_executor_parts.py::TestTask::test_kill_returns_the_batch_handed_over_in_the_same_instant",
        ),
    ),
    Mutant(
        "discarded-put",
        "the receiver drops the event of a local put and pumps on at once",
        ELASTIC,
        ((
            "            self._waiting = task.queue.arm_put(self._ack, batch, self._on_put_cb)\n"
            "            return\n",
            "            task.queue.put(batch)\n"
            "            self._waiting = self.get(self._get, self._on_batch_cb)\n"
            "            return\n",
        ),),
        caught_by=(
            "tests/test_scheduler_properties.py::TestShardIntegrity::test_no_orphan_or_double_ownership_after_rounds[naive-ec]",
            "tests/test_scheduler_properties.py::TestShardIntegrity::test_no_orphan_or_double_ownership_after_rounds[reactive]",
            "tests/test_scheduler_daemon.py::TestDynamicScheduler::test_grows_overloaded_executor",
        ),
    ),
    Mutant(
        "rearm-while-queued",
        "the receiver pumps on without waiting for its local put, so the next"
        " local batch re-arms the put-ack while that put is still queued",
        ELASTIC,
        ((
            "            self._waiting = task.queue.arm_put(self._ack, batch, self._on_put_cb)\n"
            "            return\n",
            "            task.queue.arm_put(self._ack, batch)\n"
            "            self._waiting = self.get(self._get, self._on_batch_cb)\n"
            "            return\n",
        ),),
        caught_by=(
            "tests/test_differential.py::test_identical_streams_end_in_identical_state",
            "tests/test_differential.py::test_some_run_moved_shards",
            "tests/test_differential.py::test_state_counts_every_emitted_tuple_once[elasticutor-cloud]",
        ),
    ),
    Mutant(
        "spawn-in-callback",
        "remote sends go back to the delivery process the callbacks were compiled from",
        "src/repro/executors/channels.py",
        (
            (
                "class _Delivery(Event):\n",
                "def _deliver(sender, hop, queue, item):\n"
                "    yield hop\n"
                "    yield queue.put(item)\n"
                "    sender._window.release()\n"
                "\n\n"
                "class _Delivery(Event):\n",
            ),
            (
                "        sender.fabric.transfer(\n"
                "            sender.src_node, self.dst_node, self.nbytes, self.purpose, self,\n"
                "            self._on_transfer_cb,\n"
                "        )\n",
                "        hop = sender.fabric.transfer(\n"
                "            sender.src_node, self.dst_node, self.nbytes, self.purpose\n"
                "        )\n"
                "        sender.env.process(_deliver(sender, hop, self.queue, self.item))\n",
            ),
        ),
        caught_by=(
            "tests/test_executor_parts.py::TestDeliveryPool::test_pooled_hop_holds_no_batch_after_its_put",
            "tests/test_executor_parts.py::TestWindowedSender::test_remote_delivery_costs_three_events",
            "tests/test_executor_parts.py::TestWindowedSender::test_zero_delay_remote_delivery_is_fifo",
        ),
    ),
    Mutant(
        "stall-closed-aborted",
        "an RC recovery that found no capacity finishes its span as aborted",
        "src/repro/executors/rc.py",
        (('span.finish(status="stalled")', 'span.finish(status="aborted")'),),
        caught_by=(
            "tests/test_rc.py::TestRCRecovery::test_recovery_without_capacity_finishes_stalled",
        ),
    ),
    Mutant(
        "recovery-stall-unclosed",
        "a node-crash recovery whose restarts all failed returns without finishing as stalled",
        "src/repro/faults/recovery.py",
        (('                span.finish(status="stalled", restarts=len(restarts))\n', ""),),
        caught_by=(
            "tests/test_faults.py::TestConservationUnderFaults::test_recovery_stalls_when_no_restart_finds_a_core",
        ),
    ),
    Mutant(
        "rc-sync-skips-drain",
        "the global sync round moves state without waiting for in-flight tuples to drain",
        "src/repro/executors/gate.py",
        (("            yield self.in_flight.wait_zero()\n", ""),),
        caught_by=(
            "tests/test_differential.py::test_identical_streams_end_in_identical_state",
            "tests/test_differential.py::test_some_run_moved_shards",
            "tests/test_differential.py::test_state_counts_every_emitted_tuple_once[elasticutor-cloud]",
        ),
    ),
    Mutant(
        "builtin-hash-placement",
        "external-state placement by the builtin hash of a str (seed-dependent)",
        "src/repro/state/external.py",
        ((
            "stable_hash(shard_id, salt) % len(self.storage_nodes)",
            "hash((owner, shard_id)) % len(self.storage_nodes)",
        ),),
        caught_by=(
            "tests/test_external_state.py::TestExternalStateService::test_placement_ignores_hash_seed",
        ),
    ),
    Mutant(
        "wall-clock-decision",
        "the balancer stops planning after a wall-clock budget",
        "src/repro/executors/balancer.py",
        (
            ("import dataclasses\nimport typing\n",
             "import dataclasses\nimport time\nimport typing\n"),
            (
                "        for _ in range(self.max_moves):\n",
                "        deadline = time.monotonic() + 0.05\n"
                "        for _ in range(self.max_moves):\n"
                "            if time.monotonic() > deadline:\n"
                "                break\n",
            ),
        ),
        caught_by=(
            "tests/test_invariants.py::TestWallClock::test_a_jumping_wall_clock_does_not_change_a_run",
        ),
    ),
    Mutant(
        "str-set-loop",
        "node-crash victims collected in str-set order",
        "src/repro/faults/recovery.py",
        ((
            "        victims = []\n        for op_name in sorted(system.executors_by_operator):\n",
            "        victims = []\n        for op_name in set(system.executors_by_operator):\n",
        ),),
        caught_by=(
            "tests/test_invariants.py::TestSetOrder::test_no_loop_in_src_walks_a_set_in_hash_order",
            "tests/test_invariants.py::TestHashSeed::test_sse_run_does_not_depend_on_the_hash_seed[elasticutor]",
        ),
    ),
    Mutant(
        "set-algebra-loop",
        "_diff walks a union of node sets unsorted (the pattern of _apply's loop)",
        "src/repro/scheduler/scheduler.py",
        ((
            "            for node in sorted(set(current) | set(target)):\n",
            "            for node in set(current) | set(target):\n",
        ),),
        caught_by=(
            "tests/test_invariants.py::TestSetOrder::test_no_loop_in_src_walks_a_set_in_hash_order",
        ),
    ),
    Mutant(
        "wall-clock-in-results",
        "SweepResult.write stamps results.jsonl with time.time()",
        "src/repro/sweep/runner.py",
        ((
            '            "".join(record.to_json_line() + "\\n" for record in self.records)\n',
            '            "".join(record.to_json_line() + "\\n" for record in self.records)\n'
            '            + f"# written {time.time()}\\n"\n',
        ),),
        caught_by=(
            "tests/test_cli.py::TestSweepCommand::test_sweep_runs_and_resumes_from_cache",
            "tests/test_sweep.py::TestAcceptance::test_parallel_matches_serial_and_resume_is_free",
        ),
    ),
    Mutant(
        "timing-in-results",
        "the wall-clock timing field stays in results.jsonl",
        "src/repro/sweep/runner.py",
        (('        del deterministic["timing"]\n', ""),),
        caught_by=(
            "tests/test_sweep.py::TestAcceptance::test_timing_side_channel",
            "tests/test_sweep.py::TestAcceptance::test_parallel_matches_serial_and_resume_is_free",
        ),
    ),
    Mutant(
        "service-cost-unrecorded",
        "the task commit, which updates the service-cost EWMA inline, drops the update",
        TASK,
        ((
            "        if count > 0:\n"
            "            service_cost = metrics.service_cost\n"
            "            sample = cost / count\n"
            "            if sample == service_cost._value and service_cost._initialized:\n"
            "                service_cost._last_time = now\n"
            "            else:\n"
            "                service_cost.update(now, sample)\n",
            "",
        ),),
        caught_by=(
            "tests/test_executor_parts.py::TestTask::test_commit_accounts_as_executor_metrics_on_processed",
            "tests/test_heterogeneity.py::TestNodeSpeed::test_scheduler_compensates_for_straggler_node",
            "tests/test_invariants.py::TestHashSeed::test_sse_run_does_not_depend_on_the_hash_seed[elasticutor]",
        ),
    ),
    Mutant(
        "arrival-unrecorded",
        "the receiver, which records λ inline, drops the arrival record",
        ELASTIC,
        ((
            "        rates = self.in_rates\n"
            "        events = rates._events\n"
            "        events.append((now, count, nbytes))\n"
            "        total_a = rates._sum_a + count\n"
            "        total_b = rates._sum_b + nbytes\n"
            "        horizon = now - rates.window\n"
            "        while events[0][0] <= horizon:\n"
            "            _, old_a, old_b = events.popleft()\n"
            "            total_a -= old_a\n"
            "            total_b -= old_b\n"
            "        rates._sum_a = total_a\n"
            "        rates._sum_b = total_b\n",
            "",
        ),),
        caught_by=(
            "tests/test_scheduler_daemon.py::TestDynamicScheduler::test_grows_overloaded_executor",
            "tests/test_network_profile.py::TestSystemThreading::test_wan_profile_shows_up_in_latency",
            "tests/test_system.py::TestStreamSystemBasics::test_sink_sketch_payloads_are_pinned",
        ),
    ),
    Mutant(
        "shard-cost-uncharged",
        "the task commit stops charging its cost to the batch's shard",
        TASK,
        ((
            "            if ex._shard_cost_accum is not None:\n"
            "                ex._shard_cost_accum[shard_id] += cost\n",
            "",
        ),),
        caught_by=(
            "tests/test_heterogeneity.py::TestNodeSpeed::test_balancer_shifts_load_away_from_straggler",
            "tests/test_sync_pins.py::test_outputs_match_pins[elastic_rehome_external]",
            "tests/test_system.py::TestStreamSystemBasics::test_sink_sketch_payloads_are_pinned",
        ),
    ),
    Mutant(
        "sink-bin-unadded",
        "a sink completion in an open sample interval is not added to its bin",
        "src/repro/runtime/system.py",
        (("            self._completion_values[-1] += batch.count\n", "            pass\n"),),
        caught_by=(
            "tests/test_differential.py::test_identical_streams_end_in_identical_state",
            "tests/test_differential.py::test_some_run_moved_shards",
            "tests/test_differential.py::test_state_counts_every_emitted_tuple_once[elasticutor-cloud]",
        ),
    ),
    Mutant(
        "probe-fold-unclamped",
        "the latency probe's fold drops the clamp of negative (and NaN) latencies to 0",
        SKETCH,
        ((
            "        latencies = [latency if latency > 0.0 else 0.0 for latency in pending[1::3]]\n",
            "        latencies = pending[1::3]\n",
        ),),
        caught_by=(
            "tests/test_sketch.py::TestLatencyProbe::test_fold_clamps_negative_zero_and_nan_to_zero",
            "tests/test_sketch.py::TestLatencyProbe::test_negative_latency_clamps_to_zero",
            "tests/test_sketch.py::TestLatencyProbe::test_fold_equals_per_triple_add[300-1009]",
        ),
    ),
    Mutant(
        "probe-fold-at-65536",
        "the latency probe buffers 65,536 observations before it folds, as before the bulk fold",
        SKETCH,
        (("PENDING_LIMIT = 3 * FOLD_THRESHOLD\n", "PENDING_LIMIT = 3 * 65536\n"),),
        caught_by=(
            "tests/test_sketch.py::TestLatencyProbe::test_fold_threshold_bounds_the_buffer",
            "tests/test_telemetry.py::TestProbeFoldTiming::test_mid_run_folds_export_the_same_sketches",
        ),
    ),
    Mutant(
        "keep-finished-systems",
        "a run starts without collecting the finished systems, so back-to-back runs stack up in memory",
        "src/repro/runtime/system.py",
        ((
            "        if _FINISHED:\n"
            "            # Free the finished systems nothing references any more, so\n"
            "            # back-to-back runs hold one system at a time.\n"
            "            gc.collect()\n",
            "",
        ),),
        caught_by=(
            "tests/test_system.py::TestBackToBackRuns::test_finished_system_freed_when_next_run_starts",
            "tests/test_system.py::TestBackToBackRuns::test_only_a_run_after_a_finished_one_collects",
            "tests/test_system.py::TestBackToBackRuns::test_back_to_back_runs_match_fresh_runs",
        ),
    ),
    Mutant(
        "lost-slots",
        "TupleBatch loses __slots__",
        "src/repro/topology/batch.py",
        ((
            '    __slots__ = (\n        "key", "count", "cpu_cost", "size_bytes", "created_at",\n'
            '        "payload", "admitted_at", "trace",\n    )\n',
            "",
        ),),
        caught_by=(
            "tests/test_hot_slots.py::test_hot_classes_have_no_instance_dict",
        ),
    ),
    Mutant(
        "span-left-open",
        "the rebalance span is finished on exceptions only, not in finally",
        ELASTIC,
        ((
            '            span.finish(status="ok", moves=len(moves))\n'
            "        finally:\n"
            '            span.finish(status="aborted")\n',
            '            span.finish(status="ok", moves=len(moves))\n'
            "        except Exception:\n"
            '            span.finish(status="aborted")\n'
            "            raise\n",
        ),),
        caught_by=(
            "tests/test_invariants.py::TestSpanCensus::test_a_node_crash_closes_the_spans_of_the_executors_it_kills",
        ),
    ),
    Mutant(
        "delivery-resumes-before-transfer",
        "a remote hop's grant resumes the sender before it starts the transfer",
        "src/repro/executors/channels.py",
        ((
            "        sender = self.sender\n"
            "        sender.fabric.transfer(\n",
            "        if self.then is not None:\n"
            "            self.then(self)\n"
            "        sender = self.sender\n"
            "        sender.fabric.transfer(\n",
        ), (
            "        else:\n"
            "            then(self)\n",
            "",
        )),
        caught_by=(
            "tests/test_sim_kernel.py::TestDeliveryGrant::test_a_process_waiting_on_a_send_event_waits_in_then",
            "tests/test_sim_kernel.py::TestDeliveryGrant::test_grant_starts_the_transfer_before_the_sender_resumes",
        ),
    ),
    Mutant(
        "hop-recycled-before-put",
        "a remote hop goes back to its sender's pool when its transfer lands,"
        " before its put event is processed",
        "src/repro/executors/channels.py",
        ((
            "        queue = self.queue\n"
            "        items = queue._items\n",
            "        pool = self.pool\n"
            "        if pool is not None:\n"
            "            pool.append(self)\n"
            "        queue = self.queue\n"
            "        items = queue._items\n",
        ), (
            "        pool = self.pool\n"
            "        if pool is not None:\n"
            "            self.item = None\n"
            "            pool.append(self)\n",
            "",
        )),
        caught_by=(
            "tests/test_differential.py::test_identical_streams_end_in_identical_state",
            "tests/test_differential.py::test_some_run_moved_shards",
            "tests/test_differential.py::test_state_counts_every_emitted_tuple_once[elasticutor-cloud]",
        ),
    ),
    Mutant(
        "withdrawn-hop-recycled",
        "a withdrawn remote hop goes back to its sender's pool",
        "src/repro/executors/channels.py",
        ((
            "        if not window.cancel(self):\n"
            "            window.release()\n"
            "        return self.item\n",
            "        if not window.cancel(self):\n"
            "            window.release()\n"
            "        if self.pool is not None:\n"
            "            self.pool.append(self)\n"
            "        return self.item\n",
        ),),
        caught_by=(
            "tests/test_executor_parts.py::TestDeliveryPool::test_withdrawn_hop_is_never_handed_out_again",
        ),
    ),
    Mutant(
        "fanout-runs-first-only",
        "an event with several waiters resumes only the first",
        "src/repro/sim/events.py",
        ((
            "        for callback in self:\n"
            "            callback(event)\n",
            "        for callback in self:\n"
            "            callback(event)\n"
            "            break\n",
        ),),
        caught_by=(
            "tests/test_differential.py::test_identical_streams_end_in_identical_state",
            "tests/test_differential.py::test_some_run_moved_shards",
            "tests/test_differential.py::test_state_counts_every_emitted_tuple_once[elasticutor-cloud]",
        ),
    ),
)


# -- running -----------------------------------------------------------------


def _env(tree: pathlib.Path) -> typing.Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def _pytest(tree: pathlib.Path, *args: str) -> typing.Tuple[bool, typing.List[str]]:
    """(failed, failing test ids) of one pytest run; a timeout counts as
    a failure."""
    argv = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *args,
    ]
    try:
        proc = subprocess.run(
            argv, cwd=tree, env=_env(tree), capture_output=True,
            text=True, timeout=RUN_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return True, ["TIMEOUT"]
    failures = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode != 0, sorted(set(failures))


def score(tree: pathlib.Path, mutant: Mutant, catchers: bool) -> typing.Optional[str]:
    """Why ``mutant`` escapes, or None when it is caught: by tier-1, or
    with ``catchers`` by every one of its recorded catchers."""
    if catchers:
        _, failures = _pytest(tree, *mutant.caught_by)
        passed = sorted(set(mutant.caught_by) - set(failures))
        return f"catchers pass: {', '.join(passed)}" if passed else None
    failed, failures = _pytest(tree, *TIER1)
    if not failed:
        return "tier-1 passes"
    print(f"{mutant.name}: tier-1 failures: {len(failures)}", file=sys.stderr)
    for failure in failures[:5]:
        print(f"{mutant.name}: {failure}", file=sys.stderr)
    return None


def _copy_tree(dst: pathlib.Path) -> None:
    shutil.copytree(
        ROOT, dst,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info",
        ),
    )


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--catchers", action="store_true",
                        help="run only each mutant's recorded caught_by tests")
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = sorted(set(args.names) - set(known))
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    escaped = 0
    with tempfile.TemporaryDirectory(prefix="repro-mutants-") as scratch:
        tree = pathlib.Path(scratch) / "tree"
        _copy_tree(tree)
        print("| mutant | caught |")
        print("|---|---|")
        for mutant in chosen:
            target = tree / mutant.path
            original = target.read_text()
            try:
                target.write_text(mutant.apply(original))
            except ValueError as exc:
                print(f"| {mutant.name} | patch does not apply: {exc} |")
                escaped += 1
                continue
            try:
                escape = score(tree, mutant, args.catchers)
            finally:
                target.write_text(original)
                # A failing example hypothesis saved must not replay
                # against the next mutant.
                shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
            escaped += escape is not None
            print(f"| {mutant.name} | {'yes' if escape is None else f'**no: {escape}**'} |",
                  flush=True)
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
