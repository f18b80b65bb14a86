"""Mutation score: which enforcer catches which of this repo's real bugs.

Each mutant puts one bug back into the tree as a text patch: a bug this
repository shipped and later fixed, or a step-order slip the paper's
consistent reassignment (§3.3) forbids.  The runner applies one mutant at
a time to a scratch copy of the repository and records which enforcers
fire:

- each ``repro lint`` rule, by id;
- ``tier-1``: the test suite, without the lint tests and the patch check
  in ``tests/test_mutants.py``.

:data:`MUTANTS` is the committed score table (``docs/static-analysis.md``
shows it): ``lint`` is what ``repro lint`` reports, ``caught`` what the
other enforcers report.  The runner exits 1 when a measured column
differs from the committed one, or when a patch no longer applies.

Usage (from the repository root)::

    python tests/mutants.py                # every column, ~1.5 min a mutant
    python tests/mutants.py --lint-only    # the lint column, ~3 s a mutant
    python tests/mutants.py route-before-migrate skip-pause

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import typing

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The tier-1 run leaves out what a mutant of ``src/`` cannot reach (the
#: lint tests lint fixtures and the tree, which the lint column covers)
#: and the patch check, which fails on any mutated tree by design.
TIER1 = (
    "tests",
    "--ignore=tests/test_lint.py",
    "--ignore=tests/test_mutants.py",
)

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
    lint: typing.FrozenSet[str] = frozenset()
    caught: typing.FrozenSet[str] = frozenset()

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
        caught=frozenset({"tier-1"}),
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
        caught=frozenset({"tier-1"}),
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
        caught=frozenset({"tier-1"}),
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
        caught=frozenset({"tier-1"}),
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
        caught=frozenset({"tier-1"}),
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
        caught=frozenset({"tier-1"}),
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
        caught=frozenset({"tier-1"}),
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
        caught=frozenset({"tier-1"}),
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
        caught=frozenset({"tier-1"}),
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
                "            sender.src_node, self.dst_node, self.nbytes, self.purpose, self\n"
                "        ).callbacks.append(self._on_transfer)\n",
                "        hop = sender.fabric.transfer(\n"
                "            sender.src_node, self.dst_node, self.nbytes, self.purpose\n"
                "        )\n"
                "        sender.env.process(_deliver(sender, hop, self.queue, self.item))\n",
            ),
        ),
        caught=frozenset({"tier-1"}),
    ),
    Mutant(
        "stall-closed-aborted",
        "an RC recovery that found no capacity finishes its span as aborted",
        "src/repro/executors/rc.py",
        (('span.finish(status="stalled")', 'span.finish(status="aborted")'),),
        caught=frozenset({"tier-1"}),
    ),
    Mutant(
        "recovery-stall-unclosed",
        "a node-crash recovery whose restarts all failed returns without finishing as stalled",
        "src/repro/faults/recovery.py",
        (('                span.finish(status="stalled", restarts=len(restarts))\n', ""),),
        caught=frozenset({"tier-1"}),
    ),
    Mutant(
        "hybrid-split-unsynchronized",
        "the hybrid split moves half the key subspace without a global sync round",
        "src/repro/executors/hybrid.py",
        ((
            "        yield from self.barrier.synchronize(\n"
            "            self._split_move(executor, slots, target_node, reservation),\n"
            "            NULL_SPAN,\n"
            "        )\n",
            "        yield from self._split_move(executor, slots, target_node, reservation)\n",
        ),),
        caught=frozenset({"tier-1"}),
    ),
    Mutant(
        "rc-sync-skips-drain",
        "the global sync round moves state without waiting for in-flight tuples to drain",
        "src/repro/executors/gate.py",
        (("            yield self.in_flight.wait_zero()\n", ""),),
        caught=frozenset({"tier-1"}),
    ),
    Mutant(
        "builtin-hash-placement",
        "external-state placement by the builtin hash of a str (seed-dependent)",
        "src/repro/state/external.py",
        ((
            "stable_hash(shard_id, salt) % len(self.storage_nodes)",
            "hash((owner, shard_id)) % len(self.storage_nodes)",
        ),),
        caught=frozenset({"tier-1"}),
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
        lint=frozenset({"DET001"}),
    ),
    Mutant(
        "str-set-loop",
        "node-crash victims collected in str-set order",
        "src/repro/faults/recovery.py",
        ((
            "        victims = []\n        for op_name in sorted(system.executors_by_operator):\n",
            "        victims = []\n        for op_name in set(system.executors_by_operator):\n",
        ),),
        lint=frozenset({"DET001"}),
    ),
    Mutant(
        "set-algebra-loop",
        "_diff walks a union of node sets unsorted (the pattern of _apply's loop)",
        "src/repro/scheduler/scheduler.py",
        ((
            "            for node in sorted(set(current) | set(target)):\n",
            "            for node in set(current) | set(target):\n",
        ),),
        lint=frozenset({"DET001"}),
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
        caught=frozenset({"tier-1"}),
    ),
    Mutant(
        "timing-in-results",
        "the wall-clock timing field stays in results.jsonl",
        "src/repro/sweep/runner.py",
        (('        del deterministic["timing"]\n', ""),),
        caught=frozenset({"tier-1"}),
    ),
    Mutant(
        "lost-slots",
        "TupleBatch loses __slots__",
        "src/repro/topology/batch.py",
        ((
            '    __slots__ = (\n        "key", "count", "cpu_cost", "size_bytes", "created_at",\n'
            '        "payload", "admitted_at", "trace", "batch_id",\n    )\n',
            "",
        ),),
        lint=frozenset({"HOT001"}),
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
        lint=frozenset({"TEL001"}),
    ),
)


# -- running -----------------------------------------------------------------


@dataclasses.dataclass
class Score:
    lint: typing.FrozenSet[str]
    caught: typing.FrozenSet[str]
    failures: typing.List[str]


def _env(tree: pathlib.Path) -> typing.Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def lint_rules(tree: pathlib.Path) -> typing.FrozenSet[str]:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json", "src/repro"],
        cwd=tree, env=_env(tree), capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        return frozenset({"PARSE"})
    return frozenset(f["rule"] for f in json.loads(proc.stdout))


def _run(tree: pathlib.Path, argv: typing.Sequence[str]) -> typing.Tuple[bool, str]:
    """(failed, output) of one command; a timeout counts as a failure."""
    try:
        proc = subprocess.run(
            argv, cwd=tree, env=_env(tree), capture_output=True,
            text=True, timeout=RUN_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return True, "TIMEOUT " + " ".join(argv)
    return proc.returncode != 0, proc.stdout + proc.stderr


def _pytest(*paths: str) -> typing.List[str]:
    return [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *paths,
    ]


def score(tree: pathlib.Path, lint_only: bool) -> Score:
    lint = lint_rules(tree)
    if lint_only:
        return Score(lint, frozenset(), [])
    tier1_failed, out = _run(tree, _pytest(*TIER1))
    caught = frozenset({"tier-1"}) if tier1_failed else frozenset()
    failures = sorted(set(re.findall(r"^FAILED (\S+)", out, re.MULTILINE)))
    return Score(lint, caught, failures)


def _copy_tree(dst: pathlib.Path) -> None:
    shutil.copytree(
        ROOT, dst,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info",
        ),
    )


def _cell(names: typing.AbstractSet[str]) -> str:
    return ", ".join(sorted(names)) or "—"


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--lint-only", action="store_true",
                        help="score only the repro lint column")
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = sorted(set(args.names) - set(known))
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    mismatches = 0
    with tempfile.TemporaryDirectory(prefix="repro-mutants-") as scratch:
        tree = pathlib.Path(scratch) / "tree"
        _copy_tree(tree)
        if lint_rules(tree):
            print("repro lint is not clean on the unmutated tree", file=sys.stderr)
            return 1
        print("| mutant | lint | caught by |")
        print("|---|---|---|")
        for mutant in chosen:
            target = tree / mutant.path
            original = target.read_text()
            try:
                target.write_text(mutant.apply(original))
            except ValueError as exc:
                print(f"| {mutant.name} | patch does not apply | {exc} |")
                mismatches += 1
                continue
            try:
                got = score(tree, args.lint_only)
            finally:
                target.write_text(original)
                # A failing example hypothesis saved must not replay
                # against the next mutant.
                shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
            expected_caught = frozenset() if args.lint_only else mutant.caught
            ok = got.lint == mutant.lint and got.caught == expected_caught
            mismatches += not ok
            flag = "" if ok else (
                f" **expected lint {_cell(mutant.lint)}"
                + ("" if args.lint_only else f"; caught {_cell(mutant.caught)}")
                + "**"
            )
            caught = "" if args.lint_only else _cell(got.caught)
            print(f"| {mutant.name} | {_cell(got.lint)} | {caught}{flag} |", flush=True)
            if got.failures:
                print(f"{mutant.name}: tier-1 failures: {len(got.failures)}", file=sys.stderr)
            for failure in got.failures[:5]:
                print(f"{mutant.name}: {failure}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
