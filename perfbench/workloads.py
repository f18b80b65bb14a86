"""The benchmark's four workloads: ``perf.harness`` scenarios, extended.

:class:`Workload` is a :class:`perf.harness.Scenario` (the kernel
harness's run description) with the fields the kernel scenarios leave
out: the SSE stream, a network profile, spillable state, and several
paradigms run back to back by one child.  Each workload is one fixed
batch job: open-loop sources at a fixed virtual rate, simulated to a
fixed virtual duration, and timed to completion.  ``perfbench/README.md``
says why each workload is in the set.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys
import typing

REPO = pathlib.Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from perf.harness import Scenario  # noqa: E402

#: Seed the pinned outputs in ``expected.json`` were recorded at.
DEFAULT_SEED = 7

CHURN_FAULTS = (
    "link_degrade@60:node=1,factor=0.25,duration=10;"
    "latency_spike@100:node=2,factor=8,duration=10;"
    "node_crash@140:node=3"
)


@dataclasses.dataclass(frozen=True)
class Workload(Scenario):
    """A scenario the benchmark runs; ``description`` says why."""

    kind: str = "micro"  # "micro" | "sse"
    #: Paradigms one child runs back to back; empty runs ``paradigm`` only.
    paradigms: typing.Tuple[str, ...] = ()
    network_profile: typing.Optional[str] = None
    hot_state_entries: typing.Optional[int] = None
    #: Wall seconds one untraced child takes on the reference machine
    #: (2-vCPU Xeon); a child gets ten times this before it is killed.
    reference_wall_s: float = 6.0

    @property
    def timeout_s(self) -> float:
        return 10.0 * self.reference_wall_s

    def runs(self, seed: int) -> typing.List["Workload"]:
        """One scenario per run of the workload, at ``seed``."""
        return [
            dataclasses.replace(self, paradigm=paradigm, seed=seed)
            for paradigm in self.paradigms or (self.paradigm,)
        ]

    def build(self):
        """A fresh ``StreamSystem`` for this scenario."""
        from repro import (
            MicroBenchmarkWorkload,
            Paradigm,
            SSEWorkload,
            StreamSystem,
            SystemConfig,
        )

        if self.kind == "sse":
            workload: typing.Any = SSEWorkload(
                rate=self.rate,
                num_stocks=self.num_keys,
                batch_size=self.batch_size,
                track_arrivals=False,
                weights_window=16,
                seed=self.seed,
            )
        else:
            workload = MicroBenchmarkWorkload(
                rate=self.rate,
                num_keys=self.num_keys,
                skew=self.skew,
                omega=self.omega,
                batch_size=self.batch_size,
                seed=self.seed,
            )
        topology = workload.build_topology(
            executors_per_operator=self.executors_per_operator,
            shards_per_executor=self.shards_per_executor,
            hot_state_entries=self.hot_state_entries,
        )
        config = SystemConfig(
            paradigm=Paradigm(self.paradigm),
            num_nodes=self.num_nodes,
            cores_per_node=self.cores_per_node,
            source_instances=self.source_instances,
            network_profile=self.network_profile,
            fault_spec=self.fault_spec,
            telemetry=self.telemetry,
        )
        return StreamSystem(topology, workload, config)


WORKLOADS: typing.Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="steady",
            description="sustainable skewed micro load: the data path (executors, "
            "sim kernel, timer wheel, metrics) does the work",
            paradigm="elasticutor",
            rate=9000.0,
            duration=240.0,
            warmup=10.0,
        ),
        Workload(
            name="churn",
            description="omega=8 key shuffles on a jittered wan fabric with telemetry "
            "and faults: reassignment, migration, recovery, observability",
            paradigm="elasticutor",
            rate=6000.0,
            duration=240.0,
            warmup=10.0,
            omega=8.0,
            network_profile="wan",
            fault_spec=CHURN_FAULTS,
            telemetry=True,
        ),
        Workload(
            name="paradigms",
            description="the fig06 comparison under static, RC, naive-EC and "
            "Elasticutor: the only workload running RC sync and static paths",
            paradigm="elasticutor",
            paradigms=("static", "resource-centric", "naive-ec", "elasticutor"),
            rate=17000.0,
            duration=40.0,
            warmup=10.0,
            omega=8.0,
            num_keys=10_000,
            num_nodes=8,
            source_instances=4,
            executors_per_operator=8,
            shards_per_executor=32,
            reference_wall_s=8.0,
        ),
        Workload(
            name="sse-1m",
            description="SSE order stream over a million stocks on 128 nodes: per-key "
            "tables, workload state and memory dominate",
            kind="sse",
            paradigm="elasticutor",
            rate=12000.0,
            duration=6.0,
            warmup=1.5,
            num_keys=1_000_000,
            num_nodes=128,
            source_instances=4,
            executors_per_operator=32,
            shards_per_executor=32,
            hot_state_entries=1024,
        ),
    )
}
