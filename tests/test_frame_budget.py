"""A budget of interpreter frames per processed batch on the data path.

Every paper artifact is bound by the per-batch path (receiver, task,
emitter and the kernel events between them), where a one-line forwarding
method costs a Python frame per batch.  This test counts the frames a
short run of the perfbench ``steady`` geometry enters in ``repro`` code,
so a forwarder put back on that path fails here instead of only in a
timing.  The kernel event count is pinned beside it: the frame cut must
not buy its saving by changing what the simulation does.
"""

import gc
import os
import sys

import repro
from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig

REPRO_DIR = os.path.dirname(repro.__file__) + os.sep

#: Kernel events of the 20 s run below.
EVENTS = 66_697

#: ``repro`` frames per processed batch: 24.46 when measured.  A batch
#: cost 26.44 while each remote hop was built afresh: the group path
#: entered ``WindowedSender.send``, every hop ``_Delivery.__init__`` and
#: ``Resource.arm_request`` for its grant, and ``Store.arm_put`` under
#: ``_Delivery._on_transfer`` (one ``WindowedSender.send_remote`` frame
#: replaced them).  It cost 40.74 while the path still forwarded through
#: one-line methods (``Environment.push_at`` under ``arm_at`` and the
#: fabric's transfer, ``Cluster.speed``, ``ProcessStateStore.get``,
#: ``StateAccess.get`` and ``put``, ``ExecutorMetrics.on_processed``,
#: ``EWMA.update``, ``PairedWindowedRate.record``,
#: ``TimeSeries.add_to_last``, the task's sink-side ``_finish``, the
#: source loop's ``_emit`` and ``_next_group``).  Python 3.12 inlines
#: comprehensions, which only lowers the count.
FRAMES_PER_BATCH = 24.46


def steady_system():
    """perfbench's ``steady`` geometry: 1,000 keys, zipf 0.8, ω=2,
    9,000 t/s on 4 nodes, 2 sources, 4 executors × 16 shards."""
    workload = MicroBenchmarkWorkload(
        rate=9000.0, num_keys=1000, skew=0.8, omega=2.0, batch_size=20, seed=7
    )
    topology = workload.build_topology(executors_per_operator=4, shards_per_executor=16)
    return StreamSystem(topology, workload, SystemConfig(
        paradigm=Paradigm.ELASTICUTOR, num_nodes=4, cores_per_node=4,
        source_instances=2,
    ))


def test_frames_per_processed_batch_stay_in_budget():
    system = steady_system()
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(REPRO_DIR):
            calls += 1

    # Earlier tests leave suspended generators in garbage cycles; a
    # collection inside the run would close them there and count their
    # frames.  Collect first and keep the collector off while counting.
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        system.run(duration=20.0, warmup=10.0)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    batches = sum(
        executor.metrics.processed_batches.total
        for executors in system.executors_by_operator.values()
        for executor in executors
    )
    assert system.env.events_processed == EVENTS
    assert calls / batches <= FRAMES_PER_BATCH, f"{calls} frames for {batches} batches"
