"""System runtime: wire a topology, a cluster, and a paradigm together.

:class:`StreamSystem` is the top-level entry point of the library::

    from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig

    workload = MicroBenchmarkWorkload(rate=20_000, omega=2)
    topology = workload.build_topology(executors_per_operator=8)
    system = StreamSystem(topology, workload, SystemConfig(paradigm=Paradigm.ELASTICUTOR))
    result = system.run(duration=30.0)
    print(result.summary())
"""

from repro.runtime.config import Paradigm, SystemConfig
from repro.runtime.system import PlacementError, StreamSystem, SystemResult

__all__ = ["Paradigm", "PlacementError", "StreamSystem", "SystemConfig", "SystemResult"]
