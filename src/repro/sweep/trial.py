"""The one path from an experiment description to a running system.

:func:`build_system` maps a :class:`TrialConfig` onto a workload,
topology and :class:`StreamSystem`; :func:`run_trial` builds, runs and
exports.  The CLI, the sweep runner and the benchmarks all build here.
``execute_trial``, the default trial function of
:class:`repro.sweep.SweepRunner`, is its dict-in/dict-out form: pure in
its parameters and picklable for process-pool workers, so results are
byte-identical between serial and parallel execution.
"""

from __future__ import annotations

import typing

from repro.runtime import Paradigm, StreamSystem, SystemConfig, SystemResult
from repro.sweep.spec import TrialConfig
from repro.workloads import MicroBenchmarkWorkload, SSEWorkload

#: Runner-injected key carrying the per-trial telemetry export directory.
#: Not part of the trial's identity (it is injected after hashing).
TELEMETRY_KEY = "telemetry_out"

#: Reserved key in a trial function's return dict: the runner moves its
#: value to ``TrialRecord.timing``, keeping wall-clock measurements (which
#: differ run to run and machine to machine) out of the deterministic
#: ``results.jsonl`` rows.
TIMING_KEY = "_timing"


def build_system(trial: TrialConfig, telemetry: bool = False) -> StreamSystem:
    """The system ``trial`` describes, built but not run.  A fault-spec
    string is loaded here; a description that cannot be built raises
    ``ValueError`` (e.g. ``PlacementError``, ``FaultSpecError``)."""
    system_args = dict(trial.system_args)
    fault_spec = system_args.pop("fault_spec", None)
    if isinstance(fault_spec, str):
        from repro.faults import FaultSpec

        fault_spec = FaultSpec.load(fault_spec)
    if trial.workload == "micro":
        workload: typing.Any = MicroBenchmarkWorkload(
            rate=trial.rate,
            num_keys=trial.num_keys,
            skew=trial.skew,
            cost_per_tuple=trial.cost_ms / 1000.0,
            tuple_bytes=trial.tuple_bytes,
            omega=trial.omega,
            batch_size=trial.batch_size,
            seed=trial.seed,
            **trial.workload_args,
        )
    else:  # "sse" — omega and tuple_bytes do not apply
        workload = SSEWorkload(
            rate=trial.rate,
            num_stocks=trial.num_keys,
            popularity_skew=trial.skew,
            order_cost=trial.cost_ms / 1000.0,
            batch_size=trial.batch_size,
            seed=trial.seed,
            **trial.workload_args,
        )
    topology = workload.build_topology(
        executors_per_operator=trial.executors_per_operator,
        shards_per_executor=trial.shards_per_executor,
        **trial.topology_args,
    )
    system_config = SystemConfig(
        paradigm=Paradigm(trial.paradigm),
        num_nodes=trial.num_nodes,
        cores_per_node=trial.cores_per_node,
        source_instances=trial.source_instances,
        fault_spec=fault_spec,
        telemetry=telemetry,
        **system_args,
    )
    return StreamSystem(topology, workload, system_config)


def export_trial(
    out_dir: str, trial: TrialConfig, system: StreamSystem, result: SystemResult
) -> None:
    """Write a telemetry-enabled run's artifact to ``out_dir``."""
    from repro.telemetry.exporters import export_run

    meta = {"trial_id": trial.trial_id, "paradigm": trial.paradigm,
            "params": trial.to_dict()}
    export_run(out_dir, system.telemetry, summary=result.to_dict(), meta=meta)


def run_trial(
    trial: TrialConfig, telemetry_out: typing.Optional[str] = None
) -> typing.Tuple[SystemResult, StreamSystem]:
    """Build and run ``trial``; with ``telemetry_out``, telemetry is on
    and the run's artifact is exported to that directory."""
    system = build_system(trial, telemetry=bool(telemetry_out))
    result = system.run(duration=trial.duration, warmup=trial.warmup)
    if telemetry_out:
        export_trial(telemetry_out, trial, system, result)
    return result, system


def execute_trial(params: typing.Mapping[str, typing.Any]) -> typing.Dict[str, typing.Any]:
    """Run one trial described by ``TrialConfig.to_dict()`` output."""
    params = dict(params)
    telemetry_out = params.pop(TELEMETRY_KEY, None)
    payload = run_trial(TrialConfig.from_dict(params), telemetry_out)[0].to_dict()
    # Everything in ``SystemResult.to_dict`` is a deterministic function
    # of the trial parameters except the scheduler's real wall-clock cost
    # per round — route that through the timing side channel.
    payload[TIMING_KEY] = {
        "scheduler_mean_wall_seconds": payload.pop("scheduler_mean_wall_seconds")
    }
    return payload
