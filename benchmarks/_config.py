"""Shared configuration and helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's
evaluation (see DESIGN.md section 4 for the experiment index).  The
paper's testbed is 32 nodes x 8 cores; the default ``quick`` scale runs
the same experiments on 8 nodes x 4 cores with proportionally scaled
rates so that the whole suite finishes in minutes.  Set
``REPRO_BENCH_SCALE=paper`` for the full-size cluster (much slower).

Measured absolute numbers differ from the paper's (different hardware,
simulated substrate); the *shapes* — who wins, by what factor, where
crossovers fall — are what the assertions check and EXPERIMENTS.md
records.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import typing

from repro import Paradigm
from repro.sweep import TrialConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")


@dataclasses.dataclass(frozen=True)
class BenchScale:
    """Cluster and workload scale for the suite."""

    num_nodes: int
    cores_per_node: int
    source_instances: int
    executors_per_operator: int
    shards_per_executor: int
    num_keys: int
    skew: float
    #: Offered load for the comparison benches, ~60-65% of worker cores
    #: so a well-balanced system runs with headroom while an imbalanced
    #: one saturates its hottest executor.
    rate: float
    #: Offered load above cluster capacity — used by the throughput
    #: experiments, which measure maximum sustained admission.
    saturation_rate: float
    #: Offered load between the imbalanced paradigms' effective capacity
    #: and Elasticutor's — used by the latency experiments: a paradigm
    #: that keeps up shows queueing-level latency, one that cannot
    #: accumulates backlog and its arrival-time latency explodes.
    latency_rate: float
    duration: float
    warmup: float

    @property
    def worker_cores(self) -> int:
        return self.num_nodes * self.cores_per_node - self.source_instances


QUICK = BenchScale(
    num_nodes=8,
    cores_per_node=4,
    source_instances=4,
    executors_per_operator=8,
    shards_per_executor=32,
    num_keys=10_000,
    skew=0.8,
    rate=17_000.0,
    saturation_rate=36_000.0,
    latency_rate=15_000.0,
    duration=60.0,
    warmup=25.0,
)

PAPER = BenchScale(
    num_nodes=32,
    cores_per_node=8,
    source_instances=16,
    executors_per_operator=32,
    shards_per_executor=256,
    num_keys=10_000,
    skew=0.8,
    rate=150_000.0,
    saturation_rate=320_000.0,
    latency_rate=135_000.0,
    duration=120.0,
    warmup=40.0,
)

SCALES = {"quick": QUICK, "paper": PAPER}
CURRENT: BenchScale = SCALES[SCALE]


def bench_workers() -> int:
    """Worker processes for sweep-based benchmarks.

    ``REPRO_BENCH_WORKERS`` overrides; the default uses the machine's
    cores (capped at 8 — beyond that, coordination noise outweighs the
    win for these grid sizes).  1 means serial in-process.
    """
    env = os.environ.get("REPRO_BENCH_WORKERS")
    if env:
        return max(1, int(env))
    return max(1, min(os.cpu_count() or 1, 8))


def micro_trial(
    paradigm: Paradigm,
    rate: typing.Optional[float] = None,
    omega: float = 2.0,
    scale: BenchScale = CURRENT,
    seed: int = 42,
    duration: typing.Optional[float] = None,
    warmup: typing.Optional[float] = None,
    system_args: typing.Optional[typing.Mapping[str, typing.Any]] = None,
    **overrides: typing.Any,
) -> TrialConfig:
    """A micro-benchmark trial at the suite's scale.

    ``overrides`` replace the scale's ``TrialConfig`` fields (y, z, key
    population, skew, tuple size, batch size); any other keyword is a
    workload constructor argument.  Run it with
    ``repro.sweep.run_trial`` or as one cell of a sweep.
    """
    return TrialConfig(
        workload="micro",
        paradigm=paradigm.value,
        rate=rate if rate is not None else scale.rate,
        omega=omega,
        seed=seed,
        duration=duration if duration is not None else scale.duration,
        warmup=warmup if warmup is not None else scale.warmup,
        num_nodes=scale.num_nodes,
        cores_per_node=scale.cores_per_node,
        source_instances=scale.source_instances,
        executors_per_operator=overrides.pop(
            "executors_per_operator", scale.executors_per_operator
        ),
        shards_per_executor=overrides.pop(
            "shards_per_executor", scale.shards_per_executor
        ),
        num_keys=overrides.pop("num_keys", scale.num_keys),
        skew=overrides.pop("skew", scale.skew),
        tuple_bytes=overrides.pop("tuple_bytes", 128),
        batch_size=overrides.pop("batch_size", 20),
        workload_args=overrides,
        system_args=system_args or {},
    )


def run_bench_sweep(name: str, spec) -> typing.Dict[str, typing.Any]:
    """Run one benchmark's sweep; returns ``{trial_id: TrialRecord}``.

    The cache and the consolidated artifacts live under
    ``benchmarks/results/sweeps/<name>/`` — re-running an unchanged
    benchmark is a pure cache replay, and an interrupted grid resumes.
    A trial that failed or timed out aborts the benchmark with its
    structured error (a benchmark cannot assert shapes on holes).
    """
    from repro.sweep import SweepRunner

    out_dir = RESULTS_DIR / "sweeps" / name
    runner = SweepRunner(
        spec,
        workers=min(bench_workers(), len(spec)),
        cache_dir=out_dir / "cache",
        retries=1,
    )
    result = runner.run()
    result.write(out_dir)
    if result.failures:
        details = "; ".join(
            f"{r.trial_id}: {r.status} {(r.error or {}).get('message', '')}"
            for r in result.failures
        )
        raise RuntimeError(f"sweep {name!r} had failing trials: {details}")
    return result.by_id()


def emit(name: str, text: str, capsys=None) -> None:
    """Print a result table through pytest's capture and persist it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if capsys is not None:
        with capsys.disabled():
            print()
            print(text)
    else:
        print(text)
