"""Declarative, parallel, resumable experiment sweeps (docs/sweeps.md).

Every figure and table of the paper's evaluation is a *sweep* — a grid
over paradigm × ω × seed × cluster size.  This package runs such grids
across CPU cores with crash isolation, per-trial wall-clock timeouts,
bounded retries and an on-disk result cache keyed by
``(trial_id, code_fingerprint)``, so interrupted sweeps resume and
unchanged cells are never recomputed.

    from repro.sweep import SweepRunner, SweepSpec

    spec = SweepSpec.grid(
        "demo",
        base={"workload": "micro", "rate": 3000, "duration": 8, "warmup": 3},
        axes={"paradigm": ["static", "elasticutor"], "omega": [0, 16]},
    )
    result = SweepRunner(spec, workers=4, cache_dir="sweep-cache").run()
    result.write("sweep-out")  # results.jsonl + summary.json
"""

from repro.sweep.cache import ResultCache, code_fingerprint
from repro.sweep.runner import (
    SweepResult,
    SweepRunner,
    TrialFailure,
    TrialRecord,
    TrialTimeout,
)
from repro.sweep.spec import SweepSpec, TrialConfig
from repro.sweep.trial import build_system, execute_trial, run_trial

__all__ = [
    "ResultCache",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "TrialConfig",
    "TrialFailure",
    "TrialRecord",
    "TrialTimeout",
    "build_system",
    "code_fingerprint",
    "execute_trial",
    "run_trial",
]
