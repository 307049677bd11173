"""Unified experiment-execution layer (docs/EXECUTION.md).

The paper's methodology claim — "design space exploration can be done
easily by changing the parameters given to the framework" — is served
here as three pieces:

* **Job specs** (:mod:`repro.exec.spec`): a frozen, hashable
  :class:`JobSpec` naming everything that determines a simulation's
  outcome, with a canonical JSON form and a stable content digest.
* **Parallel runner** (:mod:`repro.exec.runner`): :class:`JobRunner`
  executes batches of specs serially (the default) or across worker
  processes, bit-identically, with per-job timeouts, structured
  failure capture, and progress reporting.
* **Result cache** (:mod:`repro.exec.cache`): a content-addressed
  on-disk store of :class:`RunRecord` outcomes keyed by spec digest and
  a code-version salt, so overlapping sweeps reuse points and
  interrupted campaigns resume for free.

Campaigns on a fallible host get a fourth piece — **robustness**
(:mod:`repro.exec.robust`, :mod:`repro.exec.chaos`): a
:class:`RetryPolicy` re-runs transient failures with deterministic
backoff, the cache self-heals corrupt entries into quarantine, a
:class:`CampaignManifest` checkpoints completed jobs so ``--resume``
survives a SIGKILL, and a seeded :class:`ChaosPlan` injects host
faults to prove all of it under test.

Every experiment producer in the repo (``repro.harness.*``,
``repro.resil.campaign``) emits spec lists and consumes records through
this layer; ``repro <experiment> --jobs N --cache-dir PATH`` exposes it
on the command line.
"""

from repro.exec.cache import (
    DEFAULT_CACHE_DIR,
    CorruptEntryError,
    ResultCache,
    code_salt,
    default_cache_dir,
)
from repro.exec.chaos import ChaosError, ChaosPlan
from repro.exec.engines import (
    QUICK_PARAMS,
    VerificationError,
    bench_params,
    simulate,
)
from repro.exec.record import (
    FAILURE_KINDS,
    JobFailedError,
    JobFailure,
    RunRecord,
    check_outcomes,
    record_checksum,
)
from repro.exec.robust import (
    CampaignManifest,
    RetryPolicy,
    campaign_id,
    default_manifest_dir,
    unit_roll,
)
from repro.exec.runner import (
    JobRunner,
    RunnerStats,
    StderrProgress,
    default_jobs,
)
from repro.exec.spec import ENGINES, JobSpec, make_spec

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ENGINES",
    "FAILURE_KINDS",
    "CampaignManifest",
    "ChaosError",
    "ChaosPlan",
    "CorruptEntryError",
    "JobFailedError",
    "JobFailure",
    "JobRunner",
    "JobSpec",
    "QUICK_PARAMS",
    "ResultCache",
    "RetryPolicy",
    "RunRecord",
    "RunnerStats",
    "StderrProgress",
    "VerificationError",
    "bench_params",
    "campaign_id",
    "check_outcomes",
    "code_salt",
    "default_cache_dir",
    "default_jobs",
    "default_manifest_dir",
    "make_spec",
    "record_checksum",
    "simulate",
    "unit_roll",
]
