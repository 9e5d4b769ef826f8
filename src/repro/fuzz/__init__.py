"""``repro.fuzz``: crash-consistency fuzzing campaigns.

The package turns the existing primitives — :mod:`repro.sim.crash`
attacks, :func:`repro.sim.validate.audit_machine`, workload trace
capture — into a campaign engine: sample (workload, scheme, seed)
cases, run each to a random crash point, optionally tamper with the
NVM, recover, and differentially judge the outcome against invariant
audits, a golden shadow copy, and the scheme's detection contract.
Campaigns fan out over a spawn-based process pool, stream failures to
a JSONL corpus, and auto-minimize them to replayable ``.trace.gz``
artifacts. The ``star-fuzz`` CLI (:mod:`repro.fuzz.cli`) fronts it.
"""

from repro.fuzz.attacks import ATTACK_MATRIX, eligible_attacks, make_attack
from repro.fuzz.corpus import (
    CorpusFormatError,
    CorpusWriter,
    load_failures,
    load_summary,
    read_corpus,
)
from repro.fuzz.executor import (
    DEFECTS,
    CampaignResult,
    CaseResult,
    campaign_config,
    run_campaign,
    run_case,
)
from repro.fuzz.minimize import (
    MinimizationResult,
    load_artifact,
    minimize_failure,
    replay_artifact,
    write_artifacts,
)
from repro.fuzz.oracle import Verdict, judge
from repro.fuzz.sampling import CampaignSpec, FuzzCase, sample_cases

__all__ = [
    "ATTACK_MATRIX",
    "CampaignResult",
    "CampaignSpec",
    "CaseResult",
    "CorpusFormatError",
    "CorpusWriter",
    "DEFECTS",
    "FuzzCase",
    "MinimizationResult",
    "Verdict",
    "campaign_config",
    "eligible_attacks",
    "judge",
    "load_artifact",
    "load_failures",
    "load_summary",
    "make_attack",
    "minimize_failure",
    "read_corpus",
    "replay_artifact",
    "run_campaign",
    "run_case",
    "sample_cases",
    "write_artifacts",
]
