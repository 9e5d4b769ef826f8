"""Campaign scheduling: deterministic case sampling.

A campaign is a seeded grid of :class:`FuzzCase` tuples. Every random
choice — workload, scheme, workload seed, operation count, crash point,
attack and attack targets — derives from ``Random("fuzz:<campaign
seed>:<case index>")``, whose string seeding is SHA-512 based and hence
byte-stable across processes and platforms. That is the replayability
contract: any case that fails in a parallel worker reproduces
single-process from its serialized spec alone.

Crash and snapshot points are stored as *fractions* of the trace rather
than op indices, so the same case spec remains meaningful when the
minimizer shrinks the op list underneath it.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.config import require_int
from repro.errors import ConfigError
from repro.fuzz.attacks import eligible_attacks
from repro.schemes import SIT_SCHEMES
from repro.workloads.registry import WORKLOAD_CLASSES


@dataclass(frozen=True)
class FuzzCase:
    """One fully-determined crash-consistency scenario."""

    index: int
    workload: str
    scheme: str
    seed: int
    operations: int
    crash_frac: float
    prepare_frac: float
    attack: Optional[str] = None
    attack_seed: int = 0

    @property
    def case_id(self) -> str:
        return "c%06d-%s-%s" % (self.index, self.scheme, self.workload)

    def crash_index(self, trace_length: int) -> int:
        """The op index after which power fails (1..trace_length)."""
        if trace_length < 1:
            return 0
        return min(trace_length, max(1, round(self.crash_frac
                                              * trace_length)))

    def prepare_index(self, crash_at: int) -> int:
        """The op index where replay attacks take their snapshots."""
        return min(crash_at, int(self.prepare_frac * crash_at))

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "FuzzCase":
        return cls(**{key: payload[key]
                      for key in cls.__dataclass_fields__
                      if key in payload})


@dataclass(frozen=True)
class CampaignSpec:
    """The sampling grid of one fuzzing campaign."""

    cases: int = 32
    seed: int = 0
    schemes: List[str] = field(
        default_factory=lambda: sorted(SIT_SCHEMES)
    )
    workloads: List[str] = field(
        default_factory=lambda: ["array", "hash", "queue"]
    )
    min_operations: int = 40
    max_operations: int = 160
    attack_rate: float = 0.5
    """Probability that a case injects an attack, when its scheme has
    any eligible attack (see :data:`repro.fuzz.attacks.ATTACK_MATRIX`)."""
    defect: Optional[str] = None
    """Test-only fault injection, by :data:`repro.fuzz.executor.DEFECTS`
    name — used to prove the oracle stack catches detection bugs."""

    def validate(self) -> None:
        for name in ("cases", "seed", "min_operations", "max_operations"):
            require_int(name, getattr(self, name))
        if self.cases < 1:
            raise ConfigError("campaign needs at least one case")
        if not self.schemes:
            raise ConfigError("campaign needs at least one scheme")
        if not self.workloads:
            raise ConfigError("campaign needs at least one workload")
        for scheme in self.schemes:
            if scheme not in SIT_SCHEMES:
                raise ConfigError("unknown scheme %r" % scheme)
        for workload in self.workloads:
            if workload not in WORKLOAD_CLASSES:
                raise ConfigError("unknown workload %r" % workload)
        if not 1 <= self.min_operations <= self.max_operations:
            raise ConfigError("bad operation-count range")
        rate = self.attack_rate
        if (isinstance(rate, bool) or not isinstance(rate, (int, float))
                or not 0.0 <= rate <= 1.0):
            raise ConfigError("attack rate must be within [0, 1]")
        if self.defect is not None:
            from repro.fuzz.executor import DEFECTS

            if self.defect not in DEFECTS:
                raise ConfigError(
                    "unknown defect %r (choose from %s)"
                    % (self.defect, ", ".join(sorted(DEFECTS)))
                )

    def to_dict(self) -> Dict:
        return asdict(self)


def case_rng(campaign_seed: int, index: int) -> random.Random:
    """The per-case RNG stream (stable across processes)."""
    return random.Random("fuzz:%d:%d" % (campaign_seed, index))


def sample_cases(spec: CampaignSpec) -> List[FuzzCase]:
    """Materialize the campaign's deterministic case list."""
    spec.validate()
    cases: List[FuzzCase] = []
    for index in range(spec.cases):
        rng = case_rng(spec.seed, index)
        scheme = rng.choice(sorted(spec.schemes))
        workload = rng.choice(sorted(spec.workloads))
        seed = rng.randrange(2 ** 31)
        operations = rng.randint(spec.min_operations,
                                 spec.max_operations)
        crash_frac = rng.random()
        prepare_frac = rng.random()
        attack = None
        attack_seed = rng.randrange(2 ** 31)
        repertoire = eligible_attacks(scheme)
        if repertoire and rng.random() < spec.attack_rate:
            attack = rng.choice(repertoire)
        cases.append(FuzzCase(
            index=index, workload=workload, scheme=scheme, seed=seed,
            operations=operations, crash_frac=crash_frac,
            prepare_frac=prepare_frac, attack=attack,
            attack_seed=attack_seed,
        ))
    return cases
