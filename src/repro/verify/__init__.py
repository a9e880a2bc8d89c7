"""Differential verification: seeded scenario fuzzing + cross-implementation oracles.

The paper's claims rest on independent implementations agreeing with each
other — the ILP partitioner never beaten by the list scheduler, the analytic
timing models matching the event simulator, warm cache-served flows
bit-identical to cold ones.  This package turns those invariants into a
generative test harness:

* :mod:`repro.verify.scenarios` — seeded, reproducible scenario generation
  (five small DAG families plus the opt-in ``huge`` scale family, skewed
  cost distributions, tight/loose budgets);
* :mod:`repro.verify.oracles` — the cross-implementation oracle library;
* :mod:`repro.verify.harness` — the :class:`Verifier` fanning scenarios
  through the flow engine, shrinking failures, and producing a report;
* :mod:`repro.verify.store` — the JSONL verdict store (byte-deterministic
  for a given seed);
* :mod:`repro.verify.catalog` — ``verify_<family>`` workload registrations.

Quickstart::

    from repro.verify import Verifier, VerifyConfig

    report = Verifier(VerifyConfig(scenarios=50, seed=0)).run()
    assert report.ok, report.describe()
"""

from .harness import ScenarioVerdict, Verifier, VerifyConfig, VerifyReport
from .oracles import (
    FeasibilityOracle,
    IlpNotWorseOracle,
    KPathsOracle,
    MemoryLegalityOracle,
    Oracle,
    OracleVerdict,
    PartitionValidityOracle,
    ScenarioArtifacts,
    TimingModelOracle,
    WarmColdOracle,
    default_oracles,
    design_fingerprint,
)
from .scenarios import (
    ALL_FAMILIES,
    FAMILIES,
    HUGE_FAMILY,
    Scenario,
    build_family_graph,
    generate_scenario,
    generate_scenarios,
)
from .store import VerdictStore, read_verdicts

__all__ = [
    "ALL_FAMILIES",
    "FAMILIES",
    "FeasibilityOracle",
    "HUGE_FAMILY",
    "IlpNotWorseOracle",
    "KPathsOracle",
    "MemoryLegalityOracle",
    "Oracle",
    "OracleVerdict",
    "PartitionValidityOracle",
    "Scenario",
    "ScenarioArtifacts",
    "ScenarioVerdict",
    "TimingModelOracle",
    "VerdictStore",
    "Verifier",
    "VerifyConfig",
    "VerifyReport",
    "WarmColdOracle",
    "build_family_graph",
    "default_oracles",
    "design_fingerprint",
    "generate_scenario",
    "generate_scenarios",
    "read_verdicts",
]
