"""Name-level scenario services: signatures and the workload catalog.

Two consumers:

* the harness cache (:func:`workload_signature`) — folds each resolved
  engine's content digest into cell keys, so a renamed trace file, an
  edited schedule, or a retuned profile can never alias a cached
  result that was computed from different content;
* the CLI (:func:`workload_catalog`) — one structured listing of every
  resolvable workload name (families, thread counts, descriptions)
  plus the dynamic pattern table and the trace syntax, rendered by
  ``loopsim workloads`` as text or ``--json``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import WorkloadError
from repro.scenarios.base import entries_signature
from repro.scenarios.dynamic import DEFAULT_PERIOD, PATTERN_DESCRIPTIONS


def workload_signature(name: str) -> str:
    """Content digest of everything ``name`` resolves to.

    Unresolvable names (unknown base, missing or corrupt trace file —
    which only surfaces once the entry's signature reads it) digest to
    a constant: the key still forms, the cell then fails at execution
    with the real error, and nothing is ever served from a cache entry
    whose content could not be established.
    """
    from repro.workloads.suites import workload_profiles

    try:
        return entries_signature(workload_profiles(name))
    except WorkloadError:
        return "unresolved"


def workload_catalog() -> Dict[str, Any]:
    """The full structured workload listing (JSON-ready)."""
    from repro.workloads.profiles import (
        SCENARIO_PROFILES,
        SMOKE_PROFILES,
        SPEC95_PROFILES,
    )
    from repro.workloads.suites import (
        FP_WORKLOADS,
        INT_WORKLOADS,
        SCENARIO_PAIRS,
        SMT_PAIRS,
    )

    def _first_line(text: str) -> str:
        return text.strip().splitlines()[0] if text.strip() else ""

    workloads: List[Dict[str, Any]] = []
    for name, profile in SPEC95_PROFILES.items():
        if name in INT_WORKLOADS:
            family = "spec95-int"
        elif name in FP_WORKLOADS:
            family = "spec95-fp"
        else:  # pragma: no cover - defensive
            family = "spec95"
        workloads.append({
            "name": name,
            "family": family,
            "threads": 1,
            "description": _first_line(profile.description),
        })
    for name, parts in SMT_PAIRS.items():
        workloads.append({
            "name": name,
            "family": "smt-pair",
            "threads": len(parts),
            "description": " + ".join(parts),
        })
    for name, profile in SCENARIO_PROFILES.items():
        workloads.append({
            "name": name,
            "family": "scenario",
            "threads": 1,
            "description": _first_line(profile.description),
        })
    for name, parts in SCENARIO_PAIRS.items():
        workloads.append({
            "name": name,
            "family": "scenario-smt",
            "threads": len(parts),
            "description": " + ".join(parts),
        })
    for name, profile in SMOKE_PROFILES.items():
        workloads.append({
            "name": name,
            "family": "smoke",
            "threads": 1,
            "description": _first_line(profile.description),
        })
    return {
        "workloads": workloads,
        "patterns": [
            {
                "name": name,
                "description": description,
                "syntax": f"<workload>@{name}[:period]",
                "default_period": DEFAULT_PERIOD,
            }
            for name, description in sorted(PATTERN_DESCRIPTIONS.items())
        ],
        "trace": {
            "syntax": "trace:<path>",
            "description": (
                "replay a captured uop trace (loopsim trace capture "
                "<workload> -o <path>)"
            ),
        },
    }
