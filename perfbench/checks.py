"""Correctness checks applied to every benchmark run.

A run is correct when its token ledger is conserved, its MDR and
delivery count are in the workload's range, its audit replay (if any)
is clean, and, for a seed with a committed digest in ``digests.json``,
its digest equals the committed one bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.workloads import Workload

#: Committed digests: ``{workload: {seed: digest}}``.
DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Absolute tolerance of the conservation check (the repo's own tests use it).
CONSERVATION_TOLERANCE = 1e-6


def digest_of(result, events: int) -> Dict[str, object]:
    """What a run must reproduce exactly: MDR, deliveries, events fired."""
    return {
        "mdr": result.mdr,
        "delivered": result.metrics.delivered_pairs(),
        "events": events,
    }


def load_digests(path: Path = DIGESTS_PATH) -> Dict[str, Dict[str, dict]]:
    """The committed digests (empty when the file is absent)."""
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_run(
    workload: Workload,
    seed: int,
    result,
    digest: Dict[str, object],
    *,
    audit=None,
    pinned: Optional[Dict[str, Dict[str, dict]]] = None,
) -> List[str]:
    """Every problem found with one run's outputs (empty when correct)."""
    problems: List[str] = []
    ledger = result.router.ledger
    # total_supply() is every balance plus the escrow still held.
    supply = ledger.total_supply()
    if not math.isclose(
        supply, ledger.total_endowment(), rel_tol=0.0,
        abs_tol=CONSERVATION_TOLERANCE,
    ):
        problems.append(
            f"ledger not conserved: balances + escrow = {supply!r}, "
            f"endowment = {ledger.total_endowment()!r}"
        )
    if ledger.escrowed_total() != 0.0:
        problems.append(
            f"escrow {ledger.escrowed_total()!r} stranded after finalize"
        )
    low, high = workload.mdr_range
    if not low <= digest["mdr"] <= high:
        problems.append(f"MDR {digest['mdr']!r} outside [{low}, {high}]")
    if digest["delivered"] <= 0:
        problems.append("no deliveries")
    if workload.audit:
        if audit is None:
            problems.append("audit replay missing")
        elif not audit.ok:
            problems.append(
                f"audit replay found {len(audit.violations)} violations"
            )
    expected = (pinned or {}).get(workload.name, {}).get(str(seed))
    if expected is not None and expected != digest:
        problems.append(f"digest {digest} != committed {expected}")
    return problems
