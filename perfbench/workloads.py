"""The benchmark's workloads: one :class:`ScenarioConfig` per name.

The seed is not part of the config; it is the ``seed`` argument of
``run_scenario``, so the program receives only the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.experiments.bench_scale import scale_config
from repro.experiments.config import ScenarioConfig
from repro.faults import FaultConfig

#: Every workload runs the paper's scheme: ChitChat + credit/DRM incentive.
SCHEME = "incentive"

#: Simulated seconds of the scale-10k warm-up window.
SCALE_WINDOW = 300.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: The ``--workload`` name.
        why: One line on what this workload stresses.
        build: Returns the scenario (seed-independent).
        repeat_seconds: Host seconds of one full repeat on a 2-vCPU
            reference host; sizes the repeat count from ``--seconds``.
        mdr_range: Inclusive MDR range every seed must land in.
        audit: Write a JSONL event trace and replay it through
            ``repro.trace.audit.replay_trace`` as part of the run.
    """

    name: str
    why: str
    build: Callable[[], ScenarioConfig]
    repeat_seconds: float
    mdr_range: Tuple[float, float]
    audit: bool = False


def paper_500() -> ScenarioConfig:
    """Table 5.1 (500 nodes, 5 km², Random Waypoint) for one hour."""
    return ScenarioConfig.paper_scale(
        duration=3_600.0, ttl=3_600.0, detect_workers=1
    )


def scale_10k() -> ScenarioConfig:
    """10,000 nodes at the paper's density over a short warm-up window."""
    return scale_config(10_000, SCALE_WINDOW, detect_workers=1)


def churn_trace() -> ScenarioConfig:
    """paper-500 physics with lossy links, wipe churn and retransmission."""
    return ScenarioConfig.paper_scale(
        duration=3_600.0,
        ttl=3_600.0,
        detect_workers=1,
        faults=FaultConfig(
            loss_probability=0.1,
            mean_uptime=1_800.0,
            mean_downtime=300.0,
            churn_policy="wipe",
        ),
        max_retransmissions=2,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-500",
            "the paper's scenario in steady state: message-heavy, "
            "dominated by batch decay/preselect, incentive receipt and gossip",
            paper_500,
            repeat_seconds=10.0,
            mdr_range=(0.6, 0.85),
        ),
        Workload(
            "scale-10k",
            "contact-heavy and message-light: contact admission, sequential "
            "decay and set-up (interest sampling, detection, trace loading)",
            scale_10k,
            repeat_seconds=8.0,
            mdr_range=(0.0001, 0.05),
        ),
        Workload(
            "churn-trace",
            "fault paths (abort, refund, retransmit, churn wipe) plus JSONL "
            "trace emission and its audit replay",
            churn_trace,
            repeat_seconds=19.0,
            mdr_range=(0.5, 0.85),
            audit=True,
        ),
    )
}
