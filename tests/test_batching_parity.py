"""Whole-run parity of the SoA core's batched contact hooks.

The SoA world drives a batching router through
``prepare_contact_batch`` / ``contact_end_batch`` (decay planned in
occurrence rounds, preselected offers, grouped gossip, batched growth).
With batching switched off the same world runs every contact through
the per-pair handlers.  Both must write byte-identical JSONL event
traces — a second line of parity evidence that does not depend on the
object core.  The scenario is small but message-heavy, with link loss,
wipe churn and retransmissions, so offers, aborts, refunds and churn
resets all run between the planned decays.
"""

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.faults import FaultConfig
from repro.messages.message import reset_uuid_counter
from repro.routing.chitchat import ChitChatRouter

SCENARIO = ScenarioConfig.tiny(
    n_nodes=60,
    area=(800.0, 800.0),
    duration=3_600.0,
    ttl=3_600.0,
    scan_interval=30.0,
    speed_range=(1.0, 5.0),
    message_interval=10.0,
    # A wide keyword pool and a faster decay leave transient interests
    # unrefreshed long enough to prune mid-tick.
    keyword_pool=200,
    interests_per_node=3,
    chitchat_beta=0.05,
    faults=FaultConfig(
        loss_probability=0.1,
        mean_uptime=900.0,
        mean_downtime=200.0,
        churn_policy="wipe",
    ),
    max_retransmissions=2,
)


def _trace(path, seed):
    reset_uuid_counter()
    run_scenario(SCENARIO, "incentive", seed=seed, trace_path=str(path))
    return path.read_bytes()


@pytest.mark.parametrize("seed", [1, 4])
def test_batched_and_per_pair_traces_identical(tmp_path, monkeypatch, seed):
    batched = _trace(tmp_path / "batched.jsonl", seed)
    monkeypatch.setattr(
        ChitChatRouter, "supports_contact_batching",
        property(lambda self: False),
    )
    per_pair = _trace(tmp_path / "per_pair.jsonl", seed)
    assert batched.count(b"\n") > 1_000
    assert batched == per_pair
