"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.trace_cache import set_default_cache
from repro.faults import FaultConfig
from repro.network.world_soa import SoAWorld

from perfbench import layers
from perfbench.checks import check_run, digest_of
from perfbench.layers import PER_LAYER, Spans, instrumented, layer_metrics
from perfbench.measure import (
    SEED_STRIDE,
    SETUP_SAMPLES,
    Probe,
    full_repeat,
    measure,
    plan,
)
from perfbench.workloads import SCALE_WINDOW, WORKLOADS, Workload

TINY = Workload(
    "tiny", "test scenario", ScenarioConfig.tiny,
    repeat_seconds=1.0, mdr_range=(0.0, 1.0),
)

TINY_AUDITED = Workload(
    "tiny-audited", "test scenario with faults and an audited trace",
    lambda: ScenarioConfig.tiny(
        faults=FaultConfig(
            loss_probability=0.1, mean_uptime=900.0, mean_downtime=300.0
        ),
        max_retransmissions=2,
    ),
    repeat_seconds=1.0, mdr_range=(0.0, 1.0), audit=True,
)


@pytest.fixture(autouse=True)
def no_trace_cache():
    set_default_cache(None)
    yield
    set_default_cache(None)


def test_paper_500_is_table_5_1_for_one_hour():
    config = WORKLOADS["paper-500"].build()
    assert config.n_nodes == 500
    assert config.area[0] * config.area[1] == pytest.approx(5e6)
    assert config.duration == config.ttl == 3_600.0
    assert config.faults is None
    assert config.max_retransmissions == 0
    assert config.detect_workers == 1
    assert config.world_core == "soa"


def test_scale_10k_holds_the_paper_density():
    config = WORKLOADS["scale-10k"].build()
    assert config.n_nodes == 10_000
    assert config.area == (10_000.0, 10_000.0)
    assert config.duration == config.ttl == SCALE_WINDOW
    assert config.detect_workers == 1


def test_churn_trace_is_paper_500_plus_faults():
    churn = WORKLOADS["churn-trace"].build()
    assert churn.faults == FaultConfig(
        loss_probability=0.1, mean_uptime=1_800.0, mean_downtime=300.0,
        churn_policy="wipe",
    )
    assert churn.max_retransmissions == 2
    assert WORKLOADS["churn-trace"].audit
    plain = dataclasses.replace(churn, faults=None, max_retransmissions=0)
    assert plain == WORKLOADS["paper-500"].build()


def test_self_time_subtracts_nested_children():
    ticks = itertools.count()
    spans = Spans(clock=lambda: float(next(ticks)))
    with spans.span("outer"):             # 0 .. 9
        with spans.span("inner"):         # 1 .. 6
            with spans.span("leaf"):      # 2 .. 3
                pass
            with spans.span("inner"):     # 4 .. 5 (same name, nested)
                pass
        with spans.span("leaf"):          # 7 .. 8
            pass
    assert list(spans.parents) == [-1, 0, 1, 1, 0]
    assert spans.self_times() == {"outer": 9 - 5 - 1, "inner": 3 + 1,
                                  "leaf": 1 + 1}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seconds", [1, 30, 60])
def test_plan_gives_each_full_repeat_its_own_program_seed(name, seconds):
    order = plan(WORKLOADS[name], 4, seconds)
    full = [seed for kind, seed in order if kind == "full"]
    assert order[0] == ("full", 4)
    assert len(full) >= 2
    assert full == [4 + SEED_STRIDE * i for i in range(len(full))]
    assert len(order) == max(SETUP_SAMPLES, len(full))
    assert {seed for kind, seed in order if kind == "setup"} <= set(full)


def test_committed_digest_passes_and_perturbed_one_fails(tmp_path):
    probe = Probe()
    with probe.installed():
        repeat = full_repeat(TINY, TINY.build(), 7, probe, tmp_path, {})
    assert repeat.problems == []
    pinned = {"tiny": {"7": dict(repeat.digest)}}
    result = measure(TINY, 7, 1, tmp_path, pinned)
    assert result.failures == [] and result.failed == 0
    assert [r.seed for r in result.repeats] == [7, 7 + SEED_STRIDE]
    assert result.repeats[0].digest == repeat.digest

    perturbed = dict(repeat.digest, events=repeat.digest["events"] + 1)
    result = measure(TINY, 7, 1, tmp_path, {"tiny": {"7": perturbed}})
    assert result.attempted == len(result.repeats) == 2
    assert result.failed == 1
    assert len(result.failures) == 1 and "committed" in result.failures[0]


def test_conservation_break_is_a_problem(tmp_path):
    from repro.experiments.runner import run_scenario

    result = run_scenario(TINY.build(), "incentive", 3)
    digest = digest_of(result, 1)
    assert check_run(TINY, 3, result, digest) == []
    result.router.ledger._balances[0] += 1.0
    assert any(
        "conserved" in p for p in check_run(TINY, 3, result, digest)
    )


@pytest.mark.parametrize("workload", [TINY, TINY_AUDITED],
                         ids=lambda w: w.name)
def test_wrappers_leave_the_digest_unchanged(workload, tmp_path):
    config = workload.build()
    originals = {
        (t.owner, t.attr): vars(t.owner)[t.attr] for t in layers.targets()
    }
    probe = Probe()
    with probe.installed():
        plain = full_repeat(workload, config, 5, probe, tmp_path, {})
        spans = Spans()
        with instrumented(spans):
            traced = full_repeat(
                workload, config, 5, probe, tmp_path, {}, span=spans.span
            )
    assert plain.problems == traced.problems == []
    assert traced.digest == plain.digest
    assert {
        (t.owner, t.attr): vars(t.owner)[t.attr] for t in layers.targets()
    } == originals
    assert vars(SoAWorld)["run"] is SoAWorld.run
    values = layer_metrics(spans)
    assert set(values) <= set(PER_LAYER)
    assert values["reputation.exchanges"] > 0
    assert values["sim.self_s"] > 0
    if workload.audit:
        assert values["trace.records"] == traced.trace_records > 0
        assert values["faults.verdict_calls"] > 0
        assert values["trace.audit_s"] > 0


def test_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        spans = Spans()
        probe = Probe()
        with probe.installed(), instrumented(spans):
            full_repeat(TINY, TINY.build(), 2, probe, tmp_path, {})
        counts.append(dict(spans.counts))
    assert counts[0] == counts[1]


def test_run_fails_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parent
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for source in bench.glob("*.py"):
        (copy / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-500",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

