"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import asyncio
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl
from loadclient import closed_loop, open_loop
from stats import MIN_BEYOND, budget_table, latency_summary, percentile, \
    self_times

ROOT = Path(__file__).resolve().parent.parent


# -- percentiles: an empty or short sample is None, never 0.0 ------------------


def test_percentile_needs_ten_samples_beyond():
    assert percentile([], 0.5) is None
    assert percentile(list(range(19)), 0.5) is None  # 9 beyond the median
    assert percentile(list(range(20)), 0.5) == 9.0  # 10 beyond
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000)), 0.99) == 989.0


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 3.0] + [10.0] * 20
    assert percentile(values, 0.1) == 5.0  # rank ceil(2.3) = 3
    assert percentile(list(reversed(values)), 0.1) == 5.0


def test_latency_summary_reports_null_not_zero():
    summary = latency_summary([0.001] * 50)
    assert summary == {"n": 50, "p50_s": 0.001, "p90_s": None,
                       "p99_s": None}
    assert json.loads(json.dumps(latency_summary([])))["p50_s"] is None
    assert MIN_BEYOND == 10


# -- open loop: latency runs from the intended send time ------------------------


class _SlowConnection:
    """Answers every request after a fixed service time."""

    def __init__(self, service_s: float):
        self.service_s = service_s
        self.sent = 0

    async def request(self, method, path, body=b""):
        self.sent += 1
        await asyncio.sleep(self.service_s)
        return 200, b"{}"


def test_open_loop_counts_client_queueing_when_connections_are_busy():
    conns = [_SlowConnection(0.05), _SlowConnection(0.05)]
    requests = [wl.Request("select", b"{}")] * 4
    result = asyncio.run(open_loop(conns, requests, [0.0, 0.0, 0.0, 0.0]))
    latency = sorted(result.latency_s)
    # Two requests start at once; the other two wait a full service time
    # for a free connection, and that wait is part of their latency.
    assert latency[0] == pytest.approx(0.05, abs=0.02)
    assert latency[1] == pytest.approx(0.05, abs=0.02)
    assert latency[2] >= 0.1 - 0.005
    assert latency[3] >= 0.1 - 0.005
    assert max(result.lag_s) < 0.02  # the generator itself was on time
    assert sum(c.sent for c in conns) == 4


def test_open_loop_spaces_requests_by_their_offsets():
    conns = [_SlowConnection(0.001)]
    requests = [wl.Request("select", b"{}")] * 3
    result = asyncio.run(open_loop(conns, requests, [0.0, 0.05, 0.10]))
    assert result.elapsed_s >= 0.10
    assert all(lat < 0.03 for lat in result.latency_s)


def test_closed_loop_sends_every_request_once():
    conns = [_SlowConnection(0.001), _SlowConnection(0.001)]
    requests = [wl.Request("select", b"{}")] * 10
    result = asyncio.run(closed_loop(conns, requests))
    assert result.completed == 10
    assert sum(c.sent for c in conns) == 10
    assert all(status == 200 for status in result.status)


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_the_called_layer_request_by_request():
    assert self_times([3.0, 5.0, 4.0], [1.0, 2.0, 3.5]) == [2.0, 3.0, 0.5]
    with pytest.raises(ValueError):
        self_times([1.0, 2.0], [1.0])


def test_budget_table_leaves_the_remainder_unattributed():
    table = budget_table([("a", [1.0, 1.0, 1.0]), ("b", [2.0, 3.0, 4.0])],
                         [10.0, 10.0, 10.0])
    assert table == {"a": 1.0, "b": 3.0, "budget.unattributed_s": 6.0}


# -- seeded generation -----------------------------------------------------------


def _digest(seed: int) -> str:
    h = hashlib.sha256()
    for workload in wl.WORKLOADS.values():
        for request in workload.requests(seed, 400):
            h.update(request.kind.encode() + request.body)
        h.update(json.dumps(wl.arrivals(seed, 0, 50.0, 400)).encode())
    return h.hexdigest()


def test_same_seed_gives_byte_identical_requests():
    assert _digest(7) == _digest(7)
    assert _digest(7) != _digest(8)


def test_requests_are_identical_across_interpreters():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import test_perfbench as t; print(t._digest(7))")
    done = subprocess.run([sys.executable, "-c", code,
                           str(Path(__file__).parent)],
                          capture_output=True, text=True, check=True,
                          cwd=Path(__file__).parent)
    assert done.stdout.strip() == _digest(7)


def test_mix_shares_and_repeats_follow_the_configured_mix():
    requests = wl.WORKLOADS["serve-q2-mix"].requests(3, 4000)
    shares = wl.realised_shares(requests)
    assert shares["share.repeat"] == pytest.approx(wl.REPEAT_SHARE, abs=0.001)
    for kind, share in wl.MIX_SHARES:
        assert shares[f"share.{kind}"] == pytest.approx(share, abs=0.02)
    # Every block holds the configured shares exactly, so every round of
    # a run does too, not only the whole stream.
    block = requests[wl.MIX_BLOCK:2 * wl.MIX_BLOCK]
    fresh_kinds = [r.kind for r in block if not r.repeat]
    assert len(fresh_kinds) == wl.MIX_BLOCK * (1 - wl.REPEAT_SHARE)
    for kind, share in wl.MIX_SHARES:
        assert fresh_kinds.count(kind) == round(share * len(fresh_kinds))
    fresh = [(r.kind, r.body) for r in requests if not r.repeat]
    assert len(set(fresh)) == len(fresh)  # only the repeats repeat


def test_q5_selects_are_unique_and_probe_stream_is_separate():
    workload = wl.WORKLOADS["serve-q5-select"]
    served = workload.requests(1, 500)
    probes = workload.requests(1, 500, stream=1)
    assert len({r.body for r in served}) == 500
    assert not {r.body for r in served} & {r.body for r in probes}


def test_stratified_quantiles_cover_every_stratum_once():
    rng = np.random.default_rng(0)
    u = wl.stratified(rng, 16)
    assert sorted(np.floor(u * 16).astype(int).tolist()) == list(range(16))
    counts = np.bincount(wl.stratified_choice(rng, [0.5, 0.3, 0.2], 20),
                         minlength=3)
    assert counts.tolist() == [10, 6, 4]


# -- the correctness gate ------------------------------------------------------------


def test_gate_counts_a_wrong_payload_as_failed():
    body = json.dumps({"kind": "select", "cached": False,
                       "result": {"feasible_count": 3}}).encode()
    good = [(200, {"feasible_count": 3})]
    wrong = [(200, {"feasible_count": 4})]
    assert run.check_answers([200], [body], good) == \
        {"errors": 0, "sheds": 0, "wrong": 0}
    counts = run.check_answers([200], [body], wrong)
    assert counts == {"errors": 0, "sheds": 0, "wrong": 1}
    assert run.verdict(1, counts) == (False, 1)
    sheds = run.check_answers([503, 500], [b"", b""], good * 2)
    assert sheds == {"errors": 1, "sheds": 1, "wrong": 0}


def test_command_exits_nonzero_on_a_wrong_reference(monkeypatch, capsys):
    """A deliberately wrong reference payload fails the whole run."""
    real = run.reference_answers

    async def corrupted(cache, quota, requests):
        answers = await real(cache, quota, requests)
        status, result = answers[0]
        answers[0] = (status, {**result, "tampered": True})
        return answers

    monkeypatch.setattr(run, "reference_answers", corrupted)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "serve-q2-mix", "--seed", "1",
                     "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_command_refuses_a_directory_without_the_program(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "serve-q2-mix", "--seed", "1",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_printed_metrics_match_the_benchmark_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        run.LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)
