"""The repro-stats/1 payload is deterministic.

Byte-identical across serial vs parallel population and across a
journaled crash/resume cycle — the property the CI metrics-regression
gate (benchmarks/check_stats_baseline.py) relies on.
"""

import json

import pytest

from repro.harness.cache import CompileCache
from repro.harness.experiments import BENCH_CONFIG_KEYS, Lab
from repro.harness.report import render_stats, stats_json
from repro.harness.resilience import Journal
from repro.workloads import get


def _grep_lab(cache_dir, collect_stats=True):
    return Lab([get("grep")], cache=CompileCache(cache_dir),
               collect_stats=collect_stats)


def _payload(lab):
    return json.dumps(stats_json(lab), sort_keys=True)


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("obs-cache")


@pytest.fixture(scope="module")
def serial_payload(shared_cache):
    lab = _grep_lab(shared_cache)
    lab.populate(jobs=1)
    return _payload(lab)


def test_stats_json_shape(serial_payload):
    doc = json.loads(serial_payload)
    assert doc["schema"] == "repro-stats/1"
    assert doc["collected"] is True
    cells = doc["workloads"]["grep"]
    assert set(cells) == set(BENCH_CONFIG_KEYS)
    cell = cells["minboost3"]
    assert cell["sched"]["traces"] > 0
    assert cell["sim"]["kind"] == "superscalar"
    assert cell["sim"]["boosted_executed"] > 0
    assert cells["dynamic"]["sim"]["kind"] == "dynamic"
    assert cells["dynamic"]["sched"] is None


def test_parallel_population_is_byte_identical(shared_cache, serial_payload):
    lab = _grep_lab(shared_cache)
    lab.populate(jobs=2)
    assert _payload(lab) == serial_payload


def test_journal_resume_is_byte_identical(
    shared_cache, serial_payload, tmp_path
):
    fingerprint = Journal.make_fingerprint(command="obs-determinism-test")
    clean_path = tmp_path / "clean.journal"
    journal = Journal(clean_path, fingerprint)
    lab = _grep_lab(shared_cache)
    lab.populate(journal=journal)
    journal.close()
    assert _payload(lab) == serial_payload

    # Truncate to half the cells — a simulated crash — then resume.
    lines = clean_path.read_bytes().splitlines(keepends=True)
    half = len(BENCH_CONFIG_KEYS) // 2
    resume_path = tmp_path / "resume.journal"
    resume_path.write_bytes(b"".join(lines[: half + 1]))
    journal = Journal(resume_path, fingerprint, resume=True)
    assert len(journal.completed) == half
    resumed = _grep_lab(shared_cache)
    resumed.populate(journal=journal)
    journal.close()
    assert len(resumed.resumed) == half
    assert _payload(resumed) == serial_payload


def test_lsq_counters_deterministic_and_chaos_identical(
    shared_cache, serial_payload
):
    # The memory-speculation counters (docs/memory-speculation.md) ride the
    # same repro-stats/1 payload, so they inherit the byte-identity
    # guarantees — but assert their presence explicitly so a counter that
    # silently stops being collected fails here, not in the CI baseline.
    doc = json.loads(serial_payload)
    cells = doc["workloads"]["grep"]
    for key in ("dynamic_lsq", "dynamic_memdep"):
        sim = cells[key]["sim"]
        for counter in ("stlf_hits", "memdep_squashes",
                        "memdep_stall_cycles", "lsq_high_water",
                        "lsq_occupancy"):
            assert counter in sim, (key, counter)
    assert cells["dynamic_lsq"]["sim"]["lsq_high_water"] > 0
    assert cells["dynamic_lsq"]["sim"]["memdep_squashes"] == 0
    assert cells["dynamic"]["sim"]["lsq_high_water"] == 0
    # Under chaos (worker kills + corrupted results, retried to clean
    # values) the payload — counters included — must stay byte-identical.
    from repro.harness.resilience import ChaosConfig, SupervisionPolicy

    chaos = ChaosConfig(seed=5, hang=0.0)
    policy = SupervisionPolicy(retries=3, seed=5, backoff=0.01, jitter=0.1)
    lab = _grep_lab(shared_cache)
    lab.populate(jobs=2, policy=policy, chaos=chaos)
    assert _payload(lab) == serial_payload


def test_uncollected_lab_reports_null_cells(shared_cache):
    lab = _grep_lab(shared_cache, collect_stats=False)
    doc = stats_json(lab)
    assert doc["collected"] is False
    cell = doc["workloads"]["grep"]["minboost3"]
    assert cell == {"sched": None, "sim": None}


def test_render_stats_prints_histogram(shared_cache):
    lab = _grep_lab(shared_cache)
    text = render_stats(lab)
    assert "Boosting statistics" in text
    assert "Scheduler statistics" in text
    assert ".B1" in text
    assert "squash%" in text
