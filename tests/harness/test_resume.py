"""Checkpoint/resume: a campaign killed at *any* journal boundary and
resumed produces byte-identical output to an uninterrupted run."""

import pytest

from repro.harness.cache import CompileCache
from repro.harness.experiments import BENCH_CONFIG_KEYS, Lab
from repro.harness.report import bench_json, render_all
from repro.harness.resilience import Journal
from repro.verify.campaign import VerifyCampaign
from repro.verify.fuzz.fuzzcampaign import FuzzCampaign
from repro.workloads.registry import Workload

SOURCE = """
global xs[8];
global n = 0;
func main() {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        if (xs[i] > 3) { s = s + xs[i]; }
    }
    print(s);
}
"""


def _stub():
    return Workload(name="awk", paper_benchmark="n/a", description="stub",
                    source=SOURCE,
                    train={"xs": [1, 5, 2, 6, 3, 7, 4, 8], "n": 8},
                    eval={"xs": [8, 1, 7, 2, 6, 3, 5, 4], "n": 8})


# -------------------------------------------------------------------- bench
@pytest.fixture(scope="module")
def clean_bench(tmp_path_factory):
    """One uninterrupted journaled bench campaign: the oracle every resumed
    run must byte-match.  The compile cache is shared with the resumed runs
    so the whole boundary sweep stays fast."""
    tmp = tmp_path_factory.mktemp("bench")
    fingerprint = Journal.make_fingerprint(command="bench-resume-test")
    journal = Journal(tmp / "clean.journal", fingerprint)
    lab = Lab([_stub()], cache=CompileCache(tmp / "cache"))
    lab.populate(journal=journal)
    journal.close()
    return {
        "cache_dir": tmp / "cache",
        "fingerprint": fingerprint,
        "text": render_all(lab),
        "json": bench_json(lab),
        "lines": (tmp / "clean.journal").read_bytes().splitlines(
            keepends=True),
    }


@pytest.mark.parametrize("k", range(len(BENCH_CONFIG_KEYS) + 1))
def test_bench_resume_at_every_boundary(clean_bench, k, tmp_path):
    """Simulate a SIGKILL after exactly ``k`` journaled cells: the journal
    holds the header plus the first ``k`` records, and the resumed campaign
    must restore them and recompute only the rest."""
    lines = clean_bench["lines"]
    assert len(lines) == len(BENCH_CONFIG_KEYS) + 1  # header + one per cell
    path = tmp_path / "resume.journal"
    path.write_bytes(b"".join(lines[:k + 1]))
    journal = Journal(path, clean_bench["fingerprint"], resume=True)
    assert len(journal.completed) == k
    lab = Lab([_stub()], cache=CompileCache(clean_bench["cache_dir"]))
    lab.populate(journal=journal)
    journal.close()
    assert len(lab.resumed) == k
    assert render_all(lab) == clean_bench["text"]
    assert bench_json(lab) == clean_bench["json"]


def test_bench_resume_discards_a_torn_record(clean_bench, tmp_path):
    """A record half-written when the crash hit is recomputed, not trusted."""
    lines = clean_bench["lines"]
    path = tmp_path / "torn.journal"
    path.write_bytes(b"".join(lines[:3]) + lines[3][:-10])
    journal = Journal(path, clean_bench["fingerprint"], resume=True)
    assert len(journal.completed) == 2
    assert journal.recovered_bytes > 0
    lab = Lab([_stub()], cache=CompileCache(clean_bench["cache_dir"]))
    lab.populate(journal=journal)
    journal.close()
    assert render_all(lab) == clean_bench["text"]


# ------------------------------------------------------------------- verify
VERIFY_MODELS = ["squashing", "boost1"]


@pytest.fixture(scope="module")
def clean_verify(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    fingerprint = Journal.make_fingerprint(command="verify-resume-test")
    journal = Journal(tmp / "clean.journal", fingerprint)
    campaign = VerifyCampaign(workload_names=["grep"],
                              model_keys=VERIFY_MODELS, seeds=2,
                              cache=CompileCache(tmp / "cache"))
    summary = campaign.run(journal=journal)
    journal.close()
    return {
        "cache_dir": tmp / "cache",
        "fingerprint": fingerprint,
        "text": summary.format(),
        "lines": (tmp / "clean.journal").read_bytes().splitlines(
            keepends=True),
    }


@pytest.mark.parametrize("k", range(len(VERIFY_MODELS) + 1))
def test_verify_resume_at_every_boundary(clean_verify, k, tmp_path):
    lines = clean_verify["lines"]
    assert len(lines) == len(VERIFY_MODELS) + 1  # header + one per bucket
    path = tmp_path / "resume.journal"
    path.write_bytes(b"".join(lines[:k + 1]))
    journal = Journal(path, clean_verify["fingerprint"], resume=True)
    assert len(journal.completed) == k
    messages = []
    campaign = VerifyCampaign(workload_names=["grep"],
                              model_keys=VERIFY_MODELS, seeds=2,
                              progress=messages.append,
                              cache=CompileCache(clean_verify["cache_dir"]))
    summary = campaign.run(journal=journal)
    journal.close()
    assert summary.format() == clean_verify["text"]
    if k == len(VERIFY_MODELS):
        # Fully journaled: the workload is not even re-prepared.
        assert not any("preparing" in m for m in messages)


# --------------------------------------------------------------------- fuzz
FUZZ_PROGRAMS = 3


def _fuzz():
    return FuzzCampaign(count=FUZZ_PROGRAMS, seed_start=0, plans=2,
                        model_keys=["boost7"],
                        backends=["reference", "translate"])


@pytest.fixture(scope="module")
def clean_fuzz(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    campaign = _fuzz()
    fingerprint = Journal.make_fingerprint(**campaign.facets())
    journal = Journal(tmp / "clean.journal", fingerprint)
    summary = campaign.run(journal=journal)
    journal.close()
    return {
        "fingerprint": fingerprint,
        "text": summary.format(),
        "lines": (tmp / "clean.journal").read_bytes().splitlines(
            keepends=True),
    }


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("k", range(FUZZ_PROGRAMS + 1))
def test_fuzz_resume_at_every_boundary(clean_fuzz, k, jobs, tmp_path):
    """A fuzz campaign killed after ``k`` journaled programs resumes, in
    process or through the supervised pool, to the uninterrupted report."""
    lines = clean_fuzz["lines"]
    assert len(lines) == FUZZ_PROGRAMS + 1  # header + one per program
    path = tmp_path / "resume.journal"
    path.write_bytes(b"".join(lines[:k + 1]))
    journal = Journal(path, clean_fuzz["fingerprint"], resume=True)
    assert len(journal.completed) == k
    summary = _fuzz().run(jobs=jobs, journal=journal)
    journal.close()
    assert summary.format() == clean_fuzz["text"]
    # The programs that were missing are journaled now.
    assert len(path.read_bytes().splitlines()) == FUZZ_PROGRAMS + 1


def test_fuzz_resume_discards_a_torn_record(clean_fuzz, tmp_path):
    lines = clean_fuzz["lines"]
    path = tmp_path / "torn.journal"
    path.write_bytes(b"".join(lines[:2]) + lines[2][:-10])
    journal = Journal(path, clean_fuzz["fingerprint"], resume=True)
    assert len(journal.completed) == 1
    assert journal.recovered_bytes > 0
    summary = _fuzz().run(jobs=2, journal=journal)
    journal.close()
    assert summary.format() == clean_fuzz["text"]
