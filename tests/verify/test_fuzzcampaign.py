"""The differential fuzz campaign: cells, parallel merge, triage."""

from __future__ import annotations

import json

import pytest

from repro.harness.resilience import Journal
from repro.verify.fuzz.fuzzcampaign import (
    FuzzCampaign, SABOTAGES, fuzz_repro_cmd,
)
from repro.verify.fuzz.generator import GenConfig


def _mini() -> FuzzCampaign:
    return FuzzCampaign(count=3, seed_start=0, plans=2,
                        model_keys=["boost7"],
                        backends=["reference", "translate"])


def test_clean_mini_campaign():
    summary = _mini().run()
    assert summary.ok
    stats = summary.stats()
    assert stats.programs == 3
    assert stats.plans == 6
    assert stats.backend_cells == 3 * 2      # translate cell per plan
    assert stats.model_cells == 3 * 2 * 2    # 1 model x 2 backends x 2 plans
    assert stats.dynamic_cells == 3 * 5      # five LSQ/rename variants, benign plan
    assert stats.runs == (stats.backend_cells + stats.model_cells
                          + stats.dynamic_cells)
    text = summary.format()
    assert "divergences: 0" in text


def test_parallel_merge_is_byte_identical():
    serial = _mini().run(jobs=1).format()
    parallel = _mini().run(jobs=2).format()
    assert serial == parallel


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exception_is_reported_at_any_jobs(jobs, monkeypatch):
    """A program whose worker raises costs that program, reported the same
    way in process and across the pool — it does not crash the run."""
    from repro.verify.fuzz import fuzzcampaign

    real = fuzzcampaign.generate_program

    def generate(seed, config):
        if seed == 1:
            raise TypeError("planted generator fault")
        return real(seed, config)

    monkeypatch.setattr(fuzzcampaign, "generate_program", generate)
    summary = FuzzCampaign(count=3, plans=1, model_keys=["boost7"],
                           backends=["reference", "translate"]).run(jobs=jobs)
    assert summary.oracle_errors == [
        "fuzz-000001: worker failed: TypeError: planted generator fault "
        "(repro: python -m repro fuzz --count 1 --seed-start 1 --plans 1 "
        "--size small)"]
    assert [r.seed for r in summary.results] == [0, 1, 2]


def test_journal_resume_restores_results(tmp_path):
    campaign = _mini()
    fingerprint = Journal.make_fingerprint(**campaign.facets())
    path = tmp_path / "fuzz.journal"
    j1 = Journal(path, fingerprint)
    full = campaign.run(journal=j1).format()
    j1.close()
    # resume from the complete journal: nothing re-runs, output identical
    j2 = Journal(path, fingerprint, resume=True)
    assert len(j2.completed) == 3
    resumed = _mini().run(journal=j2).format()
    j2.close()
    assert resumed == full


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        FuzzCampaign(model_keys=["no-such-model"])
    with pytest.raises(ValueError):
        FuzzCampaign(backends=["no-such-backend"])
    with pytest.raises(ValueError):
        FuzzCampaign(sabotage="no-such-sabotage")
    with pytest.raises(ValueError):
        FuzzCampaign(plans=0)
    assert set(SABOTAGES) == {"shiftbuf", "drop-print"}


def test_sabotage_is_caught_reduced_and_triaged(tmp_path):
    campaign = FuzzCampaign(count=2, seed_start=0, plans=2,
                            model_keys=["boost7"], backends=["reference"],
                            sabotage="drop-print")
    summary = campaign.run()
    assert not summary.ok
    assert summary.divergences
    # every divergence names the sabotaged cell and embeds a one-line repro
    for fd in summary.divergences:
        assert fd.machine == "superscalar"
        assert fd.signature.startswith("superscalar/boost7/reference/output")
        assert fd.repro_cmd.startswith("python -m repro fuzz --count 1 ")
        assert f"--seed-start {fd.seed}" in fd.repro_cmd
        assert "--sabotage drop-print" in fd.repro_cmd
        assert fd.repro_cmd in fd.describe()
    campaign.finalize(summary, triage_dir=tmp_path, reduce=True)
    (entry,) = summary.triage  # one signature -> one bucket
    assert entry.occurrences == len(summary.divergences)
    bucket = tmp_path / entry.bucket
    record = json.loads((bucket / "record.json").read_text())
    assert record["schema"] == "repro-triage/1"
    assert record["repro"].startswith("python -m repro fuzz ")
    assert record["signature"] == entry.signature
    reduced = (bucket / "repro.mc").read_text()
    assert len(reduced.splitlines()) <= 15
    assert (bucket / "original.mc").read_text() != reduced


def test_repro_cmd_names_every_knob():
    config = GenConfig(size="medium", pred_lo=0.6)
    cmd = fuzz_repro_cmd(41, config, 5, model="squashing",
                         backend="translate", sabotage="shiftbuf")
    assert cmd == ("python -m repro fuzz --count 1 --seed-start 41 "
                   "--plans 5 --size medium --pred-lo 0.6 "
                   "--models squashing --backends translate "
                   "--sabotage shiftbuf")
