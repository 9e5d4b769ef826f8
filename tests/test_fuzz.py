"""Tests for the crash-consistency fuzzing campaign engine."""

import json

import pytest

from repro.errors import ConfigError
from repro.fuzz import (
    ATTACK_MATRIX,
    CampaignSpec,
    CaseResult,
    CorpusFormatError,
    CorpusWriter,
    eligible_attacks,
    load_failures,
    load_summary,
    read_corpus,
    run_campaign,
    run_case,
    sample_cases,
)
from repro.fuzz.cli import main as fuzz_main
from repro.schemes import SIT_SCHEMES


class TestSampling:
    def test_sampling_is_deterministic(self):
        spec = CampaignSpec(cases=30, seed=9)
        first = [case.to_dict() for case in sample_cases(spec)]
        second = [case.to_dict() for case in sample_cases(spec)]
        assert first == second

    def test_different_seeds_differ(self):
        a = sample_cases(CampaignSpec(cases=20, seed=1))
        b = sample_cases(CampaignSpec(cases=20, seed=2))
        assert ([c.to_dict() for c in a] != [c.to_dict() for c in b])

    def test_case_roundtrips_through_dict(self):
        for case in sample_cases(CampaignSpec(cases=10, seed=3)):
            assert type(case).from_dict(case.to_dict()) == case

    def test_attacks_respect_scheme_matrix(self):
        spec = CampaignSpec(cases=200, seed=4, attack_rate=1.0)
        for case in sample_cases(spec):
            if case.attack is not None:
                assert case.attack in ATTACK_MATRIX[case.scheme]

    def test_wb_never_gets_attacks(self):
        assert eligible_attacks("wb") == []
        spec = CampaignSpec(cases=60, seed=5, schemes=["wb"],
                            attack_rate=1.0)
        assert all(c.attack is None for c in sample_cases(spec))

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            CampaignSpec(cases=0).validate()
        with pytest.raises(ConfigError):
            CampaignSpec(schemes=["nope"]).validate()
        with pytest.raises(ConfigError):
            CampaignSpec(workloads=["nope"]).validate()
        with pytest.raises(ConfigError):
            CampaignSpec(attack_rate=1.5).validate()
        with pytest.raises(ConfigError):
            CampaignSpec(min_operations=100, max_operations=50).validate()
        with pytest.raises(ConfigError):
            CampaignSpec(defect="nope").validate()


class TestCampaign:
    def test_all_schemes_zero_violations(self):
        """The acceptance gate: every scheme x three workloads survives
        a mixed attack campaign with no oracle violations."""
        spec = CampaignSpec(
            cases=40, seed=1, schemes=sorted(SIT_SCHEMES),
            workloads=["array", "hash", "queue"], attack_rate=0.6,
        )
        result = run_campaign(spec)
        assert result.ok, [f.violations for f in result.failures]
        assert {r.case.scheme for r in result.results} == set(SIT_SCHEMES)
        tampered = [r for r in result.results if r.tampered]
        assert tampered, "campaign never exercised an attack"
        assert all(r.detected_by is not None for r in tampered)

    def test_parallel_matches_serial(self):
        spec = CampaignSpec(cases=12, seed=6, attack_rate=0.5)
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=2)
        assert ([r.to_dict() for r in serial.results]
                == [r.to_dict() for r in parallel.results])

    def test_case_replays_identically(self):
        spec = CampaignSpec(cases=8, seed=7, attack_rate=1.0)
        for case in sample_cases(spec):
            assert run_case(case).to_dict() == run_case(case).to_dict()

    def test_counters_populated(self):
        spec = CampaignSpec(cases=10, seed=8)
        result = run_campaign(spec)
        counters = result.stats.snapshot()
        assert counters["fuzz.cases"] == 10
        assert sum(v for k, v in counters.items()
                   if k.startswith("fuzz.scheme.")) == 10


class TestCorpus:
    def test_roundtrip(self, tmp_path):
        spec = CampaignSpec(cases=6, seed=2, attack_rate=1.0)
        campaign = run_campaign(spec)
        path = tmp_path / "corpus.jsonl"
        with CorpusWriter(path) as writer:
            writer.write_header(spec.to_dict())
            for result in campaign.results:  # record everything here
                writer.write_failure(result)
            writer.write_summary(campaign.summary())

        records = list(read_corpus(path))
        assert records[0]["type"] == "campaign"
        assert records[0]["spec"] == spec.to_dict()
        loaded = load_failures(path)
        assert ([r.to_dict() for r in loaded]
                == [r.to_dict() for r in campaign.results])
        assert load_summary(path)["cases"] == 6

    def test_gzip_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl.gz"
        with CorpusWriter(path) as writer:
            writer.write_header({"seed": 1})
        assert [r["type"] for r in read_corpus(path)] == ["campaign"]

    def test_malformed_corpus_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "campaign"}\nnot json\n')
        with pytest.raises(CorpusFormatError):
            list(read_corpus(path))
        path.write_text('{"no": "type"}\n')
        with pytest.raises(CorpusFormatError):
            list(read_corpus(path))

    def test_result_roundtrips_with_type_tag(self):
        case = sample_cases(CampaignSpec(cases=1, seed=3))[0]
        result = run_case(case)
        record = result.to_dict()
        record["type"] = "failure"  # as the corpus stores it
        assert CaseResult.from_dict(record).to_dict() == result.to_dict()


class TestCli:
    def test_run_smoke(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        code = fuzz_main([
            "run", "--cases", "8", "--seed", "1",
            "--corpus", str(corpus), "--quiet",
        ])
        assert code == 0
        assert load_summary(corpus)["failures"] == 0

    def test_replay_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        fuzz_main(["run", "--cases", "4", "--seed", "2",
                   "--corpus", str(corpus), "--quiet"])
        assert fuzz_main(["replay", str(corpus)]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["run", "--cases", "-3"], "at least one case"),
        (["run", "--min-operations", "0"], "operation-count range"),
        (["run", "--min-operations", "50", "--max-operations", "10"],
         "operation-count range"),
        (["run", "--attack-rate", "2"], "attack rate"),
        (["run", "--schemes", "nosuch"], "unknown scheme"),
        (["replay", "{missing}"], "no such corpus"),
        (["minimize", "{missing}"], "no such corpus"),
    ])
    def test_usage_errors_exit_2_with_a_message(
            self, argv, message, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        argv = [arg.format(missing=missing) for arg in argv]
        if argv[0] == "run":
            argv += ["--corpus", str(tmp_path / "corpus.jsonl")]
        assert fuzz_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("star-fuzz: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "corpus.jsonl").exists()

    @pytest.mark.parametrize("meta", [
        {"a": 1},
        "not json",
        {"trace": "gone.trace.gz", "signature": []},
    ], ids=["no-case-field", "not-json", "missing-trace"])
    def test_replay_rejects_a_malformed_artifact(
            self, meta, tmp_path, assert_usage_error):
        path = tmp_path / "c000000.json"
        if isinstance(meta, dict):
            if "trace" in meta:
                case = sample_cases(CampaignSpec(cases=1, seed=1))[0]
                meta["case"] = case.to_dict()
            meta = json.dumps(meta)
        path.write_text(meta)
        code = fuzz_main(["replay", str(path)])
        assert_usage_error(code, "star-fuzz", str(path))
