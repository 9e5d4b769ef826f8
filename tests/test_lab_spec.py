"""RunSpec identity: canonical hashing and config round-trips.

The whole lab rests on one invariant: equal computations hash equal,
different computations hash different. These tests pin both directions
plus the ``SystemConfig`` <-> canonical-JSON round-trip that lets a
journal rebuild its machines.
"""

import dataclasses
import pathlib

import pytest

from repro.bench.runner import config_for_scale
from repro.errors import ConfigError
from repro.fuzz.sampling import CampaignSpec, sample_cases
from repro.lab.gridfile import campaign_id, expand, load_grid
from repro.lab.spec import (
    RunSpec,
    bench_spec,
    canonical_config,
    canonical_json,
    config_digest,
    config_from_canonical,
    fuzz_spec,
)

REPO = pathlib.Path(__file__).resolve().parent.parent


def _spec(**overrides):
    config = overrides.pop("config", config_for_scale("smoke"))
    base = dict(scheme="star", workload="hash", operations=64, seed=7)
    base.update(overrides)
    return bench_spec(config, **base)


class TestSpecHash:
    def test_identical_specs_hash_identically(self):
        assert _spec().spec_hash == _spec().spec_hash

    def test_hash_survives_dict_round_trip(self):
        spec = _spec(crash_and_recover=True, metrics=("nvm.",))
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash == spec.spec_hash

    @pytest.mark.parametrize("overrides", [
        {"scheme": "anubis"},
        {"workload": "array"},
        {"operations": 65},
        {"seed": 8},
        {"crash_and_recover": True},
        {"metrics": ("nvm.",)},
        {"config": config_for_scale("smoke", adr_bitmap_lines=8)},
        {"config": config_for_scale("smoke", bitmap_fanout=64)},
    ])
    def test_any_semantic_change_changes_the_hash(self, overrides):
        assert _spec(**overrides).spec_hash != _spec().spec_hash

    def test_schema_version_is_part_of_the_identity(self):
        assert _spec().canonical()["schema"] == 1

    def test_canonical_json_is_stable_under_key_order(self):
        assert (canonical_json({"b": 1, "a": 2})
                == canonical_json({"a": 2, "b": 1}))

    def test_rejects_unknown_kind_and_empty_runs(self):
        payload = _spec().to_dict()
        payload["kind"] = "mystery"
        with pytest.raises(ConfigError):
            RunSpec.from_dict(payload)
        with pytest.raises(ConfigError):
            _spec(operations=0)


class TestConfigRoundTrip:
    def test_round_trip_reproduces_the_exact_config(self):
        config = config_for_scale(
            "smoke", adr_bitmap_lines=8, bitmap_fanout=64
        ).with_metadata_cache_bytes(8192)
        rebuilt = config_from_canonical(canonical_config(config))
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(config)
        assert rebuilt.crypto_key == config.crypto_key
        assert config_digest(rebuilt) == config_digest(config)

    def test_system_config_accessor_matches_factory_input(self):
        config = config_for_scale("smoke")
        spec = _spec(config=config)
        assert (dataclasses.asdict(spec.system_config())
                == dataclasses.asdict(config))

    def test_malformed_canonical_config_raises_config_error(self):
        payload = canonical_config(config_for_scale("smoke"))
        del payload["nvm"]
        with pytest.raises(ConfigError):
            config_from_canonical(payload)


class TestRetiredTimingKeys:
    """The deleted bank-level timing model's keys stay in every
    canonical config at the values they were hashed with; a config
    asking for a banked machine cannot be rebuilt."""

    RETIRED = {"device_timing": False, "device_banks": 8,
               "device_row_lines": 32}

    def test_canonical_configs_carry_the_hashed_defaults(self):
        payload = canonical_config(config_for_scale("smoke"))
        assert {key: payload[key] for key in self.RETIRED} == self.RETIRED

    @pytest.mark.parametrize("key, value", [
        ("device_timing", True),
        ("device_banks", 4),
        ("device_row_lines", 64),
    ])
    def test_a_banked_config_is_refused(self, key, value):
        payload = canonical_config(config_for_scale("smoke"))
        payload[key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_canonical(payload)


class TestSpecFormatPins:
    """Campaign ids hash every cell's canonical config, so they pin the
    spec format: a config key added, dropped or renamed moves them all,
    and with them every stored cell and journal."""

    @pytest.mark.parametrize("grid, cid", [
        ("paper", "10f719ec2076"),
        ("paper-smoke", "6b19cf5256ff"),
        ("table2", "e48739a7dc62"),
        ("fig14b", "25434229dedd"),
        ("fuzz-smoke", "634a38f2465c"),
        ("grids/ci_smoke.json", "51a38370f2c7"),
        ("grids/fuzz_nightly.json", "084608e1acbd"),
    ])
    def test_campaign_ids_are_pinned(self, grid, cid):
        if grid.endswith(".json"):
            grid = REPO / grid
        assert campaign_id(expand(load_grid(grid))) == cid

    @pytest.mark.parametrize("name", ["paper", "table2", "fig14b"])
    def test_grid_files_equal_their_builtins(self, name):
        from_file = expand(load_grid(REPO / "grids" / (name + ".json")))
        assert from_file == expand(load_grid(name))


class TestFuzzSpecs:
    def test_fuzz_cases_map_to_stable_distinct_specs(self):
        cases = sample_cases(CampaignSpec(cases=6, seed=3))
        hashes = [fuzz_spec(case).spec_hash for case in cases]
        assert hashes == [fuzz_spec(case).spec_hash for case in cases]
        assert len(set(hashes)) == len(hashes)

    def test_fuzz_params_carry_the_sampled_fractions(self):
        case = sample_cases(CampaignSpec(cases=1, seed=3))[0]
        spec = fuzz_spec(case)
        assert spec.kind == "fuzz"
        assert spec.params["crash_frac"] == case.crash_frac
        assert spec.params["prepare_frac"] == case.prepare_frac


def asdict_reference(spec):
    """``RunSpec.to_dict`` as it was first written: ``asdict`` plus a
    list-valued ``metrics``."""
    payload = dataclasses.asdict(spec)
    payload["metrics"] = list(spec.metrics)
    return payload


class TestToDict:
    def _specs(self):
        case = sample_cases(CampaignSpec(cases=1, seed=3))[0]
        return [_spec(metrics=("nvm.data_writes", "adr.hits"),
                      crash_and_recover=True),
                fuzz_spec(case)]

    def test_matches_the_asdict_reference(self):
        for spec in self._specs():
            payload = spec.to_dict()
            reference = asdict_reference(spec)
            assert payload == reference
            assert list(payload) == list(reference)
            assert canonical_json(payload) == canonical_json(reference)
            assert RunSpec.from_dict(payload) == spec

    def test_returns_a_deep_copy(self):
        for spec in self._specs():
            before = asdict_reference(spec)
            payload = spec.to_dict()
            payload["config"]["nvm"]["t_wr_ns"] = -1.0
            payload["config"]["memory_bytes"] = 0
            payload["params"]["injected"] = True
            payload["metrics"].append("injected")
            assert asdict_reference(spec) == before
            assert spec.to_dict() == before
