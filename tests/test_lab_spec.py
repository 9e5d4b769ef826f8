"""RunSpec identity: canonical hashing and config round-trips.

The whole lab rests on one invariant: equal computations hash equal,
different computations hash different. These tests pin both directions
plus the ``SystemConfig`` <-> canonical-JSON round-trip that lets a
journal rebuild its machines.
"""

import dataclasses
import pathlib
import re

import pytest

from repro.bench.runner import config_for_scale
from repro.config import (
    LINE_ACCESS_NS,
    LINE_SIZE,
    LSB_BITS,
    TREE_ARITY,
    paper_config,
    small_config,
)
from repro.core.synergy import FLUSH_THRESHOLD
from repro.errors import ConfigError
from repro.fuzz.sampling import CampaignSpec, sample_cases
from repro.lab.gridfile import campaign_id, expand, load_grid
from repro.lab.spec import (
    RETIRED_CONFIG_KEYS,
    RunSpec,
    bench_spec,
    canonical_config,
    canonical_json,
    config_digest,
    config_from_canonical,
    fuzz_spec,
)
from repro.sim import energy, timing

REPO = pathlib.Path(__file__).resolve().parent.parent


def _locate(payload, path):
    """The section of ``payload`` holding dotted ``path``'s last key,
    and that key."""
    *sections, key = path.split(".")
    for section in sections:
        payload = payload[section]
    return payload, key


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

    def test_round_trip_with_every_cache_level(self):
        config = paper_config()
        rebuilt = config_from_canonical(canonical_config(config))
        assert rebuilt == config

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

    @pytest.mark.parametrize("section", ["metadata_cache", "llc"])
    def test_a_null_required_cache_is_refused(self, section):
        payload = canonical_config(config_for_scale("smoke"))
        payload[section] = None
        with pytest.raises(ConfigError):
            config_from_canonical(payload)


class TestRetiredTimingKeys:
    """Retired keys stay in every canonical config at the values they
    were hashed with: the deleted bank-level timing model's, and the
    settings that became model constants. A config asking for another
    value describes a machine the model no longer builds."""

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

    @pytest.mark.parametrize("path, value", [
        ("nvm.t_wr_ns", 150.0),
        ("nvm.t_wr_ns", 300),
        ("cpu.write_queue_entries", 16),
        ("star.lsb_bits", 8),
        ("llc.line_size", 128),
        ("l1.line_size", 128),
        ("recovery_line_access_ns", 50.0),
    ])
    def test_another_retired_value_is_refused(self, path, value):
        payload = canonical_config(paper_config())
        section, key = _locate(payload, path)
        section[key] = value
        with pytest.raises(ConfigError, match=re.escape(path)):
            config_from_canonical(payload)

    @pytest.mark.parametrize("path", [
        "device_banks", "nvm.t_rcd_ns", "cpu.cores", "star.lsb_bits",
        "metadata_cache.line_size", "l2.line_size",
    ])
    def test_a_missing_retired_value_is_refused(self, path):
        payload = canonical_config(paper_config())
        section, key = _locate(payload, path)
        del section[key]
        with pytest.raises(ConfigError, match=re.escape(path)):
            config_from_canonical(payload)

    def test_an_absent_cache_level_carries_no_line_size(self):
        payload = canonical_config(small_config())
        assert payload["l1"] is None and payload["l2"] is None
        assert payload["llc"]["line_size"] == LINE_SIZE

    def test_retired_values_are_the_model_constants(self):
        """Changing a model constant must not leave spec hashes that
        claim the old value."""
        nvm = RETIRED_CONFIG_KEYS["nvm"]
        cpu = RETIRED_CONFIG_KEYS["cpu"]
        assert nvm["t_rcd_ns"] + nvm["t_cl_ns"] == timing.READ_LATENCY_NS
        assert nvm["t_wr_ns"] == timing.T_WR_NS
        assert nvm["read_energy_nj"] == energy.READ_ENERGY_NJ
        assert nvm["write_energy_nj"] == energy.WRITE_ENERGY_NJ
        assert nvm["static_power_w"] == energy.STATIC_POWER_W
        assert 1.0 / cpu["freq_ghz"] == timing.CYCLE_NS
        assert cpu["base_cpi"] == timing.BASE_CPI
        assert cpu["write_queue_entries"] == timing.WRITE_QUEUE_ENTRIES
        assert cpu["write_ports"] == 1  # the WPQ's one drain port
        assert cpu["sfence_ns"] == timing.SFENCE_NS
        star = RETIRED_CONFIG_KEYS["star"]
        assert star["counter_flush_threshold"] == FLUSH_THRESHOLD
        assert star["lsb_bits"] == LSB_BITS
        assert star["cache_tree_arity"] == TREE_ARITY
        assert RETIRED_CONFIG_KEYS["recovery_line_access_ns"] \
            == LINE_ACCESS_NS
        assert RETIRED_CONFIG_KEYS["llc"]["line_size"] == LINE_SIZE


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

    @pytest.mark.parametrize("factory, digest", [
        pytest.param(paper_config, "ee29c94b4d61c920", id="paper"),
        pytest.param(small_config, "0be196275e919e24", id="small"),
        pytest.param(lambda: config_for_scale("default"),
                     "dc950454d3f0bfb7", id="default-scale"),
    ])
    def test_config_digests_are_pinned(self, factory, digest):
        """The factories' digests, including ``paper_config``'s L1 and
        L2, which no campaign id covers."""
        assert config_digest(factory()) == digest


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
