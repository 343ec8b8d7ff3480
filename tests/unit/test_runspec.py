"""Unit tests for the serializable RunSpec pipeline and content hashing."""

import dataclasses
import json
import pickle

import pytest

from repro.config.dram_configs import DramOrganization, FgrMode
from repro.config.system_configs import (
    OsConfig,
    SystemConfig,
    default_system_config,
)
from repro.core.results import RunResult, TaskResult
from repro.core.runspec import RunSpec
from repro.core.simulator import make_run_spec, run_spec
from repro.core.system import SCENARIOS, Scenario
from repro.dram.power import EnergyBreakdown
from repro.errors import ConfigError
from repro.os.partition import PartitionPolicy
from repro.serialize import canonical_json, content_hash, to_jsonable
from repro.units import ms
from repro.workloads.benchmark import AccessPattern, BenchmarkSpec


def json_roundtrip(obj):
    return json.loads(json.dumps(obj))


# -- SystemConfig ---------------------------------------------------------------


def test_system_config_roundtrip():
    config = default_system_config(
        density_gbit=16, refresh_scale=512, os=OsConfig(eta_thresh=3)
    )
    data = json_roundtrip(config.to_dict())
    rebuilt = SystemConfig.from_dict(data)
    assert rebuilt == config
    assert rebuilt.content_hash() == config.content_hash()


def test_system_config_hash_changes_with_fields():
    a = default_system_config()
    b = default_system_config(density_gbit=16)
    c = default_system_config(os=OsConfig(eta_thresh=2))
    assert len({a.content_hash(), b.content_hash(), c.content_hash()}) == 3


def test_system_config_from_dict_rejects_unknown_field():
    data = default_system_config().to_dict()
    data["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        SystemConfig.from_dict(data)


def test_unknown_override_is_config_error():
    with pytest.raises(ConfigError, match="invalid config override"):
        default_system_config(bogus_field=1)
    with pytest.raises(ConfigError, match="invalid config override"):
        default_system_config().with_(bogus_field=1)


# -- Scenario -------------------------------------------------------------------


def test_scenario_roundtrip_all_predefined():
    for scenario in SCENARIOS.values():
        data = json_roundtrip(scenario.to_dict())
        assert Scenario.from_dict(data) == scenario


def test_scenario_content_hash_ignores_nothing():
    a = Scenario("alike", "all_bank")
    b = Scenario("alike", "per_bank")
    c = Scenario("alike", "all_bank", partition=PartitionPolicy.SOFT)
    assert len({a.content_hash(), b.content_hash(), c.content_hash()}) == 3
    assert a.content_hash() == Scenario("alike", "all_bank").content_hash()


# -- RunSpec --------------------------------------------------------------------


def test_make_run_spec_resolves_mix():
    spec = make_run_spec("WL-6", "codesign", refresh_scale=1024)
    assert spec.workload_name == "WL-6"
    assert len(spec.specs) == 8
    assert spec.scenario.name == "codesign"
    assert spec.config.refresh_scale == 1024


def test_run_spec_json_roundtrip():
    spec = make_run_spec(
        "WL-6", "codesign", num_windows=0.5, warmup_windows=0.1,
        refresh_scale=1024, density_gbit=16,
    )
    data = json_roundtrip(spec.to_dict())
    rebuilt = RunSpec.from_dict(data)
    assert rebuilt == spec
    assert rebuilt.content_hash() == spec.content_hash()


def test_run_spec_hash_sensitive_to_every_layer():
    base = make_run_spec("WL-6", "codesign", refresh_scale=1024)
    variants = [
        make_run_spec("WL-1", "codesign", refresh_scale=1024),
        make_run_spec("WL-6", "per_bank", refresh_scale=1024),
        make_run_spec("WL-6", "codesign", refresh_scale=512),
        make_run_spec("WL-6", "codesign", refresh_scale=1024, num_windows=1.0),
        make_run_spec("WL-6", "codesign", refresh_scale=1024, banks_per_task=4),
    ]
    hashes = {base.content_hash()} | {v.content_hash() for v in variants}
    assert len(hashes) == len(variants) + 1


def test_run_spec_validate():
    spec = make_run_spec("WL-6", "codesign")
    with pytest.raises(ConfigError):
        spec.with_(specs=()).validate()
    with pytest.raises(ConfigError):
        spec.with_(num_windows=0).validate()
    with pytest.raises(ConfigError):
        spec.with_(banks_per_task=0).validate()


def test_unserializable_config_value_raises_config_error():
    class Opaque:
        def validate(self):
            pass

    spec = make_run_spec("WL-6", "all_bank", dram_timing=Opaque())
    with pytest.raises(ConfigError, match="not JSON-serializable"):
        spec.content_hash()
    # A failure is never memoized: every call raises again.
    with pytest.raises(ConfigError, match="not JSON-serializable"):
        spec.content_hash()


# -- content-hash stability ------------------------------------------------------

#: Content hashes of representative specs at SPEC_SCHEMA 5.  Each hash
#: names an on-disk result-cache entry and a warm-start checkpoint key,
#: so any drift here orphans every cached result.  Change an entry only
#: together with a SPEC_SCHEMA bump.
PINNED_SPEC_HASHES = {
    "wl6_codesign_scale64": "4d5b8e6a41ae478b",
    "wl2_ooo_warm_all_bank": "c7fce49e65d5f5c8",
    "wl9_per_bank_sampled": "e393a9f8ac8246a8",
    "wl4_density_os": "fcdf061818461356",
    "wl7_fgr_resumed": "80ba8da9441fcf7b",
    "explicit_tasks_default": "a2d237ed292fdf89",
}


def pinned_specs() -> dict[str, RunSpec]:
    return {
        "wl6_codesign_scale64": make_run_spec(
            "WL-6", "codesign", refresh_scale=64, seed=1
        ),
        "wl2_ooo_warm_all_bank": make_run_spec(
            "WL-2", "ooo_per_bank", refresh_scale=16
        ).with_(warmup_scenario="all_bank"),
        "wl9_per_bank_sampled": make_run_spec(
            "WL-9", "per_bank", num_windows=0.25, warmup_windows=0.05,
            banks_per_task=4, sample_windows=4, refresh_scale=1024,
        ),
        "wl4_density_os": make_run_spec(
            "WL-4", "all_bank", density_gbit=16, refresh_scale=512,
            os=OsConfig(eta_thresh=3, quantum_ps=ms(2), demand_paging=True),
        ),
        "wl7_fgr_resumed": make_run_spec(
            "WL-7", "per_bank", fgr_mode=FgrMode.X4, trefw_ps=ms(32),
            organization=DramOrganization(subarrays_per_bank=4),
        ).with_(resume_from="0123456789abcdef@4096"),
        "explicit_tasks_default": make_run_spec(
            [
                BenchmarkSpec(
                    "toy", mpki=12.5, footprint_bytes=1 << 20,
                    pattern=AccessPattern.SEQUENTIAL,
                )
            ],
            "no_refresh",
        ),
    }


def test_content_hashes_are_pinned():
    observed = {name: s.content_hash() for name, s in pinned_specs().items()}
    assert observed == PINNED_SPEC_HASHES


def test_content_hash_matches_generic_encoder():
    for spec in pinned_specs().values():
        assert spec.content_hash() == content_hash(spec)
        assert spec.config.content_hash() == content_hash(spec.config)
        assert spec.scenario.content_hash() == content_hash(spec.scenario)


def test_dataclass_to_dict_matches_to_jsonable():
    from repro.serialize import dataclass_to_dict, json_digest

    config = default_system_config(
        density_gbit=16, fgr_mode=FgrMode.X2, os=OsConfig(eta_thresh=2)
    )
    for obj in (config, config.os, config.dram_timing, config.organization):
        view = dataclass_to_dict(obj)
        assert view == {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        assert json_digest(view) == content_hash(obj)


# -- content-hash memo -----------------------------------------------------------


def test_hash_memo_is_invisible():
    spec = make_run_spec("WL-6", "codesign", refresh_scale=1024)
    twin = make_run_spec("WL-6", "codesign", refresh_scale=1024)
    before = (repr(spec), spec.to_dict())
    key = spec.content_hash()
    assert (repr(spec), spec.to_dict()) == before
    assert spec == twin and hash(spec) == hash(twin)
    assert [f.name for f in dataclasses.fields(spec)] == [
        f.name for f in dataclasses.fields(twin)
    ]
    assert spec.content_hash() is key
    assert twin.content_hash() == key


def test_copies_hash_their_own_content():
    spec = make_run_spec("WL-6", "codesign", refresh_scale=1024)
    key = spec.content_hash()
    for copy in (
        spec.with_(num_windows=1.0),
        dataclasses.replace(spec, banks_per_task=2),
    ):
        assert copy.content_hash() != key
        assert copy.content_hash() == content_hash(copy.to_dict())
    assert spec.with_().content_hash() == key


def test_pickled_spec_keeps_an_equal_hash():
    spec = make_run_spec("WL-9", "per_bank", refresh_scale=1024)
    key = spec.content_hash()
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.content_hash() == key


def test_cached_sweep_encodes_each_spec_once(tmp_path, monkeypatch):
    from repro import api

    cells = dict(
        workloads=["WL-9"], scenarios=["all_bank", "per_bank", "codesign"],
        jobs=1, cache_dir=tmp_path,
        num_windows=0.25, warmup_windows=0.05, refresh_scale=1024,
    )
    first = api.sweep(**cells)
    calls = []
    to_dict = RunSpec.to_dict

    def counting(self):
        calls.append(self)
        return to_dict(self)

    monkeypatch.setattr(RunSpec, "to_dict", counting)
    again = api.sweep(**cells)
    assert again == first
    assert len(calls) == len(first) == 3


# -- RunResult ------------------------------------------------------------------


def make_result(with_energy=True):
    energy = None
    if with_energy:
        energy = EnergyBreakdown(
            background_mj=1.5, activate_mj=0.25, read_mj=0.125,
            write_mj=0.0625, refresh_mj=0.75, elapsed_ns=1e6,
        )
    return RunResult(
        scenario="codesign", workload="WL-6", density_gbit=32, trefw_ms=64.0,
        simulated_cycles=1000,
        tasks=[
            TaskResult(
                task_id=0, name="mcf", instructions=100, scheduled_cycles=400,
                quanta=3, reads_completed=7, avg_read_latency_cycles=212.5,
                refresh_stall_cycles=11,
            )
        ],
        reads_completed=7, writes_completed=2,
        avg_read_latency_cycles=212.5, row_hit_rate=0.625,
        refresh_commands=5, refresh_stall_cycles=11, refresh_stalled_reads=1,
        context_switches=4, bus_utilization=0.375,
        energy=energy,
    )


def test_run_result_json_roundtrip():
    result = make_result()
    rebuilt = RunResult.from_dict(json_roundtrip(result.to_dict()))
    assert rebuilt == result
    assert rebuilt.energy == result.energy
    assert rebuilt.hmean_ipc == result.hmean_ipc


def test_run_result_roundtrip_without_energy():
    result = make_result(with_energy=False)
    rebuilt = RunResult.from_dict(json_roundtrip(result.to_dict()))
    assert rebuilt == result
    assert rebuilt.energy is None


def test_run_result_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        RunResult.from_dict("nope")
    with pytest.raises(ConfigError):
        RunResult.from_dict({"scenario": "s", "unknown_field": 1})


def test_simulated_result_roundtrips():
    spec = make_run_spec(
        "WL-9", "per_bank", num_windows=0.25, warmup_windows=0.05,
        refresh_scale=1024,
    )
    result = run_spec(spec)
    rebuilt = RunResult.from_dict(json_roundtrip(result.to_dict()))
    assert rebuilt == result


def test_run_spec_is_pure_function():
    spec = make_run_spec(
        "WL-9", "per_bank", num_windows=0.25, warmup_windows=0.05,
        refresh_scale=1024,
    )
    assert run_spec(spec) == run_spec(spec)


# -- serialize helpers ----------------------------------------------------------


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert content_hash({"a": 1}) == content_hash({"a": 1})
    assert content_hash({"a": 1}) != content_hash({"a": 2})


def test_to_jsonable_rejects_non_string_keys():
    with pytest.raises(ConfigError, match="keys must be strings"):
        to_jsonable({1: "x"})
