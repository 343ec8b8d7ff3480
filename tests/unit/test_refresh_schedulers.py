"""Unit tests for all refresh schedulers, including coverage guarantees."""

import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.refresh import (
    REGISTRY,
    available_policies,
    make_scheduler,
)
from repro.dram.refresh.adaptive import AdaptiveRefresh
from repro.dram.timing import DramTiming
from repro.errors import ConfigError


def build(scheduler_name: str, refresh_scale: int = 1024):
    config = default_system_config(refresh_scale=refresh_scale)
    timing = DramTiming.from_config(config)
    engine = Engine()
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=16)
    mc = MemoryController(engine, timing, org, mapping)
    scheduler = make_scheduler(scheduler_name)
    scheduler.attach(mc, engine, timing)
    return engine, timing, mc, scheduler


def test_registry_contents():
    assert set(REGISTRY) == {
        "no_refresh", "all_bank", "per_bank", "same_bank",
        "ooo_per_bank", "adaptive", "elastic", "pausing",
    }
    assert available_policies() == sorted(REGISTRY)
    with pytest.raises(ConfigError):
        make_scheduler("bogus")


def test_unknown_policy_suggests_close_match():
    with pytest.raises(ConfigError, match="did you mean 'same_bank'"):
        make_scheduler("samebank")


class TestNoRefresh:
    def test_issues_nothing(self):
        engine, timing, mc, sched = build("no_refresh")
        sched.start()
        engine.run_until(timing.trefw)
        assert sched.stats.commands_issued == 0
        assert not sched.is_predictable()


class TestAllBank:
    def test_each_rank_gets_full_quota_per_window(self):
        engine, timing, mc, sched = build("all_bank")
        sched.start()
        engine.run_until(timing.trefw - 1)
        # Every bank receives its quota (+/-1 for the window boundary).
        n = timing.refreshes_per_bank
        for flat in range(16):
            assert n <= sched.stats.per_bank_commands[flat] <= n + 1

    def test_ranks_staggered(self):
        engine, timing, mc, sched = build("all_bank")
        sched.start()
        engine.run_until(timing.trefi_ab // 2)
        # After half a tREFI, rank 0 and rank 1 have each been refreshed once.
        assert mc.stats.rank_refreshes == 2


class TestPerBankRoundRobin:
    def test_rotates_over_all_banks(self):
        engine, timing, mc, sched = build("per_bank")
        sched.start()
        engine.run_until(timing.trefi_pb * 15)
        assert sched.stats.commands_issued == 16
        assert set(sched.stats.per_bank_commands) == set(range(16))

    def test_full_window_coverage(self):
        engine, timing, mc, sched = build("per_bank")
        sched.start()
        engine.run_until(timing.trefw - 1)
        for flat in range(16):
            assert (
                sched.stats.per_bank_commands[flat] >= timing.refreshes_per_bank - 1
            )

    def test_not_predictable(self):
        _, _, _, sched = build("per_bank")
        assert not sched.is_predictable()


class TestSameBankSequential:
    def test_stays_on_bank_until_done(self):
        engine, timing, mc, sched = build("same_bank")
        sched.start()
        n = timing.refreshes_per_bank
        engine.run_until(timing.refresh_stretch - 1)
        # All commands so far went to flat bank 0 (Algorithm 1).
        assert sched.stats.per_bank_commands == {0: n}

    def test_advances_to_next_bank_after_quota(self):
        engine, timing, mc, sched = build("same_bank")
        sched.start()
        n = timing.refreshes_per_bank
        engine.run_until(2 * timing.refresh_stretch - 1)
        assert sched.stats.per_bank_commands[0] == n
        assert sched.stats.per_bank_commands[1] == n

    def test_full_window_covers_every_bank(self):
        engine, timing, mc, sched = build("same_bank")
        sched.start()
        engine.run_until(timing.trefw - 1)
        n = timing.refreshes_per_bank
        for flat in range(16):
            assert n - 1 <= sched.stats.per_bank_commands.get(flat, 0) <= n + 1

    def test_stretch_bank_matches_issued_commands(self):
        engine, timing, mc, sched = build("same_bank")
        assert sched.is_predictable()
        stretch = timing.refresh_stretch
        for flat in range(16):
            assert sched.stretch_bank_at(flat * stretch) == flat
            assert sched.stretch_bank_at(flat * stretch + stretch - 1) == flat
        # Wraps into the next window.
        assert sched.stretch_bank_at(16 * stretch) == 0

    def test_bank_free_outside_its_stretch(self):
        engine, timing, mc, sched = build("same_bank")
        sched.start()
        engine.run_until(timing.trefw - 1)
        # Bank 5's refreshes all landed within its stretch.
        bank5 = mc.banks[5]
        assert bank5.stats.refreshes == timing.refreshes_per_bank


class TestOutOfOrderPerBank:
    def test_full_window_coverage_despite_reordering(self):
        engine, timing, mc, sched = build("ooo_per_bank")
        sched.start()
        engine.run_until(timing.trefw - 1)
        for flat in range(16):
            assert (
                sched.stats.per_bank_commands.get(flat, 0)
                >= timing.refreshes_per_bank - 1
            ), f"bank {flat} under-refreshed"

    def test_prefers_idle_banks(self):
        engine, timing, mc, sched = build("ooo_per_bank")
        # Queue demand on bank 0 before the first refresh decision.
        from repro.dram.request import MemoryRequest, RequestType

        address = mc.mapping.frame_offset_to_address(0, 0)
        for _ in range(4):
            mc.enqueue(
                MemoryRequest(
                    RequestType.READ, address, mc.mapping.address_to_coordinate(address)
                )
            )
        sched.start()
        engine.run_until(0)
        # The very first refresh avoided the loaded bank 0.
        assert 0 not in sched.stats.per_bank_commands


class TestAdaptiveRefresh:
    def test_defaults_to_1x_under_low_load(self):
        engine, timing, mc, sched = build("adaptive")
        sched.start()
        engine.run_until(timing.trefw - 1)
        # No demand traffic -> utilization 0 -> stays 1x all-bank.
        assert sched.mode_switches == 0
        n = timing.refreshes_per_bank
        for flat in range(16):
            assert n <= sched.stats.per_bank_commands[flat] <= n + 1

    def test_row_unit_accounting(self):
        engine, timing, mc, sched = build("adaptive")
        sched.start()
        engine.run_until(timing.trefw - 1)
        expected_units = 16 * timing.refreshes_per_bank
        assert expected_units <= sched.stats.rows_refreshed_units <= expected_units + 16

    def test_switches_to_4x_when_bus_busy(self):
        engine, timing, mc, sched = build("adaptive")
        sched.start()
        # Fake a busy bus by inflating the busy counter mid-run.
        bus = mc.bus_for_channel(0)

        def load_bus():
            bus.busy_cycles += timing.trefi_ab * AdaptiveRefresh.decision_intervals

        engine.schedule(1, load_bus)
        engine.run_until(timing.trefi_ab * AdaptiveRefresh.decision_intervals + 1)
        assert sched._mode.value == 4
        assert sched.mode_switches == 1
