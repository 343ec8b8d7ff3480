#!/usr/bin/env python3
"""Extending the library: plug in a custom refresh scheduler.

Implements a "lazy half-rate" refresh scheduler (refreshing at half the
required rate — as a *what-if* for future DRAM with longer retention) by
subclassing :class:`repro.dram.refresh.base.RefreshScheduler`, registers it
in the scheduler registry, and compares it against the standard schemes.

This mirrors how RAIDR-style retention-aware proposals would slot into the
framework (they skip refreshes for strong rows — here approximated by a
uniform rate cut).
"""

from repro import api
from repro.core.system import SCENARIOS, Scenario
from repro.dram.refresh import REGISTRY
from repro.dram.refresh.base import RefreshScheduler
from repro.experiments.report import format_percent, format_table


class LazyHalfRateRefresh(RefreshScheduler):
    """Per-bank round-robin at half the standard command rate."""

    name = "lazy_half"

    def __init__(self):
        super().__init__()
        self._next_flat = 0

    def start(self) -> None:
        self.engine.schedule(0, self._fire)

    def _fire(self) -> None:
        mc = self.controller
        channel, rank, bank = mc.mapping.unflatten_bank_index(self._next_flat)
        mc.refresh_bank(channel, rank, bank, self.timing.trfc_pb)
        self.stats.record(self._next_flat)
        self._next_flat = (self._next_flat + 1) % mc.org.total_banks
        # Half rate: double the interval.  (Data integrity would need
        # retention-time profiling, as RAIDR does — see Section 7.)
        self.engine.schedule(2 * self.timing.trefi_pb, self._fire)


def main() -> None:
    # Register the custom scheduler and a scenario that uses it.
    REGISTRY["lazy_half"] = LazyHalfRateRefresh
    SCENARIOS["lazy_half"] = Scenario("lazy_half", "lazy_half")

    rows = []
    baseline = None
    for name in ("all_bank", "per_bank", "lazy_half", "codesign"):
        result = api.run("WL-8", name, num_windows=1.0)
        if baseline is None or name == "all_bank":
            baseline = result.hmean_ipc
        rows.append(
            [
                name,
                f"{result.hmean_ipc:.4f}",
                format_percent(result.hmean_ipc / baseline - 1.0),
                result.refresh_commands,
            ]
        )
    print(
        format_table(
            ["scheme", "hmean IPC", "vs all-bank", "refresh cmds"],
            rows,
            title="Custom refresh scheduler (WL-8, 32Gb)",
        )
    )


if __name__ == "__main__":
    main()
