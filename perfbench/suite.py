"""The benchmark's four workloads, each driven through ``repro``'s public API.

Every workload follows one shape: :meth:`Workload.setup` builds the
specs (and for the service starts the server), :meth:`Workload.op` is
one timed unit of work repeated in a closed loop, and
:meth:`Workload.between` and :meth:`Workload.finish` make the untimed
disk-cache reads and the remaining output checks.  Failures are counted, never raised: a digest mismatch, an
``error`` frame, a ``ServiceError`` or a dropped connection each adds
one failed operation.

Simulated results are checked, not reported as end-to-end metrics.  At
the default seed the simulator workloads must reproduce pinned digests;
at any other seed every repetition must agree with the first.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from repro import api
from repro.core.simulator import build_system_from_spec
from repro.core.system import System
from repro.errors import ReproError
from repro.experiments.cache import ResultCache
from repro.service.client import ServiceClient

clock = time.perf_counter

#: ``SystemConfig.seed``'s default: the seed the pinned digests hold at.
DEFAULT_SEED = 1

#: (result digest, engine events) per simulator workload at the default
#: seed.  WL-6 continues the ``wl6_codesign_end_to_end`` trajectory of
#: the BENCH_*.json reports.
PINNED_RUNS = {
    "WL-6": ("8f307e46e0be2582d41cdbdfa3ce604b7b7649abd3204beabfcacda96ddf6423", 385525),
    "WL-7": ("0bc57161548ea3a5631834f4c782662dad8e538c90865e2f64e0a773015eb69e", 429092),
}

#: Disk-cache re-reads of a single-run workload's result after each run
#: (~1.5 ms each).  Interleaved with the runs so that they sample the same
#: host conditions.
CACHE_READS = 40

SWEEP_MIXES = ("WL-2", "WL-4")
SWEEP_POLICIES = (
    "no_refresh", "all_bank", "per_bank", "ooo_per_bank",
    "adaptive", "elastic", "pausing", "codesign",
)
SWEEP_JOBS = 2
#: Fully disk-cached re-runs of the sweep after each sweep (~20 ms each).
CACHE_SWEEPS = 10
#: Per-cell result digests of the refresh-policy sweep at the default seed.
PINNED_SWEEP = {
    "WL-2/adaptive": "2608984b5353ddc802a9b2c034c7fbc1dcf64729134b5450d6980845cfa8dfd2",
    "WL-2/all_bank": "d6e7d623659639f59cb20949c085a035206a20fe2f62f3a43739d4fcddf6d825",
    "WL-2/codesign": "2232a3fc3b10e5f07d9126c6eed6c29d4c4dd92e685f8724064c1767b5050387",
    "WL-2/elastic": "84b7d6fcfbfa949d08731df269d32ad8e3a7bd653c97c40e76d496707c062499",
    "WL-2/no_refresh": "136aa63949c2bc67ae2fdce3fbf6388d2de24143c2d0b0376678ab45f5d0bf16",
    "WL-2/ooo_per_bank": "570728444ad94607c5936c4d808b8951896283987f769e8c72b3378e6ee86a78",
    "WL-2/pausing": "e24bc9e81b69bb3c9145a4a189bc4cbb64df8f4f600a4e2a7c79279b4126e1bb",
    "WL-2/per_bank": "2ee446f6b42a9802653c4616277ba81dd9f6108674c4cc1391b136d15ddeb153",
    "WL-4/adaptive": "ce6137ddaed91862b6a0da1838ab1a71dde99a3741c65a3e066337413730f85a",
    "WL-4/all_bank": "23a7df3c6f1338536ebd8863bd6cadd44d2b51008235375f18111d1c78f6c21b",
    "WL-4/codesign": "ae6f4d1dad270a12d4c7d9d9ef453dc2a1ae2eea9cc708d136341d0b689f070c",
    "WL-4/elastic": "bd1096aabb64af1a2a020f66a6f2caf9c7803c4d7da09d55191d8abc54fc87bc",
    "WL-4/no_refresh": "2f3c1d33c34f09bc76d32c99da49040df7ca75420be0f8fafccd339fa99f164e",
    "WL-4/ooo_per_bank": "e569c938982a0de07884768d8992baa851cc2c7641f3c40d90e0a79cd8c48c03",
    "WL-4/pausing": "00acc803ab25a18caa8f3640952d86be046c539257af7001ddbbbd69ba56f5d4",
    "WL-4/per_bank": "4a889d85883d284a3586d3f1a1bbb0422e7a095ffb0194d3a8cb9af549340a0c",
}

SERVICE_MIXES = ("WL-2", "WL-6", "WL-9")
SERVICE_SCENARIOS = ("no_refresh", "all_bank", "per_bank", "codesign")
#: Requests per connection per round; two connections make a round of 400.
ROUND_STEPS = 200
#: Step indices at which both connections submit the same fresh spec.
PAIR_STEPS = tuple(12 + 25 * i for i in range(8))
#: Step indices of each connection's two single fresh submissions.
SINGLE_STEPS = ((30, 130), (80, 180))
#: Rounds whose fresh specs are re-read from the disk cache after the
#: restart; the timed loop always runs at least this many.
CACHE_ROUNDS = 8


def digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def instructions(result) -> int:
    return sum(task.instructions for task in result.tasks)


class OpRecord(NamedTuple):
    """One timed operation: its wall, request latencies and the simulated
    instructions of the runs it executed."""

    wall: float
    latencies: list[float]
    instructions: int


class Workload:
    #: Fewest operations a timed loop runs, however long they take.
    min_ops = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.cache_latencies: list[float] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(why)

    def setup(self, probe: bool = False) -> None:
        raise NotImplementedError

    def op(self) -> OpRecord:
        raise NotImplementedError

    def between(self) -> None:
        """Disk-cache reads after each operation of an untraced loop,
        appended to :attr:`cache_latencies`."""

    def finish(self) -> list[float]:
        """Last cache-hit reads and output checks; returns every cache-hit
        latency in seconds."""
        if not self.cache_latencies:
            self.between()
        return self.cache_latencies

    def teardown(self) -> None:
        pass

    def model_results(self) -> list:
        """The results the ``model.*`` metrics average over."""
        raise NotImplementedError

    # -- traced runs -------------------------------------------------------------

    def traced_op(self, tracer) -> OpRecord:
        with tracer.root("op"):
            return self.op()

    def trace_begin(self) -> None:
        pass

    def trace_end(self, ops: int) -> None:
        pass

    def traced_instructions(self, records: list[OpRecord]) -> int:
        return records[0].instructions

    def traced_refresh_commands(self) -> int:
        return sum(result.refresh_commands for result in self.model_results())

    def service_layers(self) -> dict:
        return {}


# -- simulator workloads ------------------------------------------------------


class _EventCounter:
    """Records the engine event count of the last ``System.run`` in this
    process: one wrapper call per run, nothing on the hot path."""

    def __init__(self):
        self.events = None
        self._original = original = System.run

        def run(system, *args, **kwargs):
            result = original(system, *args, **kwargs)
            self.events = system.engine.events_processed
            return result

        System.run = run

    def remove(self) -> None:
        System.run = self._original


class SingleRun(Workload):
    """Sequential ``run_spec`` calls of one full-length spec, one caller."""

    def __init__(self, mix: str, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.mix = mix
        self.expected = PINNED_RUNS[mix] if seed == DEFAULT_SEED else None
        self.result = None
        self.counter = None

    def setup(self, probe: bool = False) -> None:
        self.spec = api.make_run_spec(
            self.mix, "codesign", refresh_scale=64, seed=self.seed
        )
        if probe:
            build_system_from_spec(self.spec)
        else:
            self.counter = _EventCounter()

    def teardown(self) -> None:
        if self.counter is not None:
            self.counter.remove()
            self.counter = None

    def op(self) -> OpRecord:
        self.attempted += 1
        start = clock()
        try:
            result = api.run_spec(self.spec)
        except Exception as exc:  # a crashed run is a failed operation
            self.fail(1, f"run_spec raised {exc!r}")
            return OpRecord(clock() - start, [], 0)
        wall = clock() - start
        observed = (digest(result), self.counter.events)
        if self.expected is None:
            self.expected = observed
        want_digest, want_events = self.expected
        if observed != (want_digest, want_events):
            self.fail(1, f"{self.mix} run gave {observed}, want {self.expected}")
        self.result = result
        return OpRecord(wall, [wall], instructions(result))

    def between(self) -> None:
        """Re-read this spec's result from a disk cache that holds it."""
        if self.result is None:
            return
        cache_dir = self.workdir / "cache"
        ResultCache(cache_dir).put(self.spec.content_hash(), self.spec, self.result)
        want = digest(self.result)
        latencies = self.cache_latencies
        for _ in range(CACHE_READS):
            self.attempted += 1
            start = clock()
            try:
                served = api.sweep(
                    [self.mix], ["codesign"], jobs=1, cache_dir=cache_dir,
                    refresh_scale=64, seed=self.seed,
                )
            except Exception as exc:
                self.fail(1, f"cached sweep raised {exc!r}")
                continue
            latencies.append(clock() - start)
            if [digest(r) for r in served.values()] != [want]:
                self.fail(1, "disk-cached sweep result differs from the run")

    def model_results(self) -> list:
        return [self.result] if self.result is not None else []


class PolicySweep(Workload):
    """``repro.api.sweep`` over 2 low-MPKI mixes x 8 refresh policies,
    warm-started from one all-bank prefix, 2 worker processes, each sweep
    into a fresh, empty cache directory."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.expected = dict(PINNED_SWEEP) if seed == DEFAULT_SEED else None
        self.results: dict[str, object] = {}
        self.count = 0

    def _sweep(self, cache_dir: Path, jobs: int = SWEEP_JOBS) -> dict:
        return api.sweep(
            SWEEP_MIXES, SWEEP_POLICIES, jobs=jobs, cache_dir=cache_dir,
            refresh_scale=16, warmup_scenario="all_bank", seed=self.seed,
        )

    def setup(self, probe: bool = False) -> None:
        specs = api.sweep_specs(
            SWEEP_MIXES, SWEEP_POLICIES, refresh_scale=16,
            warmup_scenario="all_bank", seed=self.seed,
        )
        self.cells = {
            spec.content_hash(): f"{spec.workload_name}/{spec.scenario.name}"
            for spec in specs
        }
        if probe:
            build_system_from_spec(specs[0])

    def _check(self, results: dict) -> None:
        self.attempted += len(self.cells)
        observed = {
            self.cells.get(key, key): digest(result) for key, result in results.items()
        }
        if self.expected is None:
            self.expected = observed
        bad = [
            cell for cell in self.expected if observed.get(cell) != self.expected[cell]
        ]
        bad += [cell for cell in observed if cell not in self.expected]
        if bad:
            self.fail(len(bad), f"sweep cells differ: {sorted(bad)}")

    def op(self) -> OpRecord:
        if self.count:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.count += 1
        self.cache_dir = self.workdir / f"sweep{self.count}"
        start = clock()
        try:
            results = self._sweep(self.cache_dir)
        except Exception as exc:  # a crashed sweep fails every cell
            self.attempted += len(self.cells)
            self.fail(len(self.cells), f"sweep raised {exc!r}")
            return OpRecord(clock() - start, [], 0)
        wall = clock() - start
        self._check(results)
        self.results = results
        return OpRecord(wall, [wall], sum(instructions(r) for r in results.values()))

    def between(self) -> None:
        """Re-run the sweep over the cache the last sweep filled."""
        if not self.results:
            return
        latencies = self.cache_latencies
        for _ in range(CACHE_SWEEPS):
            start = clock()
            try:
                results = self._sweep(self.cache_dir, jobs=1)
            except Exception as exc:
                self.attempted += len(self.cells)
                self.fail(len(self.cells), f"cached sweep raised {exc!r}")
                continue
            latencies.append(clock() - start)
            self._check(results)

    def model_results(self) -> list:
        return list(self.results.values())


# -- service workload ---------------------------------------------------------


def subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


class Server:
    """A ``python -m repro serve --backend thread`` subprocess."""

    def __init__(self, cache_dir: Path, log_path: Path):
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--backend", "thread",
                "--jobs", "2", "--port", "0", "--cache-dir", str(cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=subprocess_env(),
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            line = self.proc.stdout.readline().decode() if ready else ""
            match = re.search(r"listening on [^ ]*:(\d+) ", line)
            if match is None:
                raise ReproError(f"server did not start: {line!r}")
            self.port = int(match.group(1))
            self.client().close()
        except BaseException:
            self.stop()
            raise

    def client(self) -> ServiceClient:
        """A connected client whose ping has been answered."""
        client = ServiceClient(port=self.port, timeout=120, connect_retries=5)
        client.ping()
        return client

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with ServiceClient(port=self.port, timeout=10) as client:
                    client.shutdown()
                self.proc.wait(timeout=30)
            except (ReproError, OSError, AttributeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def small_spec(mix: str, scenario: str, seed: int):
    return api.make_run_spec(
        mix, scenario, num_windows=0.1, refresh_scale=1024, seed=seed
    )


class ServiceResubmit(Workload):
    """Closed-loop traffic from 2 connections against a thread-backend
    server: ~95% resubmissions of a 12-spec hot set (memo tier), the rest
    fresh small specs (executed, dedup for concurrent twins), then a
    restart over the same cache and one disk-cache read per spec."""

    min_ops = CACHE_ROUNDS

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.tracer = None
        self.layers: dict = {}
        self.trace_latencies: list[float] = []
        self.rng = random.Random(seed)
        self.used_seeds = {seed}
        self.rounds = 0
        self.server = None
        self.clients: list[ServiceClient | None] = []
        self.served: list[tuple[object, object]] = []  # (spec, result) to verify
        self.verify: list = []  # specs re-read from the disk cache
        self.hot_results: list = []

    def setup(self, probe: bool = False) -> None:
        self.hot = [
            small_spec(mix, scenario, self.seed)
            for mix in SERVICE_MIXES for scenario in SERVICE_SCENARIOS
        ]
        self.cache_dir = self.workdir / "service-cache"
        self.server = Server(self.cache_dir, self.workdir / "server.log")
        if probe:
            return
        self.clients = [self.server.client() for _ in range(2)]
        for spec in self.hot:  # fill the memo tier before timing
            self.attempted += 1
            try:
                result, _ = self.clients[0].submit(spec)
            except Exception as exc:
                self.fail(1, f"warm-up submit raised {exc!r}")
                continue
            self.served.append((spec, result))
            self.hot_results.append(result)
        self.verify.extend(self.hot)

    def teardown(self) -> None:
        self._close_clients()
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _fresh_seed(self) -> int:
        while True:
            seed = self.rng.randrange(1 << 31)
            if seed not in self.used_seeds:
                self.used_seeds.add(seed)
                return seed

    def plan_round(self) -> list[list[tuple[str, object]]]:
        """Both connections' steps for one round, drawn from the seed.

        Each round submits one fresh spec per mix x scenario.  WL-2 specs
        run for about a millisecond, less than it takes the twin of a
        concurrent pair to arrive, so they go single and only the longer
        WL-6/WL-9 specs are submitted by both connections at once."""
        combos = [(m, s) for m in SERVICE_MIXES for s in SERVICE_SCENARIOS]
        self.rng.shuffle(combos)
        fresh = [small_spec(m, s, self._fresh_seed()) for m, s in combos]
        pairs = [spec for spec in fresh if spec.workload_name != "WL-2"]
        singles = [spec for spec in fresh if spec.workload_name == "WL-2"]
        if self.rounds < CACHE_ROUNDS:
            self.verify.extend(fresh)
        plan = []
        for conn in range(2):
            steps = [
                ("hot", self.hot[self.rng.randrange(len(self.hot))])
                for _ in range(ROUND_STEPS)
            ]
            for index, spec in zip(PAIR_STEPS, pairs):
                steps[index] = ("pair", spec)
            for index, spec in zip(SINGLE_STEPS[conn], singles[2 * conn:]):
                steps[index] = ("fresh", spec)
            plan.append(steps)
        return plan

    def _drive(self, conn: int, steps, barrier, out: dict) -> None:
        if self.tracer is None:
            self._steps(conn, steps, barrier, out)
        else:
            with self.tracer.root("conn"):
                self._steps(conn, steps, barrier, out)

    def _steps(self, conn: int, steps, barrier, out: dict) -> None:
        latencies, executed, keep = [], 0, self.rounds <= CACHE_ROUNDS
        served, failures = [], []
        for kind, spec in steps:
            if kind == "pair":
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    failures.append("pair barrier broke")
                    continue
            client = self.clients[conn]
            if client is None:
                failures.append("connection lost")
                continue
            start = clock()
            try:
                result, source = client.submit(spec)
            except Exception as exc:  # error frame, ServiceError, dropped socket
                failures.append(f"submit raised {exc!r}")
                self.clients[conn] = self._reconnect(client)
                continue
            latencies.append(clock() - start)
            if source == "executed":
                executed += instructions(result)
            if keep:
                served.append((spec, result))
        out[conn] = (latencies, executed, served, failures)

    def _reconnect(self, client: ServiceClient) -> ServiceClient | None:
        try:
            client.close()
        except OSError:
            pass
        try:
            return self.server.client()
        except (ReproError, OSError):
            return None

    def _close_clients(self) -> None:
        for client in self.clients:
            if client is not None:
                client.close()
        self.clients = []

    def op(self) -> OpRecord:
        plan = self.plan_round()
        self.rounds += 1
        barrier = threading.Barrier(2, timeout=120)
        out: dict = {}
        threads = [
            threading.Thread(target=self._drive, args=(conn, plan[conn], barrier, out))
            for conn in range(2)
        ]
        start = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = clock() - start
        latencies, executed = [], 0
        for conn in range(2):
            lat, instr, served, failures = out[conn]
            latencies += lat
            executed += instr
            self.served += served
            for why in failures:
                self.fail(1, why)
        self.attempted += 2 * ROUND_STEPS
        if self.tracer is not None:
            self.trace_latencies += latencies
        return OpRecord(wall, latencies, executed)

    def traced_op(self, tracer) -> OpRecord:
        self.tracer = tracer
        try:
            return self.op()
        finally:
            self.tracer = None

    def trace_begin(self) -> None:
        self.before = self.clients[0].metrics()

    def trace_end(self, ops: int) -> None:
        """Per-round tier counts and server-side resolve latency of the
        traced rounds, from the server's ``metrics`` op."""
        after = self.clients[0].metrics()
        tiers_before = self.before["deterministic"]["tiers"]
        for tier, hits in after["deterministic"]["tiers"].items():
            per_round = (hits - tiers_before.get(tier, 0)) / ops
            self.layers[tier] = int(per_round) if per_round.is_integer() else per_round
        buckets: dict[float, int] = {}
        for when, sign in ((after, 1), (self.before, -1)):
            for snapshot in when["wall"].values():
                for edge, count in snapshot["buckets"].items():
                    edge = float(edge)  # "+Inf" parses to inf
                    buckets[edge] = buckets.get(edge, 0) + sign * count
        resolve = histogram_median(buckets) / 1e3
        self.layers["resolve_ms_p50"] = resolve
        self.layers["wire_ms_p50"] = statistics.median(self.trace_latencies) * 1e3 - resolve

    def traced_instructions(self, records: list[OpRecord]) -> int:
        return 0  # the simulator runs in the server process, untraced

    def traced_refresh_commands(self) -> int:
        return 0

    def service_layers(self) -> dict:
        return self.layers

    def finish(self) -> list[float]:
        """Restart over the same cache, read every verified spec back from
        disk, then check served results against local ``run_spec``."""
        self._close_clients()
        self.server.stop()
        self.server = Server(self.cache_dir, self.workdir / "server.log")
        client = self.server.client()
        self.clients = [client]
        latencies = []
        for spec in self.verify:
            self.attempted += 1
            start = clock()
            try:
                result, source = client.submit(spec)
            except Exception as exc:
                self.fail(1, f"cache read raised {exc!r}")
                continue
            latencies.append(clock() - start)
            if source != "cache":
                self.fail(1, f"restarted server answered from {source!r}, not the disk cache")
            self.served.append((spec, result))
        self.layers["cache"] = client.metrics()["deterministic"]["tiers"]["cache"]
        local: dict[int, str] = {}
        for spec, result in self.served:
            key = id(spec)
            if key not in local:
                local[key] = digest(api.run_spec(spec))
            if digest(result) != local[key]:
                self.fail(1, f"served result differs from local run_spec for {spec.workload_name}")
        return latencies

    def model_results(self) -> list:
        return self.hot_results


WORKLOADS = {
    "wl6_codesign": functools.partial(SingleRun, "WL-6"),
    "wl7_stream_writes": functools.partial(SingleRun, "WL-7"),
    "refresh_policy_sweep": PolicySweep,
    "service_resubmit": ServiceResubmit,
}


def histogram_median(buckets: dict[float, int]) -> float:
    """Median of a histogram with power-of-two bucket edges (inclusive
    upper bounds), interpolated linearly inside the bucket holding it."""
    target, seen = sum(buckets.values()) / 2, 0
    for edge in sorted(buckets):
        count = buckets[edge]
        if count and seen + count >= target:
            if edge == float("inf"):
                return max(e for e in buckets if e != edge)
            return edge / 2 + (edge / 2) * (target - seen) / count
        seen += count
    return 0.0
