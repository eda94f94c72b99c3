"""The declarative factorial run table behind ``repro loadtest``.

Modeled on muBench-style replication packages: an experiment is *declared*
up front as a cartesian product of factors (topology family x fragment
count x engine x executor x batch size x arrival rate) with explicit
repetitions, then executed run by run.  Each run gets a **stable,
human-readable run id** that encodes every factor level, and a **seed
derived deterministically from that id** -- two executions of the same
run id therefore plan byte-identical arrival schedules and query mixes
(timing aside), which is what makes per-run artifacts comparable across
machines and the ``bytes_on_wire`` column exactly reproducible.

The table is engine-agnostic by construction: a run spec names its
engine and topology family by string, and :func:`build_cluster` resolves
the family through :data:`TOPOLOGY_BUILDERS` -- a future query class
(e.g. graph reachability) adds a builder and new factor levels, not a
new harness.

Factor semantics over the serving tier:

* ``executor`` selects how site work *really* executes behind the
  gateway: ``"inline"`` (asyncio site servers on the serving loop
  thread) or ``"process"`` (one real child process per site).  The
  serial/threads/process executors of the in-process engines do not
  apply here -- the coordinator always dispatches sites through its
  ``RemoteSiteExecutor``.
* ``arrival_rate`` is the *open-loop* target (requests/second scheduled
  by target time), never a closed-loop RPS knob; see
  :mod:`repro.loadgen.client`.

Two presets: :func:`quick_table` (a few runs; the CI regression gate)
and :func:`default_table` (the full factorial; minutes, run locally).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterator, Tuple

from repro.distsim.cluster import Cluster
from repro.workloads.topologies import chain_ft2, star_ft1

#: Topology family name -> builder ``(fragments, total_mb, seed=, nodes_per_mb=)``.
TOPOLOGY_BUILDERS: Dict[str, Callable[..., Cluster]] = {
    "star": star_ft1,
    "chain": chain_ft2,
}

#: Site-execution modes a run spec may name (``ServingCluster`` site modes).
EXECUTOR_MODES = ("inline", "process")

#: Arrival processes :func:`repro.loadgen.client.plan_arrivals` implements.
ARRIVAL_MODES = ("poisson", "fixed")


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined run: every factor level plus the scale knobs."""

    run_id: str
    scale: str
    topology: str
    fragments: int
    engine: str
    executor: str
    batch_size: int
    arrival_rate: float
    arrival: str
    requests: int
    repetition: int
    seed: int
    total_mb: float
    nodes_per_mb: int

    def factor_levels(self) -> Dict[str, object]:
        """The factor columns, as they appear in ``run_table.csv``."""
        return {
            "topology": self.topology,
            "fragments": self.fragments,
            "engine": self.engine,
            "executor": self.executor,
            "batch_size": self.batch_size,
            "arrival_rate": self.arrival_rate,
            "arrival": self.arrival,
        }


def derive_seed(run_id: str, base_seed: int) -> int:
    """A stable per-run seed: CRC32 of the run id folded with the base.

    ``zlib.crc32`` is specified byte-for-byte by the zlib format, so the
    derivation is identical across Python versions and machines -- the
    property the determinism tests pin down.
    """
    return (zlib.crc32(run_id.encode("utf-8")) ^ (base_seed & 0xFFFFFFFF)) & 0x7FFFFFFF


def make_run_id(
    topology: str,
    fragments: int,
    engine: str,
    executor: str,
    batch_size: int,
    arrival_rate: float,
    arrival: str,
    repetition: int,
) -> str:
    """The canonical run id: every factor level, readable and greppable."""
    return (
        f"{topology}-f{fragments}-{engine}-{executor}"
        f"-b{batch_size}-r{arrival_rate:g}-{arrival}-rep{repetition}"
    )


@dataclass(frozen=True)
class RunTable:
    """A declared factorial experiment over the serving tier.

    ``specs()`` expands the cartesian product of the factor tuples x
    ``repetitions`` into :class:`RunSpec` rows, in a stable order
    (factors vary slowest-to-fastest in declaration order, repetitions
    innermost).  The table itself carries the scalar knobs every run
    shares: requests per run, document scale, base seed.
    """

    scale: str = "custom"
    topologies: Tuple[str, ...] = ("star",)
    fragments: Tuple[int, ...] = (3,)
    engines: Tuple[str, ...] = ("parbox",)
    executors: Tuple[str, ...] = ("inline",)
    batch_sizes: Tuple[int, ...] = (2,)
    arrival_rates: Tuple[float, ...] = (30.0,)
    arrival: str = "poisson"
    requests: int = 10
    repetitions: int = 1
    total_mb: float = 0.05
    nodes_per_mb: int = 24
    base_seed: int = 7
    #: Gateway admission control for every run (generous by default so
    #: the quick gate measures latency, not shedding).
    max_inflight: int = 8
    max_queue: int = 16

    def __post_init__(self) -> None:
        for topology in self.topologies:
            if topology not in TOPOLOGY_BUILDERS:
                raise ValueError(
                    f"unknown topology family {topology!r}; "
                    f"choose from {sorted(TOPOLOGY_BUILDERS)}"
                )
        for executor in self.executors:
            if executor not in EXECUTOR_MODES:
                raise ValueError(
                    f"unknown executor mode {executor!r}; choose from {EXECUTOR_MODES}"
                )
        if self.arrival not in ARRIVAL_MODES:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; choose from {ARRIVAL_MODES}"
            )
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if any(rate <= 0 for rate in self.arrival_rates):
            raise ValueError("arrival rates must be > 0")
        if any(batch < 1 for batch in self.batch_sizes):
            raise ValueError("batch sizes must be >= 1")

    def __len__(self) -> int:
        return (
            len(self.topologies)
            * len(self.fragments)
            * len(self.engines)
            * len(self.executors)
            * len(self.batch_sizes)
            * len(self.arrival_rates)
            * self.repetitions
        )

    def specs(self) -> Iterator[RunSpec]:
        for topology in self.topologies:
            for fragments in self.fragments:
                for engine in self.engines:
                    for executor in self.executors:
                        for batch_size in self.batch_sizes:
                            for rate in self.arrival_rates:
                                for rep in range(self.repetitions):
                                    run_id = make_run_id(
                                        topology,
                                        fragments,
                                        engine,
                                        executor,
                                        batch_size,
                                        rate,
                                        self.arrival,
                                        rep,
                                    )
                                    yield RunSpec(
                                        run_id=run_id,
                                        scale=self.scale,
                                        topology=topology,
                                        fragments=fragments,
                                        engine=engine,
                                        executor=executor,
                                        batch_size=batch_size,
                                        arrival_rate=rate,
                                        arrival=self.arrival,
                                        requests=self.requests,
                                        repetition=rep,
                                        seed=derive_seed(run_id, self.base_seed),
                                        total_mb=self.total_mb,
                                        nodes_per_mb=self.nodes_per_mb,
                                    )

    def run_ids(self) -> Tuple[str, ...]:
        return tuple(spec.run_id for spec in self.specs())

    def describe(self) -> str:
        parts = [
            f"{len(self)} runs @ {self.scale} scale "
            f"({self.requests} requests each, {self.arrival} arrivals)",
            f"  topology x {list(self.topologies)}",
            f"  fragments x {list(self.fragments)}",
            f"  engine x {list(self.engines)}",
            f"  executor x {list(self.executors)}",
            f"  batch_size x {list(self.batch_sizes)}",
            f"  arrival_rate x {list(self.arrival_rates)}",
            f"  repetitions x {self.repetitions}",
        ]
        return "\n".join(parts)


def build_cluster(spec: RunSpec) -> Cluster:
    """The simulated cluster a run spec declares (deterministic per seed)."""
    builder = TOPOLOGY_BUILDERS[spec.topology]
    return builder(
        spec.fragments,
        spec.total_mb,
        seed=spec.seed % 10_000,
        nodes_per_mb=spec.nodes_per_mb,
    )


def quick_table(**overrides) -> RunTable:
    """The CI-budget preset: 4 runs, inline sites, one engine.

    Small enough that the whole table (boot + load + scrape per run)
    finishes in about a minute, yet still factorial -- topology family
    and arrival rate both vary, so ``analyze`` has per-factor deltas to
    compute and the regression gate covers two load levels.
    """
    params = dict(
        scale="quick",
        topologies=("star", "chain"),
        fragments=(3,),
        engines=("parbox",),
        executors=("inline",),
        batch_sizes=(2,),
        arrival_rates=(30.0, 60.0),
        arrival="poisson",
        requests=10,
        repetitions=1,
        total_mb=0.05,
        nodes_per_mb=24,
        base_seed=7,
    )
    params.update(overrides)
    return RunTable(**params)


def default_table(**overrides) -> RunTable:
    """The full factorial: 32 runs across every axis (minutes, local)."""
    params = dict(
        scale="default",
        topologies=("star", "chain"),
        fragments=(3, 6),
        engines=("parbox", "fulldist"),
        executors=("inline", "process"),
        batch_sizes=(2, 8),
        arrival_rates=(40.0,),
        arrival="poisson",
        requests=24,
        repetitions=1,
        total_mb=0.2,
        nodes_per_mb=40,
        base_seed=7,
    )
    params.update(overrides)
    return RunTable(**params)


def table_for_scale(scale: str, **overrides) -> RunTable:
    """The ``quick`` or ``default`` run table, with field overrides applied."""
    if scale == "quick":
        return quick_table(**overrides)
    if scale == "default":
        return default_table(**overrides)
    raise ValueError(f"unknown scale {scale!r}; choose quick or default")


_SPEC_FIELDS = tuple(f.name for f in fields(RunSpec))


def spec_from_row(row: Dict[str, object]) -> RunSpec:
    """Rebuild a :class:`RunSpec` from a ``run_table.csv`` row dict."""
    kwargs = {}
    for name in _SPEC_FIELDS:
        if name not in row:
            raise ValueError(f"row is missing spec field {name!r}")
        kwargs[name] = row[name]
    ints = (
        "fragments",
        "batch_size",
        "requests",
        "repetition",
        "seed",
        "nodes_per_mb",
    )
    floats = ("arrival_rate", "total_mb")
    for name in ints:
        kwargs[name] = int(kwargs[name])
    for name in floats:
        kwargs[name] = float(kwargs[name])
    return RunSpec(**kwargs)


__all__ = [
    "ARRIVAL_MODES",
    "EXECUTOR_MODES",
    "TOPOLOGY_BUILDERS",
    "RunSpec",
    "RunTable",
    "build_cluster",
    "default_table",
    "derive_seed",
    "make_run_id",
    "quick_table",
    "spec_from_row",
    "table_for_scale",
]
