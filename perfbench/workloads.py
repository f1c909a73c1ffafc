"""The benchmark's three workloads, driven only through the public API.

Every workload has the same shape: ``make_inputs`` builds the seeded inputs
that are not the program's own work (unclocked), ``setup`` is what a user
pays once per session or boot (graph build, baselines, queue boot and
warm-up ops), ``op`` is one timed closed-loop request, ``checks`` validates
every output, and ``layers`` turns the spans and counters of the traced ops
into per-layer metrics.  Op ``i`` uses compression seed ``op_seed(i)``, so a
workload seed fixes every input.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from repro import ArtifactStore, JobQueue, JobSpec, Session, build_scheme, execute_job
from repro.graphs import generators
from repro.obs import disable_tracing, enable_tracing, tracer
from repro.stream.incremental import maintainer_for
from repro.stream.ingest import GraphStream
from repro.theory import bounds
from repro.verify.properties import subgraph_invariants

from checks import (
    GraphFacts,
    at,
    bound_failures,
    cell_map,
    cells_differ,
    nonfinite_cells,
    same_graph,
)
from churn import ChurnGenerator

#: ``powerlaw_cluster`` shape shared by every workload graph.
M_ATTACH = 8
TRIANGLE_P = 0.3
#: Seconds a client waits for one service job before counting it failed.
JOB_TIMEOUT_S = 60.0


def derived_seed(*parts) -> int:
    """A 32-bit seed derived from the workload seed and a purpose tag."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def scheme_label(spec: str) -> str:
    """The label grid cells carry for ``spec``."""
    return build_scheme(spec).spec().to_string()


def mean_ratio(cells: dict) -> float:
    """Σ compressed edges / Σ original edges over a grid's schemes."""
    ratios = {key[0]: ratio for key, (_, ratio) in cells.items()}
    return float(np.mean(list(ratios.values())))


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


class Workload:
    name = ""
    #: Warm-up ops run inside ``setup`` (op indices ``0..warmups-1``).
    warmups = 1
    #: Ops a traced run of another workload makes when it probes this one.
    probe_ops = 2
    #: Per-layer metrics this workload measures itself: name -> (unit,
    #: base), the base being what one value covers ("op" = mean per traced
    #: op, "set-up" = one set-up, "run" = the whole measured run).
    LAYERS: dict[str, tuple[str, str]] = {}

    def __init__(self, seed: int, inputs, work_dir, spans):
        self.seed = seed
        self.inputs = inputs
        self.work_dir = work_dir
        self.spans = spans
        self.graph_seed = derived_seed(seed, 0)

    @classmethod
    def make_inputs(cls, seed: int):
        return None

    def op_seed(self, i: int) -> int:
        return derived_seed(self.seed, 1, i)

    def sampled_op(self, first: int, count: int) -> int:
        """One timed op other than the first, chosen by the workload seed."""
        if count < 2:
            return first
        rng = np.random.default_rng(derived_seed(self.seed, 2))
        return first + 1 + int(rng.integers(count - 1))

    def ready(self, i: int) -> None:
        """Make op ``i``'s input (outside the clock)."""

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, traced: bool) -> float:
        raise NotImplementedError

    def checks(self, first: int, count: int) -> list[tuple[int, str]]:
        raise NotImplementedError

    def kept_edge_ratio(self) -> float:
        raise NotImplementedError

    def layers(self) -> dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- #
# grid-25k: the paper pipeline in memory
# --------------------------------------------------------------------- #

GRID_N = 3125
#: Scheme spec -> per-layer metric stem.
GRID_SCHEMES = {
    "spanner(k=4)": "spanner",
    "EO-0.8-1-TR": "eo_tr",
    "cut_sparsifier(epsilon=0.5)": "cut_sparsifier",
    "summarization(epsilon=0.3)": "summarization",
    "uniform(p=0.5)": "uniform",
}
GRID_ALGORITHMS = ("bfs", "pr", "cc", "tc", "kcore", "mst")
#: bfs has no ``algorithms.*`` metric: its run is a no-op and its
#: critical-edge BFS happens inside ``CompressedRun.score``.
TIMED_ALGORITHMS = ("pr", "cc", "tc", "kcore", "mst")


class GridWorkload(Workload):
    """One in-memory ``Session.grid`` (jobs=1, no store) per op."""

    name = "grid-25k"
    LAYERS = {
        "graphs.generate_s": ("s", "set-up"),
        "analytics.baseline_s": ("s", "set-up"),
        **{f"compress.{stem}_s": ("s", "op") for stem in GRID_SCHEMES.values()},
        **{f"algorithms.{alg}_s": ("s", "op") for alg in TIMED_ALGORITHMS},
        "metrics.score_s": ("s", "op"),
        "analytics.unattributed_s": ("s", "op"),
        "graphs.analysis_hits": ("count", "op"),
        "graphs.analysis_misses": ("count", "op"),
    }

    def setup(self) -> None:
        with self.spans.span("graphs.generate"):
            self.graph = generators.powerlaw_cluster(
                GRID_N, M_ATTACH, TRIANGLE_P, seed=self.graph_seed
            )
        self.session = Session(self.graph)
        with self.spans.span("analytics.baseline"):
            for alg in GRID_ALGORITHMS:
                self.session.baseline(alg)
        self.cells: dict[int, tuple[int, dict]] = {}
        self.traced_cells: dict[int, dict] = {}
        self.unattributed: list[float] = []
        self.analysis: list[tuple[int, int]] = []
        for i in range(self.warmups):
            self.op(i, traced=False)

    def op(self, i: int, traced: bool) -> float:
        seed = self.op_seed(i)
        start = time.perf_counter()
        table = self.session.grid(GRID_SCHEMES, GRID_ALGORITHMS, seed=seed)
        latency = time.perf_counter() - start
        perf = self.session.last_grid_perf
        cache = perf["analysis_cache"]
        self.analysis.append((cache["hits"], cache["misses"]))
        self.cells[i] = (seed, cell_map(table))
        if not traced:
            return latency
        # The grid's own counters give its compression and algorithm time;
        # the rest of its wall, less metric scoring, is unattributed.
        algorithm_s = sum({(c.scheme, c.algorithm): c.compressed_seconds
                           for c in table}.values())
        traced_latency, score_s = self._traced_op(i, seed)
        self.unattributed.append(
            latency - perf["compress_seconds"] - algorithm_s - score_s
        )
        return traced_latency

    def _traced_op(self, i: int, seed: int) -> tuple[float, float]:
        """The grid just timed, again through ``compress``/``run``/``score``
        with spans; returns its wall time and its scoring time."""
        cells = {}
        start = time.perf_counter()
        with self.spans.span("op", index=i):
            for spec, stem in GRID_SCHEMES.items():
                with self.spans.span(f"compress.{stem}"):
                    run = self.session.compress(spec, seed=seed)
                for alg in GRID_ALGORITHMS:
                    with self.spans.span(f"algorithms.{alg}"):
                        run.run(alg)
                with self.spans.span("metrics.score", op=i):
                    report = run.score()
                for alg, scores in report.items():
                    for metric, value in scores.items():
                        cells[(scheme_label(spec), alg, metric)] = (
                            value,
                            run.compression_ratio,
                        )
        latency = time.perf_counter() - start
        self.traced_cells[i] = cells
        score_s = sum(r["end"] - r["start"] for r in self.spans.records
                      if r["name"] == "metrics.score" and r.get("op") == i)
        return latency, score_s

    def checks(self, first, count):
        out = []
        expected = len(GRID_SCHEMES) * len(GRID_ALGORITHMS)
        for i, (_, cells) in self.cells.items():
            if len(cells) != expected:
                out.append((i, f"{len(cells)} cells, expected {expected}"))
            out += at(i, nonfinite_cells(cells, f"op {i}"))
        for i, cells in self.traced_cells.items():
            grid_cells = self.cells[i][1]
            out += at(i, cells_differ(cells, grid_cells, f"traced op {i} vs its grid"))
        facts = GraphFacts(self.graph)
        for i in sorted({first, self.sampled_op(first, count)} & self.cells.keys()):
            seed, cells = self.cells[i]
            ratios = {key[0]: ratio for key, (_, ratio) in cells.items()}
            for spec in GRID_SCHEMES:
                run = self.session.compress(spec, seed=seed)
                if run.compression_ratio != ratios.get(scheme_label(spec)):
                    out.append((i, f"{spec}: recompressing seed {seed} gives "
                                   f"ratio {run.compression_ratio}, the grid "
                                   f"reported {ratios.get(scheme_label(spec))}"))
                out += at(i, bound_failures(spec, facts, run.graph))
        return out

    def kept_edge_ratio(self) -> float:
        return mean([mean_ratio(cells) for _, cells in self.cells.values()])

    def layers(self):
        traced = len(self.unattributed)
        out = {
            "graphs.generate_s": self.spans.total("graphs.generate"),
            "analytics.baseline_s": self.spans.total("analytics.baseline"),
            "metrics.score_s": self.spans.total("metrics.score") / traced,
        }
        for stem in GRID_SCHEMES.values():
            out[f"compress.{stem}_s"] = self.spans.total(f"compress.{stem}") / traced
        for alg in TIMED_ALGORITHMS:
            out[f"algorithms.{alg}_s"] = self.spans.total(f"algorithms.{alg}") / traced
        out["analytics.unattributed_s"] = mean(self.unattributed)
        out["graphs.analysis_hits"] = mean([h for h, _ in self.analysis])
        out["graphs.analysis_misses"] = mean([m for _, m in self.analysis])
        return out


# --------------------------------------------------------------------- #
# service-136k: pooled jobs through the in-process queue
# --------------------------------------------------------------------- #

SERVICE_N = 17000
SERVICE_GRAPH = "powerlaw-136k"
SERVICE_SCHEMES = (
    "uniform(p=0.5)",
    "EO-0.8-1-TR",
    "spanner(k=4)",
    "low_degree(max_degree=1)",
)
SERVICE_ALGORITHMS = ("bfs", "pr", "cc", "tc")
POOL_JOBS = 2


class ServiceWorkload(Workload):
    """One cold job per op: a fresh compression seed, so nothing replays.

    A traced op also resubmits the finished job (a pure store replay through
    the same queue) and runs it once more through ``execute_job`` directly,
    so the warm path is measured layer by layer.
    """

    name = "service-136k"
    LAYERS = {
        "graphs.generate_s": ("s", "set-up"),
        "analytics.baseline_s": ("s", "op"),
        "graphs.analysis_hits": ("count", "op"),
        "graphs.analysis_misses": ("count", "op"),
        "service.queue_wait_s": ("s", "op"),
        "service.exec_s": ("s", "op"),
        "service.wake_s": ("s", "op"),
        "service.warm_replay_s": ("s", "op"),
        "jobs.execute_s": ("s", "op"),
        "runner.compress_s": ("s", "op"),
        "runner.compressions": ("count", "op"),
        "runner.baseline_computations": ("count", "op"),
        "runner.worker_load_s": ("s", "op"),
        "runner.cache_hits": ("count", "op"),
        "runner.cache_misses": ("count", "op"),
        "runner.retries": ("count", "op"),
        "runner.pool_rebuilds": ("count", "op"),
        "store.hits": ("count", "op"),
        "store.misses": ("count", "op"),
        "store.writes": ("count", "op"),
    }

    def setup(self) -> None:
        with self.spans.span("graphs.generate"):
            self.graph = generators.powerlaw_cluster(
                SERVICE_N, M_ATTACH, TRIANGLE_P, seed=self.graph_seed
            )
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.store = ArtifactStore(self.work_dir / "store")
        self.queue = JobQueue(
            self.store,
            workers=1,
            pool_jobs=POOL_JOBS,
            ledger=self.work_dir / "ledger.jsonl",
            graph_loader=self._load_graph,
        )
        self.results: dict[int, tuple] = {}
        self.replays: dict[int, tuple] = {}
        self.traced: list[dict] = []
        for i in range(self.warmups):
            self.op(i, traced=False)

    def _load_graph(self, ref: str):
        if ref != SERVICE_GRAPH:
            raise ValueError(f"unknown graph {ref!r}")
        return self.graph

    def spec(self, seed: int) -> JobSpec:
        return JobSpec.build(
            SERVICE_GRAPH, SERVICE_SCHEMES, SERVICE_ALGORITHMS, seeds=(seed,)
        )

    def submit(self, spec: JobSpec):
        """Submit and wait; returns (finished record, client latency)."""
        start = time.perf_counter()
        record = self.queue.submit(spec)
        done = record.wait(JOB_TIMEOUT_S)
        latency = time.perf_counter() - start
        if not done:
            raise TimeoutError(
                f"job {record.id} still {record.state} after {JOB_TIMEOUT_S}s"
            )
        if record.result is None:
            raise RuntimeError(f"job {record.id} {record.state}: {record.error}")
        return record, latency

    def replay(self, i: int, spec: JobSpec):
        """Resubmit op ``i``'s finished job; returns (record, latency)."""
        record, latency = self.submit(spec)
        perf = record.result.perf
        cells = cell_map(record.result.table)
        self.replays[i] = (perf["cache_hits"], perf["cache_misses"], cells)
        return record, latency

    def op(self, i: int, traced: bool) -> float:
        seed = self.op_seed(i)
        spec = self.spec(seed)
        if traced:
            record, latency = self._traced_op(i, spec)
        else:
            record, latency = self.submit(spec)
        perf = record.result.perf
        cells = cell_map(record.result.table)
        self.results[i] = (seed, perf["cache_misses"], cells)
        return latency

    def _traced_op(self, i: int, spec: JobSpec):
        before = self.store.stats.snapshot()
        tracer().drain()
        enable_tracing()
        try:
            with self.spans.span("op", index=i):
                record, latency = self.submit(spec)
        finally:
            disable_tracing()
        program_spans = tracer().drain()
        with self.spans.span("service.warm_replay"):
            warm, warm_latency = self.replay(i, spec)
        after = self.store.stats.snapshot()
        # The same spec again, straight through the executor (no queue).
        with self.spans.span("jobs.execute"):
            start = time.perf_counter()
            execute_job(spec, store=self.store, graph_loader=self._load_graph)
            execute_s = time.perf_counter() - start
        perf, warm_perf = record.result.perf, warm.result.perf

        def spans_named(name):
            return [s["duration"] for s in program_spans if s["name"] == name]

        self.traced.append({
            "service.queue_wait_s": record.started_at - record.submitted_at,
            "service.exec_s": record.seconds,
            "service.wake_s": latency - (record.finished_at - record.submitted_at),
            "service.warm_replay_s": warm_latency,
            "jobs.execute_s": execute_s,
            "analytics.baseline_s": sum(spans_named("baseline")),
            "graphs.analysis_hits": perf["analysis_hits"],
            "graphs.analysis_misses": perf["analysis_misses"],
            "runner.compress_s": sum(spans_named("compress")),
            "runner.compressions": len(spans_named("compress")),
            "runner.baseline_computations": len(spans_named("baseline")),
            "runner.worker_load_s": sum(
                w["load_seconds"] for w in perf["workers"].values()
            ),
            # Counts from here on cover the cold job and its queued replay.
            "runner.cache_hits": perf["cache_hits"] + warm_perf["cache_hits"],
            "runner.cache_misses": perf["cache_misses"] + warm_perf["cache_misses"],
            "runner.retries": perf["retries"] + warm_perf["retries"],
            "runner.pool_rebuilds": perf["pool_rebuilds"] + warm_perf["pool_rebuilds"],
            "store.hits": after["hits"] - before["hits"],
            "store.misses": after["misses"] - before["misses"],
            "store.writes": after["writes"] - before["writes"],
        })
        return record, latency

    def checks(self, first, count):
        out = []
        expected = len(SERVICE_SCHEMES) * len(SERVICE_ALGORITHMS)
        for i, (_, misses, cells) in self.results.items():
            if len(cells) != expected:
                out.append((i, f"{len(cells)} cells, expected {expected}"))
            if misses != expected:
                out.append((i, f"cold job replayed {expected - misses} cells"))
            out += at(i, nonfinite_cells(cells, f"job {i}"))
        if first in self.results and first not in self.replays:
            self.replay(first, self.spec(self.results[first][0]))
        for i, (hits, misses, cells) in self.replays.items():
            if misses or hits != expected:
                out.append((i, f"replay computed {misses} cells, replayed {hits}"))
            cold = self.results[i][2]
            out += at(i, cells_differ(cells, cold, f"replay of job {i} vs the job"))
        reference = Session(self.graph)
        for i in sorted({first, self.sampled_op(first, count)} & self.results.keys()):
            seed, _, cells = self.results[i]
            table = reference.grid(SERVICE_SCHEMES, SERVICE_ALGORITHMS, seed=seed)
            want = cell_map(table)
            out += at(i, cells_differ(cells, want, f"job {i} vs in-process grid"))
        if first in self.results:
            # Bounds on the first job only: each recompresses 2.7e5 edges, and
            # the grid workload checks the same predicates on every run.
            facts = GraphFacts(self.graph)
            seed = self.results[first][0]
            for spec in SERVICE_SCHEMES:
                graph = reference.compress(spec, seed=seed).graph
                out += at(first, bound_failures(spec, facts, graph))
        return out

    def kept_edge_ratio(self) -> float:
        return mean([mean_ratio(cells) for _, _, cells in self.results.values()])

    def layers(self):
        out = {"graphs.generate_s": self.spans.total("graphs.generate")}
        for name in self.LAYERS:
            if name not in out:
                out[name] = mean([sample[name] for sample in self.traced])
        return out

    def close(self) -> None:
        queue = getattr(self, "queue", None)
        if queue is not None:
            queue.close(timeout=JOB_TIMEOUT_S)
        shutil.rmtree(self.work_dir, ignore_errors=True)


# --------------------------------------------------------------------- #
# stream-100k: churn batches through the incremental maintainers
# --------------------------------------------------------------------- #

STREAM_N = 12500
#: 1% churn of the ~1e5-edge base graph per batch.
STREAM_OPS = 999
STREAM_BATCH = 64
#: Maintained scheme spec -> per-layer metric stem.
STREAM_SCHEMES = {
    "spanner(k=4)": "spanner",
    "EO-0.8-1-TR": "eo_tr",
    "low_degree(max_degree=1)": "low_degree",
}


#: Seed of the stream's base graph and of its maintainers.  The spanner's
#: LDD output size varies about 3x with its seed on one graph, and with it
#: the repair/rebuild mix, so a per-run seed would make the run-to-run
#: spread the LDD's rather than the stream's; only the churn follows
#: ``--seed`` (see README.md).
STREAM_FIXED_SEED = 0


class StreamInputs:
    """The churn batches, generated ahead of the ops that use them."""

    def __init__(self, seed: int):
        base = generators.powerlaw_cluster(
            STREAM_N, M_ATTACH, TRIANGLE_P, seed=STREAM_FIXED_SEED
        )
        self.generator = ChurnGenerator(
            base, ops=STREAM_OPS, seed=derived_seed(seed, 3)
        )
        self.deltas: list = []

    def ensure(self, count: int) -> None:
        while len(self.deltas) < count:
            self.deltas += [self.generator.next_delta() for _ in range(STREAM_BATCH)]


class StreamWorkload(Workload):
    """One ``GraphStream.apply`` plus three maintainer updates per op."""

    name = "stream-100k"
    warmups = 5
    probe_ops = 40
    LAYERS = {
        "graphs.generate_s": ("s", "set-up"),
        "stream.apply_s": ("s", "op"),
        **{f"stream.{stem}_update_s": ("s", "op") for stem in STREAM_SCHEMES.values()},
        "stream.spanner_rebuilds": ("count", "run"),
        "stream.repairs": ("count", "run"),
    }

    def __init__(self, seed: int, inputs, work_dir, spans):
        super().__init__(seed, inputs, work_dir, spans)
        self.graph_seed = STREAM_FIXED_SEED

    @classmethod
    def make_inputs(cls, seed: int):
        inputs = StreamInputs(seed)
        inputs.ensure(cls.warmups)
        return inputs

    def ready(self, i: int) -> None:
        self.inputs.ensure(i + 1)

    def setup(self) -> None:
        with self.spans.span("graphs.generate"):
            graph = generators.powerlaw_cluster(
                STREAM_N, M_ATTACH, TRIANGLE_P, seed=self.graph_seed
            )
        self.stream = GraphStream(graph)
        self.maintainers = {}
        for spec, stem in STREAM_SCHEMES.items():
            maintainer = maintainer_for(spec, seed=self.graph_seed)
            maintainer.attach(graph)
            self.maintainers[stem] = maintainer
        self.traced_ops = 0
        self.kept_ratios: list[float] = []
        for i in range(self.warmups):
            self.op(i, traced=False)
        self.stats_after_setup = self._stats()

    def _stats(self) -> dict:
        return {stem: dict(m.stats) for stem, m in self.maintainers.items()}

    def op(self, i: int, traced: bool) -> float:
        delta = self.inputs.deltas[i]
        if not traced:
            start = time.perf_counter()
            head = self.stream.apply(delta)
            for maintainer in self.maintainers.values():
                maintainer.update(delta, head)
            latency = time.perf_counter() - start
        else:
            start = time.perf_counter()
            with self.spans.span("op", index=i):
                with self.spans.span("stream.apply"):
                    head = self.stream.apply(delta)
                for stem, maintainer in self.maintainers.items():
                    with self.spans.span(f"stream.{stem}_update"):
                        maintainer.update(delta, head)
            latency = time.perf_counter() - start
            self.traced_ops += 1
        kept = sum(m.compressed.num_edges for m in self.maintainers.values())
        self.kept_ratios.append(kept / (len(self.maintainers) * head.num_edges))
        return latency

    def rebuilds(self) -> int:
        now = self.maintainers["spanner"].stats["full_rebuilds"]
        return now - self.stats_after_setup["spanner"]["full_rebuilds"]

    def checks(self, first, count):
        last = first + count - 1
        head = self.stream.head
        facts = GraphFacts(head)
        out = []
        for spec, stem in STREAM_SCHEMES.items():
            maintainer = self.maintainers[stem]
            compressed = maintainer.compressed
            contract = subgraph_invariants(maintainer.result())
            out += at(last, [f"{spec}: {m}" for m in contract])
            out += at(last, bound_failures(spec, facts, compressed))
            if stem == "eo_tr":
                c1 = GraphFacts(compressed).components
                check = bounds.eo_tr_components(facts.components, c1)
                if not check.holds:
                    out.append((last, f"{spec}: {check.name} violated "
                                      f"({c1} vs {facts.components})"))
            if maintainer.deterministic:
                batch = Session(head).compress(spec, seed=self.graph_seed).graph
                if not same_graph(compressed, batch):
                    out.append((last, f"{spec}: maintained output differs "
                                      "from a batch recompress"))
        return out

    def kept_edge_ratio(self) -> float:
        # Averaged over the measured generations: the value at the last one
        # depends on where the run stopped in the spanner's rebuild cycle.
        return mean(self.kept_ratios[self.warmups:])

    def layers(self):
        out = {"graphs.generate_s": self.spans.total("graphs.generate")}
        out["stream.apply_s"] = self.spans.total("stream.apply") / self.traced_ops
        for stem in STREAM_SCHEMES.values():
            name = f"stream.{stem}_update"
            out[f"{name}_s"] = self.spans.total(name) / self.traced_ops
        now = self._stats()
        out["stream.spanner_rebuilds"] = self.rebuilds()
        out["stream.repairs"] = sum(
            now[stem]["repairs"] - self.stats_after_setup[stem]["repairs"]
            for stem in now
        )
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (GridWorkload, ServiceWorkload, StreamWorkload)
}
