"""Tests for the fluent evaluation session: baseline caching, scoring,
algorithm resolution, and sweeps."""

import pytest

from repro.algorithms.pagerank import pagerank
from repro.analytics import Session
from repro.compress.uniform import RandomUniformSampling


class TestBaselineCache:
    def test_baseline_reused_across_schemes(self, plc300):
        session = Session(plc300, seed=0)
        session.grid(["uniform(p=0.5)"])
        first = session.baseline_computations
        assert first > 0
        session.grid(["spanner(k=8)"])
        session.grid(["EO-0.8-1-TR"])
        # Scoring two more schemes ran zero extra original-graph work.
        assert session.baseline_computations == first

    def test_counting_via_instrumented_algorithm(self, plc300, temp_algorithms):
        calls = {"n": 0}

        def counting(g):
            calls["n"] += 1
            return g.num_edges

        edges = temp_algorithms("tmp_edges", counting)
        session = Session(plc300, seed=0)
        session.grid(["uniform(p=0.5)"], [edges])
        session.grid(["uniform(p=0.9)"], [edges])
        # 1 baseline + 2 compressed runs; a session-less pair would do 4.
        assert calls["n"] == 3

    def test_records_match_shimless_path(self, plc300):
        session = Session(plc300, seed=0)
        rows = session.sweep([RandomUniformSampling(0.5)], seed=0)
        assert {r.algorithm for r in rows} == {"bfs", "cc", "pr", "tc", "tc_per_vertex"}
        assert all(r.compression_ratio < 1.0 for r in rows)


class TestFluentApi:
    def test_compress_run_score(self, plc300):
        scores = (
            Session(plc300, seed=0)
            .compress("spanner(k=8)")
            .run(pagerank)
            .score(["kl"])
        )
        assert scores["kl_divergence"] >= 0
        assert scores["kl"] == scores["kl_divergence"]

    def test_multiple_metrics_and_algorithms(self, plc300):
        session = Session(plc300, seed=0)
        run = session.compress("uniform(p=0.5)").run(pagerank).run("cc")
        scores = run.score()
        assert set(scores) == {"pagerank", "cc"}
        assert "kl_divergence" in scores["pagerank"]
        assert "relative_change" in scores["cc"]

    def test_named_battery_algorithms(self, plc300):
        scores = (
            Session(plc300, seed=0)
            .compress("uniform(p=0.5)")
            .run("pr", "tc")
            .score()
        )
        assert set(scores) == {"pr", "tc"}

    def test_pipeline_spec_compresses(self, plc300):
        run = Session(plc300, seed=0).compress("uniform(p=0.9) | spanner(k=4)")
        assert [st.scheme for st in run.lineage] == ["uniform", "spanner"]
        assert run.graph.num_edges < plc300.num_edges

    def test_score_without_run_rejected(self, plc300):
        with pytest.raises(ValueError):
            Session(plc300).compress("uniform(p=0.5)").score(["kl"])

    def test_unknown_metric_rejected(self, plc300):
        run = Session(plc300, seed=0).compress("uniform(p=0.5)").run(pagerank)
        with pytest.raises(ValueError):
            run.score(["wasserstein"])

    def test_bfs_run_only_scores_critical_edges(self, plc300):
        run = Session(plc300, seed=0).compress("uniform(p=0.5)").run("bfs")
        scores = run.score(["critical_edges"])
        assert 0 <= scores["critical_edge_preservation"] <= 1.5
        with pytest.raises(ValueError, match="critical_edges"):
            run.score(["kl"])

    def test_outputs_accessor_reuses_baseline(self, plc300):
        run = Session(plc300, seed=0).compress("uniform(p=0.5)").run(pagerank)
        out0, out1 = run.outputs("pagerank")
        assert len(out0.ranks) == plc300.n
        assert len(out1.ranks) == run.graph.n
        with pytest.raises(ValueError):
            run.outputs("never_ran")

    def test_kernel_backend_selected_in_session(self, plc300):
        session = Session(plc300, seed=0, backend="chunked", num_chunks=4)
        run = session.compress("uniform(p=0.5)", via="kernels")
        assert run.graph.num_edges < plc300.num_edges
        with pytest.raises(ValueError):
            session.compress("uniform(p=0.5)", via="gpu")


class TestAlgorithmResolution:
    def test_registered_function_resolves_through_registry(self, plc300):
        session = Session(plc300, seed=0, pr_iterations=20)
        run = session.compress("uniform(p=0.5)").run(pagerank)
        by_name = session.compress("uniform(p=0.5)").run("pagerank")
        assert run.score()["kl_divergence"] == by_name.score()["kl_divergence"]
        # One baseline slot: the function is the registry entry under the
        # session defaults, not a second private algorithm.
        assert session.baseline_computations == 1
        table = session.grid(["uniform(p=0.5)"], [pagerank, "pagerank"])
        assert table.algorithms() == ["pagerank"]

    def test_unregistered_callable_names_the_decorator(self, plc300):
        session = Session(plc300, seed=0)
        with pytest.raises(ValueError, match="@register_algorithm"):
            session.compress("uniform(p=0.5)").run(lambda g: g.num_edges)
        with pytest.raises(ValueError, match="@register_algorithm"):
            session.grid(["uniform(p=0.5)"], [lambda g: g.num_edges])

    def test_function_registered_twice_is_ambiguous(self, plc300):
        from repro.algorithms import bfs

        # ``bfs`` backs both the traversal entry and the scalar bfs_reach.
        with pytest.raises(ValueError, match="bfs, bfs_reach"):
            Session(plc300).compress("uniform(p=0.5)").run(bfs)


class TestSessionSweep:
    def test_spec_list_sweep(self, plc300, temp_algorithms):
        session = Session(plc300, seed=0)
        rows = session.sweep(
            ["uniform(p=0.2)", "uniform(p=0.5)", "uniform(p=0.9)"],
            algorithms=[temp_algorithms("tmp_one", lambda g: 1)],
        )
        ratios = {row.parameter: row.compression_ratio for row in rows}
        assert ratios[0.2] < ratios[0.5] < ratios[0.9]
        assert all(row.scheme_spec.startswith("uniform") for row in rows)

    def test_duplicate_schemes_evaluated_once(self, plc300, temp_algorithms):
        calls = {"n": 0}

        def counting(g):
            calls["n"] += 1
            return 1

        session = Session(plc300, seed=0)
        rows = session.sweep(
            ["uniform(p=0.5)", "uniform(p=0.5)"],
            algorithms=[temp_algorithms("tmp_counting", counting)],
        )
        assert len(rows) == 2  # both rows reported...
        assert calls["n"] == 2  # ...but 1 baseline + 1 compressed execution

    def test_duplicate_schemes_keep_their_labels(self, plc300, temp_algorithms):
        session = Session(plc300, seed=0)
        rows = session.sweep(
            ["uniform(p=0.5)", "uniform(0.5)"],
            parameters=["a", "b"],
            algorithms=[temp_algorithms("tmp_one", lambda g: 1)],
        )
        assert [row.parameter for row in rows] == ["a", "b"]

    def test_repeats_validation(self, plc300):
        with pytest.raises(ValueError):
            Session(plc300).sweep(["uniform(p=0.5)"], repeats=0)
