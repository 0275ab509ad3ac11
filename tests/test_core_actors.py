"""Tests for the §6 actor analysis."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core import (
    ActorAnalyzer,
    cohort_table,
    interest_evolution,
    select_key_actors,
)
from repro.core.actors import ActorMetrics, _eigenvector_centrality
from repro.forum import Actor, Board, Forum, ForumDataset, Post, Thread

T0 = datetime(2014, 1, 1)


def star_graph_dataset(n_fans=5):
    """One popular initiator, n fans replying (star interaction graph)."""
    ds = ForumDataset()
    ds.add_forum(Forum(1, "F", has_ewhoring_board=True))
    ds.add_board(Board(10, 1, "eWhoring", is_ewhoring_board=True))
    ds.add_actor(Actor(100, 1, "hub", T0))
    for i in range(n_fans):
        ds.add_actor(Actor(200 + i, 1, f"fan{i}", T0))
    ds.add_thread(Thread(1000, 10, 1, 100, "big thread", T0))
    ds.add_post(Post(1, 1000, 100, T0, "op", 0))
    for i in range(n_fans):
        ds.add_post(Post(2 + i, 1000, 200 + i, T0 + timedelta(days=i + 1), "re", i + 1))
    return ds


class TestInteractionRules:
    def test_reply_without_quote_targets_initiator(self):
        ds = star_graph_dataset(3)
        analyzer = ActorAnalyzer(ds)
        edges = analyzer.edges()
        for i in range(3):
            assert edges[(200 + i, 100)] == 1.0

    def test_quote_overrides_initiator(self):
        ds = star_graph_dataset(2)
        # fan1 quotes fan0's post (post id 2).
        ds.add_post(Post(50, 1000, 201, T0 + timedelta(days=9), "q", 3,
                         quoted_post_id=2))
        edges = ActorAnalyzer(ds).edges()
        assert edges[(201, 200)] == 1.0

    def test_self_replies_excluded(self):
        ds = star_graph_dataset(1)
        ds.add_post(Post(60, 1000, 100, T0 + timedelta(days=10), "self", 2))
        edges = ActorAnalyzer(ds).edges()
        assert (100, 100) not in edges

    def test_edge_weights_accumulate(self):
        ds = star_graph_dataset(1)
        ds.add_post(Post(70, 1000, 200, T0 + timedelta(days=11), "again", 2))
        edges = ActorAnalyzer(ds).edges()
        assert edges[(200, 100)] == 2.0


class TestMetrics:
    def test_post_counts(self):
        ds = star_graph_dataset(4)
        metrics = ActorAnalyzer(ds).metrics()
        assert metrics[100].n_ewhoring_posts == 1
        assert metrics[200].n_ewhoring_posts == 1
        assert metrics[100].n_total_posts == 1

    def test_h_index(self):
        ds = star_graph_dataset(5)  # one thread with 5 replies -> H = 1
        metrics = ActorAnalyzer(ds).metrics()
        assert metrics[100].h_index == 1
        assert metrics[100].i10 == 0

    def test_h_index_multiple_threads(self):
        ds = star_graph_dataset(2)
        # Second popular thread by the hub with 2 replies -> H = 2.
        ds.add_thread(Thread(1001, 10, 1, 100, "second", T0))
        ds.add_post(Post(80, 1001, 100, T0, "op", 0))
        ds.add_post(Post(81, 1001, 200, T0 + timedelta(days=1), "r", 1))
        ds.add_post(Post(82, 1001, 201, T0 + timedelta(days=2), "r", 2))
        metrics = ActorAnalyzer(ds).metrics()
        assert metrics[100].h_index == 2

    def test_days_before_after(self):
        ds = star_graph_dataset(1)
        # Fan also posts on another board before and after.
        ds.add_board(Board(11, 1, "Gaming", category="Gaming"))
        ds.add_thread(Thread(1100, 11, 1, 200, "games", T0 - timedelta(days=30)))
        ds.add_post(Post(90, 1100, 200, T0 - timedelta(days=30), "g", 0))
        ds.add_post(Post(91, 1100, 200, T0 + timedelta(days=61), "g2", 1))
        metrics = ActorAnalyzer(ds).metrics()
        fan = metrics[200]
        assert fan.days_before == pytest.approx(31.0)
        assert fan.days_after == pytest.approx(60.0)

    def test_pct_ewhoring(self):
        ds = star_graph_dataset(1)
        ds.add_board(Board(11, 1, "Gaming", category="Gaming"))
        ds.add_thread(Thread(1100, 11, 1, 200, "games", T0))
        ds.add_post(Post(90, 1100, 200, T0, "g", 0))
        metrics = ActorAnalyzer(ds).metrics()
        assert metrics[200].pct_ewhoring == pytest.approx(50.0)


class TestEigenvector:
    def test_empty_graph(self):
        assert _eigenvector_centrality({}) == {}

    def test_star_centre_highest(self):
        edges = {(1, 0): 1.0, (2, 0): 1.0, (3, 0): 1.0}
        centrality = _eigenvector_centrality(edges)
        assert centrality[0] == max(centrality.values())

    def test_matches_networkx(self):
        import networkx as nx

        edges = {(1, 2): 2.0, (2, 3): 1.0, (3, 1): 1.0, (4, 1): 3.0}
        ours = _eigenvector_centrality(edges)
        graph = nx.Graph()
        for (a, b), w in edges.items():
            weight = graph.get_edge_data(a, b, {}).get("weight", 0.0) + w
            graph.add_edge(a, b, weight=weight)
        reference = nx.eigenvector_centrality(graph, weight="weight", max_iter=1000)
        norm = np.linalg.norm(list(reference.values()))
        for node, value in ours.items():
            assert value == pytest.approx(reference[node] / norm, abs=1e-4)


def _dense_centrality(edges, iterations=100, tolerance=1e-10):
    """The dense power iteration the sparse one replaced (reference)."""
    if not edges:
        return {}
    nodes = sorted({a for a, _ in edges} | {b for _, b in edges})
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    adjacency = np.zeros((n, n), dtype=np.float64)
    for (a, b), weight in edges.items():
        adjacency[index[a], index[b]] += weight
        adjacency[index[b], index[a]] += weight
    vector = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(iterations):
        nxt = adjacency @ vector
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            break
        nxt /= norm
        if np.linalg.norm(nxt - vector) < tolerance:
            vector = nxt
            break
        vector = nxt
    return {node: float(vector[index[node]]) for node in nodes}


def _random_edges(rng, n_nodes, n_edges, offset=0):
    """Random directed, weighted interactions; repeated pairs accumulate."""
    edges = {}
    for _ in range(n_edges):
        a, b = (int(x) + offset for x in rng.integers(0, n_nodes, size=2))
        edges[(a, b)] = edges.get((a, b), 0.0) + float(rng.integers(1, 5))
    return edges


def _influence_groups(centrality):
    metrics = {
        node: ActorMetrics(actor_id=node, eigenvector=value)
        for node, value in centrality.items()
    }
    return select_key_actors(metrics, top_n=5).groups.as_dict()


class TestSparseCentrality:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        edges = _random_edges(rng, n_nodes=60, n_edges=150)
        if seed % 2:  # a second, disconnected component
            edges.update(_random_edges(rng, n_nodes=12, n_edges=20, offset=1000))
        ours = _eigenvector_centrality(edges)
        reference = _dense_centrality(edges)
        assert ours.keys() == reference.keys()
        assert max(abs(ours[k] - reference[k]) for k in reference) <= 1e-12
        assert _influence_groups(ours) == _influence_groups(reference)

    def test_world_graph_matches_dense_reference(self, report):
        report.actor_analyzer.metrics()
        edges = report.actor_analyzer._edges
        ours = _eigenvector_centrality(edges)
        reference = _dense_centrality(edges)
        assert max(abs(ours[k] - reference[k]) for k in reference) <= 1e-12
        assert _influence_groups(ours) == _influence_groups(reference)

    def test_all_zero_weights_keep_uniform_start(self):
        edges = {(1, 2): 0.0, (2, 3): 0.0, (4, 5): 0.0}
        ours = _eigenvector_centrality(edges)
        assert ours == _dense_centrality(edges)
        assert len(set(ours.values())) == 1


class TestCohortTable:
    def make_metrics(self, counts):
        return {
            i: ActorMetrics(actor_id=i, n_ewhoring_posts=c, n_total_posts=c)
            for i, c in enumerate(counts)
        }

    def test_cumulative_bands(self):
        rows = cohort_table(self.make_metrics([1, 5, 20, 200]), thresholds=(1, 10, 100))
        assert [r.n_actors for r in rows] == [4, 2, 1]

    def test_empty_band(self):
        rows = cohort_table(self.make_metrics([1, 2]), thresholds=(1, 1000))
        assert rows[1].n_actors == 0
        assert rows[1].mean_posts == 0.0

    def test_world_table8_shape(self, report):
        rows = report.cohorts
        counts = [r.n_actors for r in rows]
        assert counts == sorted(counts, reverse=True)
        # Mean posts rise with the threshold.
        nonempty = [r for r in rows if r.n_actors > 0]
        means = [r.mean_posts for r in nonempty]
        assert means == sorted(means)
        # %eWhoring rises with involvement (Table 8 trend), loosely.
        assert nonempty[-1].mean_pct_ewhoring >= nonempty[0].mean_pct_ewhoring - 8.0


class TestKeyActors:
    def test_selection_sizes(self, report):
        groups = report.key_actors.groups
        for name, group in groups.as_dict().items():
            assert len(group) <= 63, name
        assert report.key_actors.n_key_actors > 0

    def test_intersection_matrix_consistency(self, report):
        selection = report.key_actors
        matrix = selection.intersection_matrix()
        groups = selection.groups.as_dict()
        # Diagonal = unique members; bounded by the group size.
        for name, group in groups.items():
            assert 0 <= matrix[(name, name)] <= len(group)
        # Symmetric pairs only stored once, value = intersection size.
        assert matrix[("popular", "influence")] == len(
            groups["popular"] & groups["influence"]
        )

    def test_groups_overlap_somewhere(self, report):
        """§6.3: key actors belong to multiple groups (44 of 195 in the
        paper).  At test scale, *which* pair overlaps most is noisy, so
        assert only that multi-group membership exists."""
        counts = report.key_actors.membership_counts()
        assert max(counts.values()) >= 2

    def test_membership_counts(self, report):
        counts = report.key_actors.membership_counts()
        assert max(counts.values()) <= 5
        assert min(counts.values()) >= 1

    def test_group_characteristics_rows(self, report):
        table = report.key_actors.group_characteristics()
        assert "ALL" in table
        for name, row in table.items():
            if row:
                assert row["n_posts"] >= 0
                assert 0 <= row["pct_ewhoring"] <= 100

    def test_key_actors_more_active_than_average(self, world, report):
        metrics = report.actor_analyzer.metrics()
        key_ids = report.key_actors.groups.all_key_actors()
        key_posts = np.mean([metrics[a].n_ewhoring_posts for a in key_ids])
        all_posts = np.mean([m.n_ewhoring_posts for m in metrics.values()])
        assert key_posts > 2 * all_posts


class TestInterests:
    def test_percentages_sum_to_100(self, report):
        for phase, row in report.interests.percentages().items():
            if row:
                assert sum(row.values()) == pytest.approx(100.0)

    def test_figure5_market_shift(self, report):
        """Figure 5: Market interest grows from before to during."""
        pct = report.interests.percentages()
        if not pct["before"] or not pct["during"]:
            pytest.skip("phases empty at this scale")
        assert pct["during"].get("Market", 0) > pct["before"].get("Market", 0)

    def test_figure5_gaming_decline(self, report):
        pct = report.interests.percentages()
        if not pct["before"] or not pct["during"]:
            pytest.skip("phases empty at this scale")
        assert pct["before"].get("Gaming", 0) > pct["during"].get("Gaming", 0)

    def test_excluded_board_not_counted(self, world, report):
        metrics = report.actor_analyzer.metrics()
        key_ids = report.key_actors.groups.all_key_actors()
        with_exclusion = interest_evolution(
            world.dataset, metrics, key_ids, exclude_board_names=["Gaming Discussion"]
        )
        for phase_counts in with_exclusion.counts.values():
            assert "Gaming" not in phase_counts
