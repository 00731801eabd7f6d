"""Tests for the repro.api facade."""

import re
from pathlib import Path


from repro import api

REPO = Path(__file__).resolve().parent.parent


class TestBuildSystem:
    def test_default_pipeline(self):
        system = api.build_system(scale=0.02, seed=31)
        assert isinstance(system, api.P2PSystem)
        assert system.plan is not None
        assert system.instance.documents
        assert system.assignment.is_complete()

    def test_replicate_false_skips_plan(self):
        # A placement-only world: the facade's pipeline without its plan.
        instance, assignment, _plan = api.build_world(scale=0.02, seed=31)
        system = api.P2PSystem(instance, assignment)
        assert system.plan is None

    def test_explicit_config(self):
        config = api.SystemConfig(
            n_docs=400, n_nodes=60, n_categories=10, n_clusters=3, seed=5
        )
        system = api.build_system(config)
        assert len(system.instance.documents) == 400
        assert system.assignment.n_clusters == 3

    def test_system_config_passthrough(self):
        system = api.P2PSystem(
            *api.build_world(scale=0.02, seed=31),
            config=api.P2PSystemConfig(cache_capacity=4, seed=2),
        )
        assert system.config.cache_capacity == 4

    def test_build_world_matches_build_system(self):
        instance, assignment, plan = api.build_world(scale=0.02, seed=31)
        system = api.build_system(scale=0.02, seed=31)
        assert set(instance.documents) == set(system.instance.documents)
        assert (
            assignment.category_to_cluster.tolist()
            == system.assignment.category_to_cluster.tolist()
        )
        assert plan.hot_doc_ids == system.plan.hot_doc_ids

    def test_build_world_is_the_core_pipeline(self):
        """The facade's and repro.core's build_world are one function and
        equal arguments give equal worlds."""
        from repro import core

        assert api.build_world is core.build_world
        kwargs = dict(scale=0.02, seed=31, n_reps=3, hot_mass=0.2)
        instance, assignment, plan = api.build_world(**kwargs)
        other_instance, other_assignment, other_plan = core.build_world(**kwargs)
        assert instance.documents == other_instance.documents
        assert instance.node_categories == other_instance.node_categories
        assert (
            assignment.category_to_cluster.tolist()
            == other_assignment.category_to_cluster.tolist()
        )
        assert plan.node_docs == other_plan.node_docs
        assert plan.hot_doc_ids == other_plan.hot_doc_ids

    def test_workload_round_trip(self):
        system = api.build_system(scale=0.02, seed=31)
        workload = api.make_query_workload(system.instance, 50, seed=3)
        outcomes = system.run_workload(workload)
        assert len(outcomes) == 50


class TestFacade:
    def test_curated_all_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_docs_table_lists_exactly_all(self):
        """The facade table in docs/api.md names ``__all__``, no more, no less:
        one leading identifier per row, every back-ticked name on the
        ``re-exports`` row."""
        text = (REPO / "docs" / "api.md").read_text()
        section = text.split("## `repro.api`", 1)[1].split("\n## ", 1)[0]
        listed: list[str] = []
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if not line.startswith("|") or cells[0] in ("name", "---"):
                continue
            if cells[0] == "re-exports":
                listed += re.findall(r"`(\w+)`", cells[1])
            else:
                listed.append(re.match(r"`(\w+)", cells[0]).group(1))
        assert sorted(listed) == sorted(api.__all__)
