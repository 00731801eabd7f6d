"""Tests for the repro-experiments CLI."""

import pytest

from repro.chaos import FEATURES
from repro.experiments.runner import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "F2" in out
        assert "E3" in out
        assert "X3" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_id_rejected(self, capsys):
        assert main(["ZZ"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_unknown_feature_rejected(self, capsys):
        assert main(["fuzz", "--features", "content,bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert all(name in err for name in FEATURES)

    def test_runs_single_experiment(self, capsys):
        assert main(["F2", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "completed in" in out

    def test_case_insensitive_ids(self, capsys):
        assert main(["f2", "--scale", "0.05"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_metrics_out_writes_snapshot(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.jsonl"
        assert main(["F2", "--scale", "0.05", "--metrics-out", str(path)]) == 0
        assert "metrics snapshot" in capsys.readouterr().out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "meta"
        names = {record.get("name") for record in records}
        assert "experiment.f2_s" in names

    def test_trace_flag_disabled_after_run(self, capsys, tmp_path):
        from repro import obs

        path = tmp_path / "metrics.jsonl"
        assert (
            main(
                ["F2", "--scale", "0.05", "--trace", "--metrics-out", str(path)]
            )
            == 0
        )
        capsys.readouterr()
        assert not obs.TRACE.enabled  # the CLI restores the global switch

    def test_seed_flag(self, capsys):
        def run_once() -> str:
            assert main(["F2", "--scale", "0.05", "--seed", "11"]) == 0
            out = capsys.readouterr().out
            # Drop the wall-time footer, which legitimately varies.
            return "\n".join(
                line for line in out.splitlines() if "completed in" not in line
            )

        assert run_once() == run_once()  # deterministic for a seed

    def test_deterministic_metrics_snapshots_byte_identical(
        self, capsys, tmp_path
    ):
        """Two figure-2 runs with the same seed produce byte-identical
        metrics snapshots in --metrics-deterministic mode (wall-clock
        timer histograms are excluded; everything else must match)."""

        def run_once(path) -> bytes:
            assert (
                main(
                    [
                        "F2",
                        "--scale",
                        "0.05",
                        "--seed",
                        "5",
                        "--metrics-out",
                        str(path),
                        "--metrics-deterministic",
                    ]
                )
                == 0
            )
            capsys.readouterr()
            return path.read_bytes()

        first = run_once(tmp_path / "a.jsonl")
        second = run_once(tmp_path / "b.jsonl")
        assert first == second
        assert b'"type": "histogram"' not in first  # wall-clock excluded
