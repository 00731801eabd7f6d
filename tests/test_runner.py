"""Tests for the repro-experiments CLI and its dispatch through EXPERIMENTS."""

import pytest

from repro.chaos import FEATURES
from repro.experiments import fuzz
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


class TestRunnerDispatch:
    def test_fuzz_seeds_canonical_flag(self, capsys):
        assert main(["FUZZ", "--fuzz-seeds", "1", "--steps", "5"]) == 0
        assert "seeds 7..7" in capsys.readouterr().out

    def test_repro_out_precheck_names_flag(self, capsys, tmp_path):
        code = main(["T3", "--repro-out", str(tmp_path / "no" / "x.py")])
        assert code == 2
        assert "--repro-out" in capsys.readouterr().err

    def test_metrics_out_precheck_names_flag(self, capsys, tmp_path):
        code = main(["T3", "--metrics-out", str(tmp_path / "no" / "x.jsonl")])
        assert code == 2
        assert "--metrics-out" in capsys.readouterr().err

    def test_precheck_leaves_no_empty_file(self, capsys, tmp_path):
        """--repro-out writes nothing on success — not even an empty
        file from the writability precheck."""
        out = tmp_path / "repro.py"
        assert main(["T3", "--repro-out", str(out)]) == 0
        capsys.readouterr()
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_unusable_scale_rejected_before_any_work(self, capsys, scale):
        """``--scale`` is the one way to set the scale, so it validates:
        no traceback out of ``SystemConfig.scaled``."""
        with pytest.raises(SystemExit) as exit_info:
            main(["F2", "--scale", scale])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--scale" in captured.err
        assert "Figure 2" not in captured.out


class TestVacuousFuzzGate:
    """A fuzz invocation that would run nothing (or drop its features)
    must exit 2 naming the flag, never print ``0/0 seeds failing``."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fuzz", "--fuzz-seeds", "0"], "--fuzz-seeds"),
            (["fuzz", "--fuzz-seeds", "-3"], "--fuzz-seeds"),
            (["fuzz", "--steps", "-4"], "--steps"),
        ],
    )
    def test_empty_sweep_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "seeds failing" not in captured.out

    def test_features_without_fuzz_rejected(self, capsys):
        assert main(["F2", "--scale", "0.05", "--features", "content"]) == 2
        captured = capsys.readouterr()
        assert "--features" in captured.err
        assert "Figure 2" not in captured.out  # before any work

    def test_run_rejects_empty_sweep(self):
        with pytest.raises(ValueError, match="seeds must be >= 1"):
            fuzz.run(seeds=0)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            fuzz.run(seeds=1, steps=0)
