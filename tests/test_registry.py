"""Tests for the ExperimentSpec registry and the runner's dispatch."""

import dataclasses
import inspect

import pytest

from repro.experiments import EXPERIMENTS, REGISTRY, ExperimentResult
from repro.experiments.registry import build_registry, experiment_spec
from repro.experiments.runner import main


class TestRegistry:
    def test_every_experiment_registers(self):
        assert set(REGISTRY) == set(EXPERIMENTS)
        for exp_id, module in EXPERIMENTS.items():
            assert module.EXPERIMENT is REGISTRY[exp_id]

    def test_names_unique_and_match_ids(self):
        names = [spec.name for spec in REGISTRY.values()]
        assert len(names) == len(set(names))
        for exp_id, spec in REGISTRY.items():
            assert spec.name == exp_id
            assert spec.description  # one-line listing text

    def test_params_mirror_run_signatures(self):
        for exp_id, module in EXPERIMENTS.items():
            spec = REGISTRY[exp_id]
            signature = inspect.signature(module.run)
            fields = {f.name for f in dataclasses.fields(spec.params_cls)}
            assert fields == set(signature.parameters), exp_id
            for field in dataclasses.fields(spec.params_cls):
                default = signature.parameters[field.name].default
                if default is not inspect.Parameter.empty:
                    assert field.default == default, (exp_id, field.name)

    def test_unknown_params_rejected(self):
        with pytest.raises(TypeError, match="does not accept"):
            REGISTRY["F2"].make_params(banana=1)

    def test_specs_runnable_through_call(self):
        result = REGISTRY["T3"].call()
        assert isinstance(result, ExperimentResult)
        assert result.name == "T3"
        assert result.metrics  # scalar fields surfaced
        formatted = REGISTRY["T3"].format_result(result)
        assert "T3" in formatted

    def test_envelope_rows_and_seed(self):
        result = REGISTRY["F2"].call(scale=0.02, seed=7)
        assert result.seed == 7
        assert result.rows  # per-cluster columns become rows
        columns = set(result.rows[0])
        assert all(set(row) == columns for row in result.rows)
        assert result.raw is not None

    def test_duplicate_names_rejected(self):
        f2 = EXPERIMENTS["F2"]
        with pytest.raises(ValueError, match="registers as"):
            build_registry({"F2": f2, "F3": f2})

    def test_missing_experiment_rejected(self):
        class Empty:
            __name__ = "empty"

        with pytest.raises(TypeError, match="no EXPERIMENT"):
            build_registry({"ZZ": Empty()})

    def test_var_kwargs_rejected(self):
        def run(**kwargs):
            return None

        with pytest.raises(TypeError, match="named parameters"):
            experiment_spec(name="ZZ", run=run, format_result=str)


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
