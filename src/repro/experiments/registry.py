"""First-class experiment registry.

Every experiment module exposes::

    EXPERIMENT = experiment_spec(
        name="F2", description=__doc__, run=run, format_result=format_result
    )

which builds an :class:`ExperimentSpec` whose ``run`` takes a typed params
object (``params_cls``, generated from the legacy ``run`` signature) and
returns an :class:`ExperimentResult` — a uniform envelope with tabular
``rows``, scalar ``metrics``, the driving ``seed``, and the module's
original result dataclass in ``raw``.

The CLI (:mod:`repro.experiments.runner`) and the :mod:`repro.api` facade
dispatch through :func:`build_registry` instead of introspecting modules.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Any, Callable

import numpy as np

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "experiment_spec",
    "build_registry",
    "require",
]


def require(condition: bool, message: object) -> None:
    """One gate of an experiment's ``smoke()`` run (the CI entry point).

    Raises instead of asserting, so ``python -O`` cannot skip a gate.
    """
    if not condition:
        raise AssertionError(message)


def _first_line(text: str | None) -> str:
    lines = (text or "").strip().splitlines()
    return lines[0].strip() if lines else ""


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """Uniform result envelope produced by every registered experiment.

    Attributes
    ----------
    name:
        The experiment id (``"F2"``, ``"FUZZ"``, ...).
    seed:
        The seed the run was driven with (``None`` when the experiment
        takes no single seed, e.g. multi-seed sweeps).
    rows:
        Long-form tabular data: one dict per observation, with the
        result's equal-length sequence fields as columns.
    metrics:
        Scalar summary metrics (floats; booleans coerce to 0/1).
    raw:
        The module's original typed result dataclass, untouched.
    """

    name: str
    seed: int | None
    rows: list[dict[str, Any]]
    metrics: dict[str, float]
    raw: Any


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """A runnable, typed experiment registration.

    Attributes
    ----------
    name:
        Unique experiment id.
    description:
        One-line human description (CLI listing).
    params_cls:
        Dataclass of run parameters, mirroring the legacy ``run``
        signature (field names, defaults, and order).
    run:
        ``run(params) -> ExperimentResult``.
    format_result:
        Renders an :class:`ExperimentResult` for terminal output.
    """

    name: str
    description: str
    params_cls: type
    run: Callable[[Any], ExperimentResult]
    format_result: Callable[[ExperimentResult], str]

    def accepts(self, field_name: str) -> bool:
        """Whether ``params_cls`` has a ``field_name`` parameter."""
        return field_name in getattr(self.params_cls, "__dataclass_fields__", {})

    def make_params(self, **kwargs: Any):
        """Build a params object, rejecting unknown keyword names."""
        unknown = [k for k in kwargs if not self.accepts(k)]
        if unknown:
            raise TypeError(
                f"experiment {self.name} does not accept parameter(s): "
                f"{', '.join(sorted(unknown))}"
            )
        return self.params_cls(**kwargs)

    def call(self, **kwargs: Any) -> ExperimentResult:
        """Convenience: build params from ``kwargs`` and run."""
        return self.run(self.make_params(**kwargs))


def _params_cls_for(name: str, run: Callable[..., Any]) -> type:
    """Generate the params dataclass from a legacy ``run`` signature."""
    fields = []
    for param in inspect.signature(run).parameters.values():
        if param.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            raise TypeError(
                f"experiment {name}: run() must take named parameters only"
            )
        annotation = (
            param.annotation
            if param.annotation is not inspect.Parameter.empty
            else Any
        )
        if param.default is inspect.Parameter.empty:
            fields.append((param.name, annotation))
        else:
            fields.append(
                (
                    param.name,
                    annotation,
                    dataclasses.field(default=param.default),
                )
            )
    return dataclasses.make_dataclass(
        f"{name.capitalize()}Params", fields, frozen=True
    )


def _is_scalar(value: Any) -> bool:
    return isinstance(value, (bool, int, float, np.integer, np.floating))


def _scalar_sequence(value: Any) -> list | None:
    """``value`` as a list if it is a flat sequence of scalars, else None."""
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind in "bifu":
            return value.tolist()
        return None
    if isinstance(value, (list, tuple)):
        values = list(value)
        if values and all(_is_scalar(v) for v in values):
            return values
        return None
    return None


def _envelope(name: str, raw: Any, seed: int | None) -> ExperimentResult:
    """Convert a legacy result dataclass into the uniform envelope.

    Scalar fields become ``metrics``; equal-length flat sequence fields
    become the columns of ``rows`` (the largest group of same-length
    columns wins, ties broken toward longer tables).  Everything else
    stays reachable via ``raw``.
    """
    metrics: dict[str, float] = {}
    columns: dict[str, list] = {}
    if dataclasses.is_dataclass(raw) and not isinstance(raw, type):
        for field in dataclasses.fields(raw):
            value = getattr(raw, field.name)
            if _is_scalar(value):
                metrics[field.name] = float(value)
            else:
                seq = _scalar_sequence(value)
                if seq is not None:
                    columns[field.name] = seq
    rows: list[dict[str, Any]] = []
    if columns:
        by_length: dict[int, list[str]] = {}
        for column, values in columns.items():
            by_length.setdefault(len(values), []).append(column)
        best_length = max(by_length, key=lambda n: (len(by_length[n]), n))
        chosen = by_length[best_length]
        rows = [
            {column: columns[column][i] for column in chosen}
            for i in range(best_length)
        ]
    return ExperimentResult(
        name=name, seed=seed, rows=rows, metrics=metrics, raw=raw
    )


def experiment_spec(
    name: str,
    run: Callable[..., Any],
    format_result: Callable[[Any], str],
    description: str | None = None,
) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` around a legacy ``run``/``format``.

    ``description`` may be a full module docstring; its first line is
    kept.  The spec's ``run`` accepts the generated params object, invokes
    the legacy ``run(**params)``, and wraps the result in an
    :class:`ExperimentResult`.
    """
    params_cls = _params_cls_for(name, run)

    def run_spec(params) -> ExperimentResult:
        if not isinstance(params, params_cls):
            raise TypeError(
                f"experiment {name} expects {params_cls.__name__}, "
                f"got {type(params).__name__}"
            )
        kwargs = {
            field.name: getattr(params, field.name)
            for field in dataclasses.fields(params)
        }
        raw = run(**kwargs)
        seed = kwargs.get("seed")
        return _envelope(name, raw, seed if isinstance(seed, int) else None)

    def format_spec(result: ExperimentResult) -> str:
        return format_result(result.raw)

    return ExperimentSpec(
        name=name,
        description=_first_line(description),
        params_cls=params_cls,
        run=run_spec,
        format_result=format_spec,
    )


def build_registry(modules: dict[str, Any]) -> dict[str, ExperimentSpec]:
    """Collect ``EXPERIMENT`` specs from ``modules``, enforcing unique ids.

    ``modules`` maps experiment id -> module; every module must expose an
    ``EXPERIMENT`` spec whose name matches its id.
    """
    registry: dict[str, ExperimentSpec] = {}
    for exp_id, module in modules.items():
        spec = getattr(module, "EXPERIMENT", None)
        if spec is None:
            raise TypeError(
                f"experiment module {module.__name__} exposes no EXPERIMENT"
            )
        if spec.name != exp_id:
            raise ValueError(
                f"experiment {module.__name__} registers as {spec.name!r} "
                f"but is mapped to id {exp_id!r}"
            )
        if spec.name in registry:
            raise ValueError(f"duplicate experiment name: {spec.name!r}")
        registry[spec.name] = spec
    return registry
