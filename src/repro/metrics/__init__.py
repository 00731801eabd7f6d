"""Measurement and reporting utilities.

* :mod:`repro.metrics.load` — per-node / per-cluster observed-load
  accounting and fairness of the resulting distributions;
* :mod:`repro.metrics.response` — response-time and hop-count statistics
  with percentiles and worst-case checks;
* :mod:`repro.metrics.report` — plain-text tables and series matching the
  paper's figures, shared by the benchmarks and the experiment CLI.
"""

from repro.metrics.load import LoadReportCard, load_report
from repro.metrics.response import ResponseStats, summarize_responses
from repro.metrics.report import format_series, format_table

__all__ = [
    "LoadReportCard",
    "ResponseStats",
    "format_series",
    "format_table",
    "load_report",
    "summarize_responses",
]
