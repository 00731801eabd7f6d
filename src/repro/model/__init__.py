"""Domain model: documents, categories, nodes, and workload generation.

This subpackage provides the static "world" of the paper's system: the
population of sharable documents with Zipf popularities, the document
categories they are grouped into, and the peer nodes that contribute them
(with heterogeneous processing and storage capacities).

The entry point is :class:`repro.model.system.SystemConfig`, which builds a
fully-populated :class:`repro.model.system.SystemInstance` via
:func:`repro.model.system.build_system`, and the scenario helpers in
:mod:`repro.model.workload` that reproduce the paper's two evaluation
scenarios (Figures 2 and 3) and its perturbation stress tests (Figures 4
and 5).
"""

from repro.model.documents import Category, Document
from repro.model.nodes import Node
from repro.model.system import SystemConfig, SystemInstance, build_system
from repro.model.workload import (
    PerturbationResult,
    QueryWorkload,
    add_hot_documents,
    make_query_workload,
    uniform_category_scenario,
    zipf_category_scenario,
)
from repro.model.zipf import ZipfSampler, zipf_pmf

__all__ = [
    "Category",
    "Document",
    "Node",
    "PerturbationResult",
    "QueryWorkload",
    "SystemConfig",
    "SystemInstance",
    "add_hot_documents",
    "build_system",
    "make_query_workload",
    "uniform_category_scenario",
    "zipf_category_scenario",
    "ZipfSampler",
    "zipf_pmf",
]
