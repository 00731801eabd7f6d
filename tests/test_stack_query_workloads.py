"""The stack harness's per-layer check on the two query workloads whose
reliability channel now carries nothing.

``benchmarks/stack/test_stack.py`` lists ``reliability.channel.sends_per_op``
(and, on the full stack, ``retry_share`` and ``self_us_per_send``) among the
metrics ``sim_query_fullstack`` and ``live_query_loopback`` must measure
above 0.  Queries and their answers are not channel sends, so on these
query-only workloads the channel sends nothing and the three read 0; CI
deselects the harness's two cases until its table is corrected.  This runs
the harness's own check on both workloads with those metrics taken out of
the table, so every other check (correctness, the declared names and
units, every other owned metric, trace coverage) still runs, and asserts
the channel sends nothing.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

STACK_TEST = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "stack" / "test_stack.py"
)
_spec = importlib.util.spec_from_file_location("stack_harness_test", STACK_TEST)
stack = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stack)

#: workload -> owned channel metrics that read 0 when no query is a
#: channel send.
IDLE_CHANNEL = {
    "sim_query_fullstack": {
        "reliability.channel.sends_per_op",
        "reliability.channel.retry_share",
        "reliability.channel.self_us_per_send",
    },
    "live_query_loopback": {"reliability.channel.sends_per_op"},
}


@pytest.mark.parametrize("name", sorted(IDLE_CHANNEL))
def test_traced_query_run_reports_every_other_owned_metric(name, monkeypatch):
    # The same subprocess, arguments and size as the harness's fixture.
    done = subprocess.run(
        [sys.executable, str(stack.STACK_DIR / "run.py"), "--workload", name,
         "--seed", str(stack.SEED), "--seconds", "0.1", "--trace", "1",
         "--size", "0.1"],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    payload = json.loads(done.stdout.splitlines()[-1])
    owned = [m for m in stack.OWNED[name] if m not in IDLE_CHANNEL[name]]
    monkeypatch.setitem(stack.OWNED, name, owned)
    stack.test_traced_run_reports_every_per_layer_metric(
        {(name, 1): (payload, None)}, name
    )
    assert payload["metrics"]["reliability.channel.sends_per_op"]["value"] == 0
