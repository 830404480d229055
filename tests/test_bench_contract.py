"""The traced benchmark run (perfbench/run.py --trace 1) wraps package names
listed in perfbench/spans.py TARGETS. Installing its recorder here makes a
renamed or deleted traced name fail the test suite, not the benchmark."""

import importlib.util
from pathlib import Path

from l2ai import channel
from l2ai.channel import parse_scenario
from l2ai.harness import HONEST_SCENARIO, World, run_scenario

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_installs_and_uninstalls_on_the_package():
    spans = load_spans()
    originals = [(owner, attr, owner.__dict__[attr])
                 for _, owner, attrs in spans.TARGETS for attr in attrs]
    run = channel.Channel.__dict__["run"]
    rec = spans.Recorder()
    rec.install()
    try:
        world = World(seed=42)
        result = run_scenario(world, parse_scenario(HONEST_SCENARIO))
    finally:
        rec.uninstall()
    assert result.ok, result.violations
    assert {"harness.finalize", "harness.handler", "channel.deliver"} <= set(rec.names)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert channel.Channel.__dict__["run"] is run
