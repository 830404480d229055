"""The benchmark in perfbench/ reads the package through names this suite
does not otherwise pin: the traced run (perfbench/run.py --trace 1) wraps
the names listed in perfbench/spans.py TARGETS, and the workloads in
perfbench/workloads.py read the World's sessions, channel, log and step
notes to check every round. Loading both here makes a renamed or deleted
name, or op totals that drift from EXPECTED_OPS, fail the test suite, not
the benchmark."""

import importlib.util
import sys
from pathlib import Path

from l2ai import channel
from l2ai.channel import parse_scenario
from l2ai.cli import main as cli_main
from l2ai.harness import HONEST_SCENARIO, World, run_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_recorder_installs_and_uninstalls_on_the_package():
    spans = load("spans")
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


def test_shrunken_workload_rounds_pass_their_checks(tmp_path, capsys, monkeypatch):
    workloads = load("workloads")
    monkeypatch.setattr(workloads, "HONEST_OPS", 200)
    monkeypatch.setattr(workloads, "CHURN_OPS", 200)
    for workload in (workloads.Honest(3), workloads.Churn(3)):
        assert len(workload.ops) == 200
        assert workload.run_round().problems == [], workload.name
    for i in range(4):
        script, problems = workloads.make_script(3, i)
        assert problems == [], i
        path = tmp_path / f"script-{i}.txt"
        path.write_text(script.text)
        assert cli_main(["run", str(path), "--seed", str(script.seed)]) == 0
        assert capsys.readouterr().out == script.report
