"""Every demo imports cleanly and runs to the end, with its sizes made small."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# each demo's size constants, shrunk so that all of them run in a few seconds
SMALL = {
    "bayes_as_q_learning": {"HORIZON": 100, "N_RUNS": 3},
    "model_comparison_new_arm": {"N_SUBJECTS": 3, "HORIZON": 12},
    "moment_closure_accuracy": {"HORIZON": 30, "REPLICAS": 500},
    "spurious_bias_demo": {"N_AGENTS": 6, "HORIZON": 12},
    "steady_state_bias_sweep": {},
    "switching_schedules": {"HORIZON": 60, "REPLICAS": 200},
}


def load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_are_found():
    assert len(DEMOS) >= 6
    assert sorted(SMALL) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, monkeypatch, capsys):
    module = load(path)
    for name, value in SMALL[path.stem].items():
        monkeypatch.setattr(module, name, value)  # raises if the demo has no such constant
    module.main()
    assert capsys.readouterr().out
