"""The benchmark's tracer patches pvcgap functions by name; keep those names.

`perfbench/tracer.py` wraps every `TARGETS` entry for `perfbench/run.py
--trace 1`, so renaming one of them in `src/` would break traced runs.
"""

import importlib
import sys
from pathlib import Path

from pvcgap import simplex
from pvcgap.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracer import TARGETS, Tracer  # noqa: E402


def test_tracer_targets_resolve_and_count_calls(capsys):
    for module, attr, _span in TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    lp_solve = simplex.lp_solve
    tracer = Tracer()
    with tracer.installed():
        assert simplex.lp_solve is not lp_solve
        assert main(["star", "--n", "3", "--t", "1"]) == 0
        assert main(["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1"]) == 0
    capsys.readouterr()
    assert tracer.calls["simplex.solve"] == 2
    assert tracer.calls["hierarchy.pair"] == 43
    assert simplex.lp_solve is lp_solve
    # the handlers import what they call when they run, so a wrapper left
    # behind in any module would be what the next untraced run calls
    left = [f"{name}.{attr}" for name, module in list(sys.modules.items())
            if name == "pvcgap" or name.startswith("pvcgap.")
            for attr, value in vars(module).items()
            if getattr(value, "__qualname__", "").startswith("Tracer.")]
    assert left == []
