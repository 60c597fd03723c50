"""The benchmark's span tracer still finds every name it wraps.

``perfbench/spans.py`` replaces named public functions with timing wrappers
for the traced benchmark round, so deleting or renaming one of them would
otherwise fail only there.  The tracer is loaded by path and used as is.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from rigidcurves import chern, cli
from rigidcurves.certify import Certificate
from rigidcurves.chern import ExcessProblem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_calls_and_restores_every_traced_name():
    spans = _load_spans()
    traced = [name for _, names in spans.LAYERS.values() for name in names]
    modules = [m for key, m in sys.modules.items()
               if key == "rigidcurves" or key.startswith("rigidcurves.")]
    bindings = {(module, name): getattr(module, name)
                for module in modules for name in traced
                if hasattr(module, name)}
    to_dict = Certificate.to_dict

    tracer = spans.Tracer()
    try:
        # inside the try, so a name that install() cannot find still has
        # the wrappers installed before it removed
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(
                ["certify", "--type", "5", "--d", "6", "--g", "2"]) == 0
        chern.excess_count(ExcessProblem(36, 17))
    finally:
        tracer.uninstall()

    assert tracer.calls["certify.certify"] == 1
    assert tracer.calls["chern.excess_count"] == 1
    for (module, name), original in bindings.items():
        assert getattr(module, name) is original, f"{module.__name__}.{name}"
    assert Certificate.to_dict is to_dict
