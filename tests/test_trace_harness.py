"""The benchmark's trace harness (perfbench/spans.py) over the current package."""

import importlib.util
import sys
from pathlib import Path

import cutlab
import cutlab.cli  # noqa: F401  (every module the harness patches)
from cutlab.constructors import construct, cyclic

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def _bindings() -> dict:
    """Every name bound in a cutlab module or in a class defined in one."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name != "cutlab" and not name.startswith("cutlab."):
            continue
        for key, value in vars(module).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__.startswith("cutlab"):
                for ckey, cvalue in vars(value).items():
                    out[name, key, ckey] = cvalue
    return out


def test_tracer_wraps_every_entry_point_and_restores_the_originals():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = _bindings()
        for _, module_name, attr in spans.ENTRY_POINTS:
            owner, _, name = attr.rpartition(".")
            key = (module_name, owner, name) if owner else (module_name, name)
            assert during[key] is not before[key], attr
        cutlab.decide_cut(construct(cyclic(6)))
        assert "cut_engine.decide_cut" in {s[0] for s in tracer.spans}
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
