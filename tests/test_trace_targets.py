"""Every function the traced benchmark wraps is still defined where it is
looked up.

``perfbench/run.py`` lists ``(owner, attribute, ...)`` in ``trace_targets()``
and its tracer reads each as ``vars(owner)[attribute]``, so a traced function
that is renamed, removed or only inherited would end ``--trace 1`` with a
``KeyError``.
"""

import importlib.util
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.trace_targets()


def test_every_traced_attribute_is_defined_on_its_owner():
    targets = _trace_targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert missing == []
