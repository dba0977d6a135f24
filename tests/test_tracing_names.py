"""The benchmark's traced run looks up weylkit's public calls by name; a
renamed or deleted one must fail here, not only in a traced run."""

import importlib
import importlib.util
import inspect
import os

import pytest

from weylkit import defaults, fourier

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("modname,attr", [
    (modname, attr) for _, targets in _layers().values() for modname, attr, _ in targets
])
def test_traced_attribute_exists(modname, attr):
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_forward_transform_hooks():
    # the traced forward count reads gl_order as args[4], else defaults.GL_ORDER
    params = list(inspect.signature(fourier.weyl_from_amplitude).parameters)
    assert params == ["s", "z", "mode", "d", "gl_order"]
    assert isinstance(defaults.GL_ORDER, int)
