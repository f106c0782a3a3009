"""The benchmark tracer installs around the library and comes off cleanly.

``bench/tracer.py`` wraps library functions by module and name, and
``__post_init__`` or ``value`` taken from class dictionaries.  A change
that drops or moves one of those names fails here, in the test suite,
and not only in a traced benchmark run (``bench/run.py --trace 1``).
"""

import importlib.util
from pathlib import Path

import realtrop
import realtrop.cli  # the tracer wraps cli.main as well

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(module):
    functions = {
        name: getattr(getattr(realtrop, mod), attr)
        for name, (mod, attr) in module.FUNCTIONS.items()
    }
    methods = {
        name: vars(getattr(getattr(realtrop, mod), cls)).get(meth)
        for name, (mod, cls, meth) in module.METHODS.items()
    }
    return functions, methods


def test_tracer_installs_counts_and_uninstalls():
    module = _tracer_module()
    functions, methods = _targets(module)
    assert all(methods.values()), methods
    rt_post_init = vars(realtrop.hyperfields.RT)["__post_init__"]
    tracer = module.Tracer()
    try:
        tracer.install()
        wrapped_functions, wrapped_methods = _targets(module)
        for name, fn in wrapped_functions.items():
            assert fn is not functions[name], name
        for name, fn in wrapped_methods.items():
            assert fn is not methods[name], name
        tracer.active = True
        emb = realtrop.LinearEmbedding.from_matrix([[1, 0, 1], [0, 1, 1]])
        assert len(emb.circuits) == 1
        tracer.active = False
    finally:
        tracer.uninstall()
    assert tracer.calls["tropical.LinearEmbedding"] == 1
    assert tracer.calls["puiseux.column_rank"] == 1
    assert tracer.calls["matroids.circuits_from_matrix"] == 1
    assert _targets(module) == (functions, methods)
    assert vars(realtrop.hyperfields.RT)["__post_init__"] is rt_post_init
