"""The benchmark's tracer wraps gjmslab functions by name, so a rename must fail here."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves(tracing):
    for mod, names in tracing.LAYERS.items():
        module = tracing._module(mod)
        for name in names:
            assert callable(getattr(module, name, None)), f"gjmslab.{mod}.{name} is gone"


def test_install_wraps_and_undo_restores(tracing):
    modules = [tracing._module(short) for short in tracing.MODULES]
    before = [dict(vars(module)) for module in modules]
    undo = tracing.Tracer().install()
    try:
        for mod, names in tracing.LAYERS.items():
            module = tracing._module(mod)
            for name in names:
                assert getattr(module, name).__wrapped__ is before[
                    tracing.MODULES.index(mod)
                ][name]
    finally:
        undo()
    for module, snapshot in zip(modules, before):
        after = vars(module)
        assert set(after) == set(snapshot)
        assert all(after[attr] is value for attr, value in snapshot.items())


def test_package_names_follow_install_and_undo(tracing):
    # the lazy package reads each name from its module on every access, so it
    # hands out the wrapper while a tracer is installed and the original after
    import gjmslab
    from gjmslab import rayleigh

    original = rayleigh.minimize
    undo = tracing.Tracer().install()
    try:
        assert gjmslab.minimize.__wrapped__ is original
    finally:
        undo()
    assert gjmslab.minimize is original
