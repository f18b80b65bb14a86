"""Hot-module classes carry no per-instance ``__dict__``.

The simulation allocates these objects millions of times per run (events,
batches, routing entries) or touches them on every tuple.  This test
checks the layout Python actually built, so a class in a hot module that
loses its ``__slots__`` (or gains a base without them) fails.
"""

import importlib
import inspect
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent

#: Modules whose classes are on the per-tuple hot path.
HOT_PATH_SUFFIXES = (
    "repro/sim/", "repro/executors/", "repro/state/", "repro/cluster/",
    "repro/topology/batch.py", "repro/topology/keys.py",
)

#: Base-class names that manage instance layout themselves.
_EXEMPT_BASES = frozenset({"Enum", "IntEnum", "NamedTuple", "Protocol", "TypedDict"})


def _is_hot(rel: str) -> bool:
    return any(
        f"/{suffix}" in f"/{rel}" if suffix.endswith("/") else rel.endswith(suffix)
        for suffix in HOT_PATH_SUFFIXES
    )


def _hot_modules():
    for path in sorted(ROOT.rglob("*.py")):
        rel = "repro/" + path.relative_to(ROOT).as_posix()
        if _is_hot(rel):
            name = rel[: -len(".py")].replace("/", ".")
            yield name[: -len(".__init__")] if name.endswith(".__init__") else name


def _classes(namespace, module):
    for value in vars(namespace).values():
        if inspect.isclass(value) and value.__module__ == module:
            yield value
            yield from _classes(value, module)


def _exempt(cls) -> bool:
    # Exceptions: BaseException gives every instance a dict of its own.
    return issubclass(cls, BaseException) or any(
        base.__name__ in _EXEMPT_BASES for base in cls.__mro__
    )


def test_hot_classes_have_no_instance_dict():
    classes = [
        cls
        for module in _hot_modules()
        for cls in _classes(importlib.import_module(module), module)
        if not _exempt(cls)
    ]
    names = {cls.__qualname__ for cls in classes}
    assert {"Event", "Callbacks", "TupleBatch", "_Delivery", "Store"} <= names
    grown = [
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in classes
        if cls.__dictoffset__ != 0
    ]
    assert grown == []
