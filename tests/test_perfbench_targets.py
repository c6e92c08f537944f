"""Every callable the wall-clock benchmark hooks still exists.

``perfbench.layers.TARGETS`` names its hooks as ``(module, attribute)``
strings; the tracer skips a name that no longer resolves and only notes
it as ``trace_missing``, which nulls that layer's metrics in the run's
record.  A refactor that deletes or renames a hooked symbol fails here
instead, naming it.
"""

import importlib

from perfbench.layers import TARGETS


def _resolves(module_name: str, attr: str) -> bool:
    """The tracer's own lookup, without wrapping anything."""
    try:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return callable(owner) or isinstance(owner, property)


def test_every_hook_target_resolves():
    assert TARGETS
    missing = [
        f"{module}:{attr}"
        for module, attr, _, _ in TARGETS
        if not _resolves(module, attr)
    ]
    assert missing == []
