"""The repo-specific lint rules (see ``docs/invariants.md``).

Each rule encodes one invariant the reproduction's credibility rests
on: bit-reproducible seeded simulation, simulated-time-only pricing,
and RunSpec knobs that are consumed or rejected.  Rules register
themselves with :mod:`repro.analysis.lint` at import time; their
``code`` strings are stable and pinned by tests.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import (
    LintRule,
    ModuleUnderLint,
    register_rule,
)

__all__ = [
    "UnseededRngRule",
    "WallclockInSimRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "SpecKnobDriftRule",
    "DictOrderHazardRule",
    "MissingAllExportRule",
    "BareExceptRule",
]


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); None for non-name-rooted chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_classvar(annotation: ast.AST) -> bool:
    """True for ``ClassVar`` / ``typing.ClassVar[...]`` annotations."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    chain = _attr_chain(annotation)
    return chain is not None and chain[-1] == "ClassVar"


def _parent_map(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    return {
        child: parent
        for parent in ast.walk(tree)
        for child in ast.iter_child_nodes(parent)
    }


# ----------------------------------------------------------------------
@register_rule
class UnseededRngRule(LintRule):
    """Every random draw must flow from a threaded, seeded Generator.

    ``np.random.<fn>()`` (other than constructing generators) mutates
    numpy's hidden module-level state, and anything from the stdlib
    ``random`` module draws from an interpreter-global stream — both
    break bit-reproducible simulation the moment call order shifts.
    """

    code = "unseeded-rng"
    summary = "module-level RNG state (np.random.* / stdlib random)"
    hint = (
        "thread an explicit np.random.default_rng(seed) Generator "
        "through the call path instead"
    )

    #: Generator/bit-generator constructors — stateless to import.
    _ALLOWED_NP = {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
    }

    def check_module(self, mod: ModuleUnderLint):
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield (
                            node.lineno,
                            "stdlib `random` draws from interpreter-"
                            "global state",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    yield (
                        node.lineno,
                        "stdlib `random` draws from interpreter-global "
                        "state",
                    )
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if (
                    chain is not None
                    and len(chain) == 3
                    and chain[0] in ("np", "numpy")
                    and chain[1] == "random"
                    and chain[2] not in self._ALLOWED_NP
                ):
                    yield (
                        node.lineno,
                        f"np.random.{chain[2]}() uses numpy's hidden "
                        f"module-level RNG state",
                    )


# ----------------------------------------------------------------------
@register_rule
class WallclockInSimRule(LintRule):
    """No wall-clock reads: simulated planes price simulated time only.

    ``repro.sim`` / ``repro.serving`` / ``repro.training`` model time —
    a ``time.time()`` there silently couples results to the host
    machine.  The rule covers all of ``src`` (the whole tree feeds the
    simulators); genuinely user-facing wall-timing (the CLI's elapsed
    display) carries an inline justified suppression.
    """

    code = "wallclock-in-sim"
    summary = "wall-clock read inside the simulated planes"
    hint = (
        "derive timing from the simulator's Timeline (or suppress with "
        "a justification if this is user-facing wall-timing)"
    )

    _TIME_FNS = {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    }
    _DATETIME_FNS = {"now", "utcnow", "today"}

    def check_module(self, mod: ModuleUnderLint):
        # Names bound by `from time import perf_counter [as pc]`.
        from_time: Set[str] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._TIME_FNS:
                        from_time.add(alias.asname or alias.name)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain is None:
                continue
            if (
                len(chain) == 2
                and chain[0] == "time"
                and chain[1] in self._TIME_FNS
            ):
                yield (
                    node.lineno,
                    f"time.{chain[1]}() reads the wall clock",
                )
            elif (
                chain[-1] in self._DATETIME_FNS
                and len(chain) >= 2
                and chain[-2] in ("datetime", "date")
            ):
                yield (
                    node.lineno,
                    f"{'.'.join(chain)}() reads the wall clock",
                )
            elif len(chain) == 1 and chain[0] in from_time:
                yield (
                    node.lineno,
                    f"{chain[0]}() (from time) reads the wall clock",
                )


# ----------------------------------------------------------------------
@register_rule
class FloatEqualityRule(LintRule):
    """``==`` / ``!=`` against float literals in numeric code.

    Exact float comparison is only meaningful for sentinel values; in
    the numeric planes it is almost always a latent
    platform-dependence bug.
    """

    code = "float-equality"
    summary = "exact equality against a float literal"
    hint = (
        "compare against a tolerance (abs(x - c) < eps / np.isclose), "
        "or restructure around an integer sentinel"
    )

    def check_module(self, mod: ModuleUnderLint):
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(
                node.ops, operands[:-1], operands[1:]
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    if isinstance(side, ast.Constant) and isinstance(
                        side.value, float
                    ):
                        yield (
                            node.lineno,
                            f"exact {'==' if isinstance(op, ast.Eq) else '!='}"
                            f" against float literal {side.value!r}",
                        )
                        break


# ----------------------------------------------------------------------
@register_rule
class MutableDefaultRule(LintRule):
    """Mutable default arguments / dataclass field defaults.

    A ``def f(acc=[])`` default is shared across every call; a mutable
    dataclass class attribute is shared across every instance.  Both
    turn into cross-run state leaks in long-lived sessions.
    """

    code = "mutable-default"
    summary = "mutable default (function arg or dataclass field)"
    hint = (
        "default to None and construct inside, or use "
        "dataclasses.field(default_factory=...)"
    )

    _MUTABLE_CALLS = {
        "list",
        "dict",
        "set",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "deque",
    }

    def _is_mutable(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return False
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            return (
                chain is not None and chain[-1] in self._MUTABLE_CALLS
            )
        return False

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            chain = _attr_chain(target)
            if chain is not None and chain[-1] == "dataclass":
                return True
        return False

    def check_module(self, mod: ModuleUnderLint):
        for node in ast.walk(mod.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                defaults = [
                    *node.args.defaults,
                    *node.args.kw_defaults,
                ]
                for default in defaults:
                    if self._is_mutable(default):
                        name = getattr(node, "name", "<lambda>")
                        yield (
                            default.lineno,
                            f"mutable default argument in {name}() is "
                            f"shared across calls",
                        )
            elif isinstance(node, ast.ClassDef) and self._is_dataclass(
                node
            ):
                for stmt in node.body:
                    # Only annotated assignments become dataclass
                    # fields; a bare ``NAME = {...}`` is a class-level
                    # constant the dataclass machinery never copies.
                    value = None
                    if isinstance(stmt, ast.AnnAssign) and not (
                        _is_classvar(stmt.annotation)
                    ):
                        value = stmt.value
                    if self._is_mutable(value):
                        yield (
                            stmt.lineno,
                            f"mutable dataclass field default in "
                            f"{node.name} is shared across instances",
                        )


# ----------------------------------------------------------------------
@register_rule
class SpecKnobDriftRule(LintRule):
    """Every RunSpec knob must be consumed somewhere outside spec.py.

    A ``*Spec`` / ``*Config`` field that is validated at construction
    but read by no stage is a silently-dead knob: users set it, the run
    ignores it, and nothing complains (the exact bug class PR 5's
    hand-written unused-knob validation was added for).  Reads inside
    ``repro/api/spec.py`` itself (validation, serialization) do not
    count as consumption.  A field a section forwards by name is read
    where the runtime object reads that name; a renamed one counts
    through its ``_From`` declaration.
    """

    code = "spec-knob-drift"
    summary = "*Spec/*Config field never read outside repro.api.spec"
    hint = (
        "wire the knob into the stage that should honor it, or delete "
        "the field"
    )
    project_rule = True

    @staticmethod
    def _is_spec_module(mod: ModuleUnderLint) -> bool:
        path = mod.package_path
        return path.endswith("api/spec.py") or path == "spec.py"

    def _declared_fields(
        self, mod: ModuleUnderLint
    ) -> List[Tuple[str, str, int]]:
        """(class, field, line) for every dataclass-style spec field."""
        out = []
        for node in mod.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not (
                node.name.endswith("Spec") or node.name.endswith("Config")
            ):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                name = stmt.target.id
                if name.startswith("_"):
                    continue
                if _is_classvar(stmt.annotation):
                    continue
                yield_entry = (node.name, name, stmt.lineno)
                out.append(yield_entry)
        return out

    @staticmethod
    def _read_names(mods: Sequence[ModuleUnderLint]) -> Set[str]:
        """Names read as attributes / keywords / strings anywhere."""
        reads: Set[str] = set()
        for mod in mods:
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Attribute):
                    reads.add(node.attr)
                elif isinstance(node, ast.Call):
                    for kw in node.keywords:
                        if kw.arg is not None:
                            reads.add(kw.arg)
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    reads.add(node.value)
        return reads

    @staticmethod
    def _projected_fields(spec_mods: Sequence[ModuleUnderLint]) -> Set[str]:
        """Fields a section hands to a runtime keyword under another
        name (``_From("field", ...)`` in a ``build`` override): the
        renamed half of the spec -> runtime projection, which is
        consumption even though it is written in the spec module."""
        return {
            node.args[0].value
            for mod in spec_mods
            for node in ast.walk(mod.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_From"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        }

    def check_project(self, mods: Sequence[ModuleUnderLint]):
        spec_mods = [m for m in mods if self._is_spec_module(m)]
        other_mods = [m for m in mods if not self._is_spec_module(m)]
        if not spec_mods or not other_mods:
            return
        reads = self._read_names(other_mods) | self._projected_fields(
            spec_mods
        )
        for spec_mod in spec_mods:
            for cls, field, line in self._declared_fields(spec_mod):
                if field not in reads:
                    yield (
                        spec_mod,
                        line,
                        f"{cls}.{field} is declared and validated but "
                        f"never read outside repro.api.spec",
                    )


# ----------------------------------------------------------------------
@register_rule
class DictOrderHazardRule(LintRule):
    """Iteration over freshly-built sets feeds order-dependent paths.

    Set iteration order depends on insertion history and interning —
    anything priced or seeded downstream of it is not
    bit-reproducible.  Iterating inside an order-insensitive consumer
    (``sorted``/``min``/``max``/``sum``/``any``/``all``/``len`` or a
    set-typed comprehension) is fine.
    """

    code = "dict-order-hazard"
    summary = "order-sensitive iteration over a set expression"
    hint = "wrap the set in sorted(...) before iterating"

    _ORDER_FREE_CONSUMERS = {
        "sorted",
        "min",
        "max",
        "sum",
        "any",
        "all",
        "len",
        "set",
        "frozenset",
    }

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(
                node.right
            )
        return False

    def _consumed_order_free(
        self, node: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> bool:
        if isinstance(node, ast.SetComp):
            return True  # the result is itself unordered
        parent = parents.get(node)
        if isinstance(parent, ast.Call) and node in parent.args:
            chain = _attr_chain(parent.func)
            if (
                chain is not None
                and chain[-1] in self._ORDER_FREE_CONSUMERS
            ):
                return True
        return False

    def check_module(self, mod: ModuleUnderLint):
        parents = _parent_map(mod.tree)
        for node in ast.walk(mod.tree):
            iters: List[ast.AST] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters = [gen.iter for gen in node.generators]
            else:
                continue
            if self._consumed_order_free(node, parents):
                continue
            for it in iters:
                if self._is_set_expr(it):
                    yield (
                        it.lineno,
                        "iterating a set expression in "
                        "insertion-history order",
                    )


# ----------------------------------------------------------------------
@register_rule
class MissingAllExportRule(LintRule):
    """``__all__`` must agree with the module's actual public surface.

    Every ``__all__`` entry must be bound in the module (a stale entry
    breaks ``import *`` and lies to readers); in ``__init__.py``,
    every public top-level binding must appear in ``__all__`` (an
    unlisted re-export is an accidental API).
    """

    code = "missing-all-export"
    summary = "__all__ out of sync with the module's public names"
    hint = "add the name to __all__ or underscore/remove the binding"

    @staticmethod
    def _all_assignment(
        tree: ast.Module,
    ) -> Optional[Tuple[int, List[str]]]:
        for node in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "__all__"
                    and isinstance(value, (ast.List, ast.Tuple))
                ):
                    names = [
                        e.value
                        for e in value.elts
                        if isinstance(e, ast.Constant)
                        and isinstance(e.value, str)
                    ]
                    return node.lineno, names
        return None

    @staticmethod
    def _top_level_bindings(tree: ast.Module) -> Dict[str, int]:
        bound: Dict[str, int] = {}

        def bind(name: str, line: int) -> None:
            bound.setdefault(name, line)

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bind(node.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        bind(alias.asname or alias.name, node.lineno)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bind(
                        alias.asname or alias.name.split(".")[0],
                        node.lineno,
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bind(target.id, node.lineno)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for elt in target.elts:
                            if isinstance(elt, ast.Name):
                                bind(elt.id, node.lineno)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                bind(node.target.id, node.lineno)
        return bound

    def check_module(self, mod: ModuleUnderLint):
        found = self._all_assignment(mod.tree)
        if found is None:
            return
        all_line, exported = found
        bound = self._top_level_bindings(mod.tree)
        # A module-level __getattr__ (PEP 562 lazy exports) makes the
        # set of resolvable names statically undecidable — only the
        # reverse direction (bound but unlisted) stays checkable.
        lazy = "__getattr__" in bound
        for name in exported:
            if name not in bound and not lazy:
                yield (
                    all_line,
                    f"__all__ lists {name!r}, which the module never "
                    f"binds",
                )
        if mod.is_init:
            for name, line in sorted(bound.items(), key=lambda x: x[1]):
                if name.startswith("_") or name in exported:
                    continue
                yield (
                    line,
                    f"public name {name!r} is bound in __init__ but "
                    f"missing from __all__",
                )


# ----------------------------------------------------------------------
@register_rule
class BareExceptRule(LintRule):
    """``except:`` swallows everything, including KeyboardInterrupt.

    Failures in a priced simulation must surface as typed errors, not
    vanish into a silent fallback that changes results.
    """

    code = "bare-except"
    summary = "bare except handler"
    hint = "catch the narrowest exception type that is actually expected"

    def check_module(self, mod: ModuleUnderLint):
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield (node.lineno, "bare `except:` hides typed failures")
