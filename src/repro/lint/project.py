"""The whole-program pass: project symbol table + call graph.

The per-file rules of PR 4 see one ``FileContext`` at a time, which is
exactly why they miss a counted-access helper called through one level
of indirection. This module parses the full source tree **once** into
a :class:`ProjectContext` — module symbol tables (classes, functions,
imports), a resolved intra-package call graph and the class hierarchy
— and the engine hands it to every rule via
:meth:`~repro.lint.engine.Rule.begin` before the per-file walk starts.

Resolution is deliberately static and conservative: only calls that
resolve to a project-local definition become call-graph edges
(``f(...)`` to a module-level def or an imported ``repro.*`` symbol,
``self.m(...)`` to a method of the enclosing class or one of its
project-local bases). Dynamic dispatch through variables, containers
or ``getattr`` is out of scope — a rule built on this graph can have
false *negatives* through such calls, never false positives from
misresolved edges.

Functions are identified by a stable qualified name::

    repro/sim/controller.py::SecureMemoryController.write_data
    repro/lab/lease.py::spec_from_json

which is also what rules print in findings, so a reader can jump to
the definition.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple


def qualify(module_path: str, name: str) -> str:
    """The project-wide id of a definition: ``<module>::<qualname>``."""
    return "%s::%s" % (module_path, name)


def module_dotted(module_path: str) -> str:
    """``repro/sim/machine.py`` -> ``repro.sim.machine``."""
    trimmed = module_path
    if trimmed.endswith(".py"):
        trimmed = trimmed[: -len(".py")]
    if trimmed.endswith("/__init__"):
        trimmed = trimmed[: -len("/__init__")]
    return trimmed.replace("/", ".")


class FunctionInfo:
    """One function or method definition, with its body retained."""

    __slots__ = (
        "module_path", "qualname", "name", "node", "params",
        "class_name", "decorators",
    )

    def __init__(self, module_path: str, qualname: str,
                 node: ast.AST, class_name: Optional[str]) -> None:
        self.module_path = module_path
        self.qualname = qualname
        self.name = qualname.rsplit(".", 1)[-1]
        self.node = node
        self.class_name = class_name
        args = node.args  # type: ignore[attr-defined]
        self.params: List[str] = [a.arg for a in args.posonlyargs] + [
            a.arg for a in args.args
        ]
        self.decorators: List[str] = []
        for decorator in node.decorator_list:  # type: ignore[attr-defined]
            target = decorator.func if isinstance(decorator, ast.Call) \
                else decorator
            if isinstance(target, ast.Name):
                self.decorators.append(target.id)
            elif isinstance(target, ast.Attribute):
                self.decorators.append(target.attr)

    @property
    def qualified(self) -> str:
        return qualify(self.module_path, self.qualname)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def positional_params(self) -> List[str]:
        """Parameters a caller can bind positionally, ``self`` dropped
        for methods (call sites pass the receiver implicitly)."""
        if self.is_method and "staticmethod" not in self.decorators:
            return self.params[1:]
        return self.params


class ClassInfo:
    """One class definition: its bases and methods."""

    __slots__ = ("module_path", "name", "node", "base_names", "methods")

    def __init__(self, module_path: str, node: ast.ClassDef) -> None:
        self.module_path = module_path
        self.name = node.name
        self.node = node
        self.base_names: List[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                self.base_names.append(base.id)
            elif isinstance(base, ast.Attribute):
                self.base_names.append(base.attr)
        self.methods: Dict[str, FunctionInfo] = {}

    @property
    def qualified(self) -> str:
        return qualify(self.module_path, self.name)


class ModuleInfo:
    """One parsed module: imports, top-level defs, classes."""

    __slots__ = ("path", "module_path", "dotted", "imports",
                 "functions", "classes", "tree")

    def __init__(self, path: str, module_path: str) -> None:
        self.path = path
        self.module_path = module_path
        self.dotted = module_dotted(module_path)
        self.tree: Optional[ast.Module] = None
        self.imports: Dict[str, str] = {}
        """Local name -> dotted target (``from repro.x import f`` maps
        ``f`` to ``repro.x.f``; ``import repro.x as y`` maps ``y`` to
        ``repro.x``)."""
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}


class _ModuleCollector(ast.NodeVisitor):
    """Fill a :class:`ModuleInfo` from one parsed tree."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self._class_stack: List[ClassInfo] = []

    # ---- imports ------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else \
                alias.name.split(".")[0]
            self.info.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # resolve relative imports against this module's package
            parts = self.info.dotted.split(".")
            parts = parts[: len(parts) - node.level]
            base = ".".join(parts + ([node.module] if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.info.imports[local] = (
                base + "." + alias.name if base else alias.name
            )

    # ---- definitions --------------------------------------------------
    def _add_function(self, node: ast.AST, name: str) -> None:
        if self._class_stack:
            owner = self._class_stack[-1]
            qualname = "%s.%s" % (owner.name, name)
            fn = FunctionInfo(self.info.module_path, qualname, node,
                              owner.name)
            owner.methods[name] = fn
        else:
            fn = FunctionInfo(self.info.module_path, name, node, None)
            self.info.functions[name] = fn

    # nested defs are not indexed as call targets: their names are not
    # addressable from other scopes
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._add_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._add_function(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cls = ClassInfo(self.info.module_path, node)
        self.info.classes[node.name] = cls
        self._class_stack.append(cls)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()


class ProjectContext:
    """The whole-tree view rules query: symbols, calls, hierarchy."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_dotted: Dict[str, ModuleInfo] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_module(self, path: str, module_path: str,
                   tree: ast.Module) -> ModuleInfo:
        info = ModuleInfo(path, module_path)
        info.tree = tree
        collector = _ModuleCollector(info)
        for node in tree.body:
            collector.visit(node)
        self.modules[module_path] = info
        self._by_dotted[info.dotted] = info
        return info

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def module(self, module_path: str) -> Optional[ModuleInfo]:
        return self.modules.get(module_path)

    def module_by_dotted(self, dotted: str) -> Optional[ModuleInfo]:
        return self._by_dotted.get(dotted)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for info in self.modules.values():
            yield from info.functions.values()
            for cls in info.classes.values():
                yield from cls.methods.values()

    def function(self, qualified: str) -> Optional[FunctionInfo]:
        module_path, _, qualname = qualified.partition("::")
        info = self.modules.get(module_path)
        if info is None:
            return None
        if "." in qualname:
            class_name, method = qualname.split(".", 1)
            cls = info.classes.get(class_name)
            return None if cls is None else cls.methods.get(method)
        return info.functions.get(qualname)

    # ------------------------------------------------------------------
    # class hierarchy
    # ------------------------------------------------------------------
    def resolve_base(self, cls: ClassInfo,
                     base_name: str) -> Optional[ClassInfo]:
        """The project-local :class:`ClassInfo` a base name refers to."""
        info = self.modules.get(cls.module_path)
        if info is None:
            return None
        local = info.classes.get(base_name)
        if local is not None and local is not cls:
            return local
        dotted = info.imports.get(base_name)
        if dotted is None:
            return None
        owner_dotted, _, symbol = dotted.rpartition(".")
        owner = self._by_dotted.get(owner_dotted)
        if owner is not None and symbol in owner.classes:
            return owner.classes[symbol]
        # ``import repro.mem.nvm as n; class X(n.NVM)`` resolves the
        # attribute name only; try every module exporting that class
        for candidate in self.modules.values():
            if base_name in candidate.classes and candidate is not info:
                resolved = candidate.classes[base_name]
                if resolved is not cls:
                    return resolved
        return None

    def mro_names(self, cls: ClassInfo,
                  _seen: Optional[Set[str]] = None) -> List[ClassInfo]:
        """``cls`` plus its project-local ancestors (cycle-safe)."""
        if _seen is None:
            _seen = set()
        if cls.qualified in _seen:
            return []
        _seen.add(cls.qualified)
        out = [cls]
        for base_name in cls.base_names:
            base = self.resolve_base(cls, base_name)
            if base is not None:
                out.extend(self.mro_names(base, _seen))
        return out

    def is_subclass_of(self, cls: ClassInfo, module_path: str,
                       class_name: str) -> bool:
        """Whether ``cls`` inherits (transitively) from the named
        project class — itself excluded."""
        for ancestor in self.mro_names(cls)[1:]:
            if (ancestor.module_path == module_path
                    and ancestor.name == class_name):
                return True
        return False

    def subclasses_of(self, module_path: str,
                      class_name: str) -> List[ClassInfo]:
        out = []
        for info in self.modules.values():
            for cls in info.classes.values():
                if self.is_subclass_of(cls, module_path, class_name):
                    out.append(cls)
        return out

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def resolve_call(self, module_path: str, call: ast.Call,
                     enclosing_class: Optional[str] = None
                     ) -> Optional[FunctionInfo]:
        """The project-local callee of ``call``, if statically known.

        Handles ``f(...)`` (local def or ``from repro.x import f``),
        ``mod.f(...)`` (``import repro.x as mod``) and ``self.m(...)``
        (method of the enclosing class or a project-local ancestor).
        """
        info = self.modules.get(module_path)
        if info is None:
            return None
        func = call.func
        if isinstance(func, ast.Name):
            local = info.functions.get(func.id)
            if local is not None:
                return local
            dotted = info.imports.get(func.id)
            if dotted is None:
                return None
            owner_dotted, _, symbol = dotted.rpartition(".")
            owner = self._by_dotted.get(owner_dotted)
            if owner is None:
                return None
            return owner.functions.get(symbol)
        if isinstance(func, ast.Attribute):
            recv = func.value
            if (isinstance(recv, ast.Name) and recv.id == "self"
                    and enclosing_class is not None):
                cls = info.classes.get(enclosing_class)
                if cls is None:
                    return None
                for ancestor in self.mro_names(cls):
                    method = ancestor.methods.get(func.attr)
                    if method is not None:
                        return method
                return None
            if isinstance(recv, ast.Name):
                dotted = info.imports.get(recv.id)
                if dotted is not None:
                    owner = self._by_dotted.get(dotted)
                    if owner is not None:
                        return owner.functions.get(func.attr)
        return None

    def enclosing_functions(self, module_path: str
                            ) -> List[Tuple[FunctionInfo, ast.AST]]:
        """Every indexed function of a module with its body node."""
        info = self.modules.get(module_path)
        if info is None:
            return []
        out: List[Tuple[FunctionInfo, ast.AST]] = []
        for fn in info.functions.values():
            out.append((fn, fn.node))
        for cls in info.classes.values():
            for fn in cls.methods.values():
                out.append((fn, fn.node))
        return out
