"""RL007: only tests and the benchmarks import the slow reference code.

:mod:`repro.reference` holds the slow constructions -- the naive
per-subdomain FMH build, the median-first incremental I-tree, the by-value
arena re-encoding -- that the fast construction path is checked against.
They are test oracles, not production options: an import of them from the
owner, server or update path would make a slow path live again.  The rule
flags every import of ``repro.reference`` (the package, a submodule,
``from repro import reference``, or a relative import that resolves to
one of these) in a ``repro`` module outside ``repro.reference`` itself
and ``repro.bench``.  Tests live outside ``repro`` and may import it
freely.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule
from repro.analysis.source import ModuleInfo

__all__ = ["ReferenceImportRule"]

#: The test-only package.
_REFERENCE = "repro.reference"

#: Modules that may import it: the package itself and the benchmarks,
#: which time the fast path against it.
_ALLOWED_IMPORTERS = (_REFERENCE, "repro.bench")


def _within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def _import_base(info: ModuleInfo, node: ast.ImportFrom) -> str:
    """The absolute module a ``from`` import reads from (relative resolved)."""
    if node.level == 0:
        return node.module or ""
    package = info.module.split(".")
    if os.path.basename(info.relpath) != "__init__.py":
        package = package[:-1]
    package = package[: max(0, len(package) - (node.level - 1))]
    return ".".join(package + ([node.module] if node.module else []))


def _imported_modules(info: ModuleInfo, node: ast.AST) -> Iterator[str]:
    """Every dotted name an import statement may bind a module from."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
    elif isinstance(node, ast.ImportFrom):
        base = _import_base(info, node)
        if not base:
            return
        yield base
        for alias in node.names:
            yield f"{base}.{alias.name}"


class ReferenceImportRule(Rule):
    rule_id = "RL007"
    name = "reference-import"
    summary = "only tests and repro.bench import the slow reference implementations"
    scopes = ("repro",)

    def check(self, info: ModuleInfo) -> List[Finding]:
        if any(_within(info.module, allowed) for allowed in _ALLOWED_IMPORTERS):
            return []
        findings: List[Finding] = []
        for node in info.nodes(ast.Import, ast.ImportFrom):
            if any(_within(name, _REFERENCE) for name in _imported_modules(info, node)):
                findings.append(
                    self.finding(
                        info,
                        node,
                        f"{info.module} imports {_REFERENCE}: the slow reference "
                        "implementations are test oracles, imported only by tests "
                        "and repro.bench",
                    )
                )
        return findings
