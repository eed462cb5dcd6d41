"""The reprolint rule suite.

Each rule protects one project invariant (see ``docs/static-analysis.md``
for the catalogue).  Rules subclass :class:`Rule`, declare the module
prefixes they apply to (``scopes``; overridable per rule via
``[tool.reprolint.rlNNN] scopes = [...]``) and consume the single-pass
indexes of :class:`repro.analysis.source.ModuleInfo`.
"""

from __future__ import annotations

import ast
from typing import Any, List, Mapping, Sequence, Tuple

from repro.analysis.config import LintConfigError
from repro.analysis.findings import Finding
from repro.analysis.source import ModuleInfo

__all__ = ["Rule", "all_rules"]


class Rule:
    """Base class for one machine-checked invariant."""

    #: Stable identifier, e.g. ``"RL001"``.
    rule_id: str = ""
    #: Short human name used by ``--list-rules``.
    name: str = ""
    #: One-line statement of the protected invariant.
    summary: str = ""
    #: Module-name prefixes this rule applies to; ``()`` means every module.
    scopes: Tuple[str, ...] = ("repro",)
    #: Option names accepted via ``[tool.reprolint.rlNNN]``.
    option_names: Tuple[str, ...] = ("scopes",)

    def configure(self, options: Mapping[str, Any]) -> None:
        """Apply per-rule options from the config file (strict on typos)."""
        for key, value in options.items():
            if key not in self.option_names:
                raise LintConfigError(
                    f"rule {self.rule_id} has no option {key!r}; "
                    f"accepted: {sorted(self.option_names)}"
                )
            if isinstance(getattr(type(self), key, None), property):
                raise LintConfigError(f"rule {self.rule_id} option {key!r} is read-only")
            if isinstance(value, list):
                value = tuple(value)
            setattr(self, key, value)

    def applies_to(self, module: str) -> bool:
        if not self.scopes:
            return True
        return any(
            module == scope or module.startswith(scope + ".") for scope in self.scopes
        )

    def check(self, info: ModuleInfo) -> List[Finding]:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------- helpers
    def finding(self, info: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=info.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
        )


def all_rules() -> Sequence[Rule]:
    """Fresh instances of the full rule suite, in id order."""
    from repro.analysis.rules.determinism import UnseededEntropyRule
    from repro.analysis.rules.epoch import EpochBindingRule
    from repro.analysis.rules.exactness import ExactPredicateRule
    from repro.analysis.rules.frozen import FrozenMutationRule
    from repro.analysis.rules.hashing import CountedDigestRule
    from repro.analysis.rules.locking import LockGuardRule
    from repro.analysis.rules.persistence import AtomicPersistenceRule
    from repro.analysis.rules.reference import ReferenceImportRule
    from repro.analysis.rules.robustness import SwallowedBroadExceptRule
    from repro.analysis.rules.scaling import CpuCountRule
    from repro.analysis.rules.serving import ServingWallClockRule

    return (
        CountedDigestRule(),
        EpochBindingRule(),
        FrozenMutationRule(),
        UnseededEntropyRule(),
        ExactPredicateRule(),
        LockGuardRule(),
        ReferenceImportRule(),
        SwallowedBroadExceptRule(),
        AtomicPersistenceRule(),
        ServingWallClockRule(),
        CpuCountRule(),
    )
