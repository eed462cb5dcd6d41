"""RL007 over every import form, absolute and relative.

The fixture tests pin the rule's findings on whole files; this table pins
which single import statements count as importing :mod:`repro.reference`
from which module, including relative imports resolved against the
importing module's package.
"""

import pytest

from repro.analysis.rules.reference import ReferenceImportRule
from repro.analysis.source import parse_module

FLAGGED = [
    ("src/repro/core/owner.py", "import repro.reference"),
    ("src/repro/core/owner.py", "import repro.reference.ifmh as naive"),
    ("src/repro/core/owner.py", "from repro.reference import naive_ifmh_tree"),
    ("src/repro/core/owner.py", "from repro.reference.itree import balanced_incremental_itree"),
    ("src/repro/core/owner.py", "from repro import reference"),
    ("src/repro/core/owner.py", "from ..reference import naive_ifmh_tree"),
    ("src/repro/core/owner.py", "from .. import reference"),
    ("src/repro/core/artifact/io.py", "from ...reference.merkle import arena_from_level_trees"),
    ("src/repro/ifmh/__init__.py", "from ..reference.ifmh import naive_ifmh_tree"),
    ("src/repro/__init__.py", "from .reference import arena_from_level_trees"),
    ("src/repro/__init__.py", "from . import reference"),
    (
        "src/repro/merkle/engine.py",
        "def build():\n    from ..reference.merkle import arena_from_level_trees\n",
    ),
]

ALLOWED = [
    # The benchmarks and the package itself may import the reference.
    ("src/repro/bench/fastpath.py", "from repro.reference import naive_ifmh_tree"),
    ("src/repro/bench/fastpath.py", "from ..reference import naive_ifmh_tree"),
    ("src/repro/reference/ifmh.py", "from .merkle import arena_from_level_trees"),
    ("src/repro/reference/__init__.py", "from repro.reference.ifmh import naive_ifmh_tree"),
    # Names that only share a prefix, or resolve to a different package.
    ("src/repro/core/owner.py", "from repro.references import catalogue"),
    ("src/repro/core/owner.py", "from .reference_counts import tally"),
    ("src/repro/core/owner.py", "from . import reference"),
    ("src/repro/ifmh/__init__.py", "from .reference import tally"),
    ("src/repro/core/owner.py", "from repro.merkle import engine"),
]


def _findings(relpath, source):
    return ReferenceImportRule().check(parse_module(relpath, source))


@pytest.mark.parametrize("relpath,source", FLAGGED)
def test_reference_import_is_flagged(relpath, source):
    (finding,) = _findings(relpath, source)
    assert finding.rule == "RL007"
    assert "repro.reference" in finding.message


@pytest.mark.parametrize("relpath,source", ALLOWED)
def test_other_import_is_not_flagged(relpath, source):
    assert _findings(relpath, source) == []
