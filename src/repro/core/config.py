"""Unified system configuration for the outsourcing pipeline.

Every layer of the build path --
:meth:`repro.core.protocol.OutsourcedSystem.setup`,
:class:`repro.core.owner.DataOwner`, :class:`repro.ifmh.IFMHTree`,
:class:`repro.mesh.builder.SignatureMesh` and the benchmark harness --
takes one frozen, validated :class:`SystemConfig` through its ``config=``
argument.  The same object is echoed verbatim into published ADS artifacts
(:mod:`repro.core.artifact`), so a server cold-started from disk knows
exactly how its ADS was built.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.errors import ConstructionError

__all__ = [
    "ONE_SIGNATURE",
    "MULTI_SIGNATURE",
    "SIGNATURE_MESH",
    "SCHEMES",
    "BUILD_MODES",
    "SystemConfig",
]

#: The two IFMH scheme names (mirrors :mod:`repro.ifmh.ifmh_tree`; declared
#: here as plain strings so the config module sits below every other layer).
ONE_SIGNATURE = "one-signature"
MULTI_SIGNATURE = "multi-signature"

#: Scheme name of the signature-mesh baseline.
SIGNATURE_MESH = "signature-mesh"

#: All supported verification schemes.
SCHEMES = (ONE_SIGNATURE, MULTI_SIGNATURE, SIGNATURE_MESH)

#: Supported I-tree construction strategies (mirrors
#: :data:`repro.itree.itree.BUILDERS`, declared here to avoid an import
#: cycle through the geometry stack).
BUILD_MODES = ("incremental", "bulk", "auto")

#: Build flags that older artifact headers echo and this version no longer
#: has: every IFMH build takes the batched level-order forest path, so
#: there is nothing left for them to select.  :meth:`SystemConfig.from_dict`
#: drops them.
_RETIRED_FIELDS = ("hash_consing", "batch_hashing")


@dataclass(frozen=True)
class SystemConfig:
    """Frozen build configuration of one outsourced system.

    Parameters
    ----------
    scheme:
        ``"one-signature"``, ``"multi-signature"`` or ``"signature-mesh"``.
    signature_algorithm:
        ``"rsa"`` (default), ``"dsa"`` or ``"hmac"`` (test-only).
    key_bits:
        Key-size override passed to the signature scheme (``None`` = the
        scheme's default).
    bind_intersections:
        IFMH hardening switch (see :class:`repro.ifmh.IFMHTree`).
    share_signatures:
        Mesh-only: enable the shared-signature optimization.
    build_mode:
        IFMH-only: I-tree construction strategy (``"auto"`` uses the
        vectorized bulk build for the univariate interval configuration and
        the paper's incremental insertion otherwise).
    tolerance:
        Geometry-engine tolerance.  ``None`` selects the engine's default;
        an explicit value -- **including 0.0** (exact comparisons) -- is
        honoured as given, closing the trap where the tolerance could only
        be set by hand-building a :class:`repro.geometry.engine.SplitEngine`.
    """

    scheme: str = ONE_SIGNATURE
    signature_algorithm: str = "rsa"
    key_bits: Optional[int] = None
    bind_intersections: bool = True
    share_signatures: bool = True
    build_mode: str = "auto"
    tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConstructionError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if self.build_mode not in BUILD_MODES:
            raise ConstructionError(
                f"unknown build_mode {self.build_mode!r}; expected one of {BUILD_MODES}"
            )
        if not isinstance(self.signature_algorithm, str) or not self.signature_algorithm:
            raise ConstructionError(
                f"signature_algorithm must be a scheme name, got {self.signature_algorithm!r}"
            )
        if self.key_bits is not None and self.key_bits <= 0:
            raise ConstructionError(f"key_bits must be positive, got {self.key_bits}")
        if self.tolerance is not None and self.tolerance < 0:
            raise ConstructionError(f"tolerance must be >= 0, got {self.tolerance}")

    # -------------------------------------------------------------- helpers
    @property
    def is_ifmh(self) -> bool:
        """True for the two IFMH schemes (false for the mesh baseline)."""
        return self.scheme in (ONE_SIGNATURE, MULTI_SIGNATURE)

    def replace(self, **changes: Any) -> "SystemConfig":
        """A copy of this config with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def make_engine(self, domain) -> "object":
        """The geometry engine this configuration calls for.

        Delegates to :func:`repro.geometry.engine.make_engine`, honouring an
        explicit ``tolerance`` -- including ``0.0``.
        """
        from repro.geometry.engine import make_engine

        return make_engine(domain, tolerance=self.tolerance)

    # ------------------------------------------------------------ dict codec
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (echoed into published ADS artifacts)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemConfig":
        """Rebuild a config from :meth:`to_dict` output (extra keys rejected).

        The two retired build flags of older artifact headers are dropped
        whatever their value: either flag only chose how the forest was
        hashed, never a root, verification object or verdict.
        """
        data = {name: value for name, value in data.items() if name not in _RETIRED_FIELDS}
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConstructionError(
                f"unknown SystemConfig fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)
