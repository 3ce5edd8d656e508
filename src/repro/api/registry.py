"""The platform registry: every accelerator behind one factory API.

Mirrors the workload registry in :mod:`repro.core.base` — platforms are
registered by name and resolved through :func:`get_platform`, so the
CLI, the :class:`~repro.api.session.Session` facade and the serving
layer all build ``"tron"`` or ``"ghost"`` (or any roofline baseline)
the same way:

- **Configurable platforms** (TRON, GHOST) register with their config
  dataclass; :func:`get_platform` accepts either a full config instance
  or a sparse ``overrides`` mapping that deep-merges into the defaults
  and re-validates (unknown keys and out-of-range values fail with the
  offending path).
- **Fixed platforms** (the Figs. 8-11 roofline/reported baselines)
  register as-is; asking them to take overrides is a
  :class:`~repro.errors.ConfigurationError`.

Example:
    >>> sorted(p for p in list_platforms() if p.islower())
    ['ghost', 'tron']
    >>> get_platform("tron").config.batch
    1
    >>> get_platform("tron", overrides={"batch": 8}).config.batch
    8
    >>> get_platform("warp-drive")
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: unknown platform 'warp-drive'; known platforms: ['A100 GPU', 'EnGN', 'FPGA_Acc1', 'FPGA_Acc2', 'GRIP', 'HW_ACC', 'HyGCN', 'ReGNN', 'ReGraphX', 'TPU v2', 'TPU v4', 'TransPIM', 'V100 GPU', 'VAQF', 'Xeon CPU', 'ghost', 'tron']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.core.base import Accelerator, WorkloadKind
from repro.core.serialization import config_from_dict, merge_overrides
from repro.errors import ConfigurationError

#: A platform factory: takes an optional config instance, returns a
#: ready accelerator.
PlatformFactory = Callable[[Optional[object]], Accelerator]


@dataclass(frozen=True)
class PlatformInfo:
    """One registry entry.

    Attributes:
        name: registry key (as the CLI/specs spell it).
        factory: builds the accelerator from an optional config.
        config_type: the platform's config dataclass, or ``None`` for
            fixed (non-configurable) platforms.
        description: one-line human-readable note.
    """

    name: str
    factory: PlatformFactory
    config_type: Optional[type] = None
    description: str = ""

    @property
    def configurable(self) -> bool:
        """Whether this platform accepts a config / overrides."""
        return self.config_type is not None


_PLATFORMS: Dict[str, PlatformInfo] = {}
_DEFAULTS_REGISTERED = False


def register_platform(
    name: str,
    factory: PlatformFactory,
    config_type: Optional[type] = None,
    description: str = "",
) -> None:
    """Register a platform factory under a unique name.

    Example:
        >>> register_platform("tron", lambda config=None: None)
        Traceback (most recent call last):
            ...
        repro.errors.ConfigurationError: platform 'tron' is already registered
    """
    _ensure_defaults()
    if name in _PLATFORMS:
        raise ConfigurationError(f"platform {name!r} is already registered")
    _PLATFORMS[name] = PlatformInfo(
        name=name,
        factory=factory,
        config_type=config_type,
        description=description,
    )


def _fixed_factory(platform: Accelerator) -> PlatformFactory:
    """The factory of a fixed (non-configurable) platform."""

    def build(config: Optional[object] = None) -> Accelerator:
        if config is not None:
            raise ConfigurationError(
                f"platform {platform.name!r} takes no configuration"
            )
        return platform

    return build


def _ensure_defaults() -> None:
    """Register the stock platforms once (lazily, on first use)."""
    global _DEFAULTS_REGISTERED
    if _DEFAULTS_REGISTERED:
        return
    _DEFAULTS_REGISTERED = True
    from repro.baselines.gnn import gnn_baseline_platforms
    from repro.baselines.llm import llm_baseline_platforms
    from repro.core.ghost import GHOST, GHOSTConfig
    from repro.core.tron import TRON, TRONConfig

    _PLATFORMS["tron"] = PlatformInfo(
        name="tron",
        factory=lambda config=None: TRON(
            config if config is not None else TRONConfig()
        ),
        config_type=TRONConfig,
        description="silicon-photonic transformer accelerator",
    )
    _PLATFORMS["ghost"] = PlatformInfo(
        name="ghost",
        factory=lambda config=None: GHOST(
            config if config is not None else GHOSTConfig()
        ),
        config_type=GHOSTConfig,
        description="silicon-photonic GNN accelerator",
    )
    for platform in (*llm_baseline_platforms(), *gnn_baseline_platforms()):
        if platform.name in _PLATFORMS:
            continue  # e.g. "Xeon CPU" appears in both baseline sets
        _PLATFORMS[platform.name] = PlatformInfo(
            name=platform.name,
            factory=_fixed_factory(platform),
            config_type=None,
            description="fixed baseline platform (Figs. 8-11)",
        )


def get_platform_info(name: str) -> PlatformInfo:
    """The registry entry for ``name`` (helpful error on unknowns)."""
    _ensure_defaults()
    if name not in _PLATFORMS:
        raise ConfigurationError(
            f"unknown platform {name!r}; known platforms: "
            f"{list_platforms()}"
        )
    return _PLATFORMS[name]


def list_platforms() -> List[str]:
    """Sorted names of all registered platforms.

    Example:
        >>> "tron" in list_platforms() and "V100 GPU" in list_platforms()
        True
    """
    _ensure_defaults()
    return sorted(_PLATFORMS)


def resolve_platform(name: str, kind: WorkloadKind) -> str:
    """The concrete platform ``name`` denotes for a workload kind.

    ``"auto"`` routes graph workloads (static and temporal) to GHOST
    and everything else to TRON — the single routing rule the CLI, the
    serving layer and the Session facade share.

    Example:
        >>> resolve_platform("auto", WorkloadKind.GNN)
        'ghost'
        >>> resolve_platform("auto", WorkloadKind.TEMPORAL_GNN)
        'ghost'
        >>> resolve_platform("auto", WorkloadKind.TRANSFORMER)
        'tron'
        >>> resolve_platform("auto", WorkloadKind.DECODE)
        'tron'
        >>> resolve_platform("tron", WorkloadKind.MLP)
        'tron'
    """
    if name == "auto":
        return auto_platform(kind)
    get_platform_info(name)  # validate eagerly, with the helpful error
    return name


#: Workload kinds ``"auto"`` routes to GHOST: static and temporal graphs.
GRAPH_KINDS = frozenset({WorkloadKind.GNN, WorkloadKind.TEMPORAL_GNN})


def auto_platform(kind: WorkloadKind) -> str:
    """The platform ``"auto"`` picks for a workload kind (no
    validation: cheap enough for every served request)."""
    return "ghost" if kind in GRAPH_KINDS else "tron"


def platform_config(
    name: str, overrides: Optional[Mapping[str, Any]] = None
) -> Optional[object]:
    """The config instance ``(name, overrides)`` denotes.

    ``None`` overrides (or ``{}``) yield the platform's default config;
    fixed platforms return ``None`` (and reject overrides).  Sparse
    overrides deep-merge into the defaults and re-validate, so an
    override dict is exactly equivalent to constructing the config by
    hand.

    Example:
        >>> platform_config("ghost", {"lanes": 8}).lanes
        8
        >>> from repro.core.tron import TRONConfig
        >>> platform_config("tron", {"batch": 8}) == TRONConfig(batch=8)
        True
    """
    info = get_platform_info(name)
    if not info.configurable:
        if overrides:
            raise ConfigurationError(
                f"platform {name!r} takes no configuration overrides"
            )
        return None
    if not overrides:
        return info.config_type()
    base = info.config_type().to_dict()
    return config_from_dict(
        info.config_type,
        merge_overrides(base, overrides),
        path=f"{name}.overrides",
    )


def get_platform(
    name: str,
    config: Optional[object] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Accelerator:
    """Build a registered platform.

    Args:
        name: registered platform name (``"tron"``, ``"ghost"``, or a
            baseline name; *not* ``"auto"`` — resolve that first with
            :func:`resolve_platform`).
        config: a full config instance (mutually exclusive with
            ``overrides``).
        overrides: sparse knob overrides merged into the default config.

    Example:
        >>> get_platform("ghost").name
        'GHOST'
    """
    if config is not None and overrides:
        raise ConfigurationError(
            "pass either a config instance or overrides, not both"
        )
    info = get_platform_info(name)
    if config is None and info.configurable:
        config = platform_config(name, overrides)
    elif overrides:
        platform_config(name, overrides)  # raises the no-config error
    return info.factory(config)
