"""Shared configuration & baseline machinery for the devtools CLIs.

``csaw-lint`` (per-file AST rules, ``[tool.csawlint]``) and
``csaw-analyze`` (whole-program rules, ``[tool.csawanalyze]``) read the
same config shape from ``pyproject.toml`` and enforce findings against
the same committed-baseline format, so the mechanics live here once:

- :class:`ToolConfig` — root, rule selection, per-rule ``allow``/
  ``scope`` glob tables, free-form options, baseline path;
- :func:`load_tool_config` — load a ``[tool.<section>]`` table via
  :mod:`tomllib`;
- :func:`effective_rules` — instantiate the selected rules with the
  config's scope/allow globs applied;
- :func:`iter_python_files` — deterministic file discovery;
- baseline read/write/apply — findings are grandfathered per
  ``(file, code)`` count, so a committed-empty baseline enforces every
  rule at zero while ``--write-baseline`` permits incremental adoption.
"""

from __future__ import annotations

import json
import os
import tomllib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .framework import Violation

__all__ = [
    "ToolConfig",
    "apply_baseline",
    "baseline_key",
    "effective_rules",
    "find_project_root",
    "iter_python_files",
    "load_baseline",
    "load_tool_config",
    "load_toml",
    "write_baseline",
]


@dataclass
class ToolConfig:
    """One devtool's effective configuration (lint or analyze)."""

    root: str = "."
    select: Tuple[str, ...] = ()  # empty = all registered
    allow: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    scope: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    options: Dict[str, object] = field(default_factory=dict)
    baseline: Optional[str] = None


def load_toml(path: str) -> Dict[str, object]:
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def effective_rules(registry: Dict[str, type], config: ToolConfig) -> list:
    """Instantiate the selected rules of ``registry`` (code -> class) with
    the config's ``scope`` replacing and ``allow`` extending each rule's
    built-in globs."""
    selected = []
    for code, rule_cls in registry.items():
        if config.select and code not in config.select:
            continue
        rule = rule_cls()
        if code in config.scope:
            rule.scope = tuple(config.scope[code])
        if code in config.allow:
            rule.allow = tuple(rule.allow) + tuple(config.allow[code])
        selected.append(rule)
    return selected


def find_project_root(start: str) -> str:
    """Nearest ancestor of ``start`` containing a ``pyproject.toml``."""
    path = os.path.abspath(start)
    if os.path.isfile(path):
        path = os.path.dirname(path)
    while True:
        if os.path.isfile(os.path.join(path, "pyproject.toml")):
            return path
        parent = os.path.dirname(path)
        if parent == path:
            return os.path.abspath(os.getcwd())
        path = parent


def load_tool_config(
    section_name: str, config_path: Optional[str], anchor: str
) -> ToolConfig:
    """Load ``[tool.<section_name>]`` from an explicit path or the root."""
    if config_path is None:
        root = find_project_root(anchor)
        config_path = os.path.join(root, "pyproject.toml")
        if not os.path.isfile(config_path):
            return ToolConfig(root=root)
    else:
        root = os.path.dirname(os.path.abspath(config_path)) or "."
    table = load_toml(config_path)
    section = table.get("tool", {})
    section = section.get(section_name, {}) if isinstance(section, dict) else {}
    if not isinstance(section, dict):
        section = {}

    def globs(value: object) -> Dict[str, Tuple[str, ...]]:
        if not isinstance(value, dict):
            return {}
        return {
            str(code): tuple(str(g) for g in patterns)
            for code, patterns in value.items()
            if isinstance(patterns, (list, tuple))
        }

    options = section.get("options", {})
    return ToolConfig(
        root=root,
        select=tuple(section.get("select", ())),
        allow=globs(section.get("allow")),
        scope=globs(section.get("scope")),
        options=dict(options) if isinstance(options, dict) else {},
        baseline=section.get("baseline"),
    )


# -- file discovery ------------------------------------------------------------


def iter_python_files(paths: Sequence[str]) -> List[str]:
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            found.append(path)
    return found


# -- baseline ------------------------------------------------------------------


def baseline_key(violation: "Violation", root: str) -> str:
    relpath = os.path.relpath(os.path.abspath(violation.path), root).replace(
        os.sep, "/"
    )
    return f"{relpath}:{violation.code}"


def write_baseline(
    violations: Iterable["Violation"], path: str, root: str
) -> None:
    counts: Dict[str, int] = {}
    for violation in violations:
        key = baseline_key(violation, root)
        counts[key] = counts.get(key, 0) + 1
    payload = {"version": 1, "entries": dict(sorted(counts.items()))}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_baseline(path: Optional[str]) -> Dict[str, int]:
    if not path or not os.path.isfile(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    entries = payload.get("entries", {})
    return {str(k): int(v) for k, v in entries.items()}


def apply_baseline(
    violations: Sequence["Violation"], baseline: Dict[str, int], root: str
) -> Tuple[List["Violation"], int]:
    """Drop up to ``baseline[key]`` findings per (file, code); count kept."""
    remaining = dict(baseline)
    fresh: List["Violation"] = []
    grandfathered = 0
    for violation in violations:
        key = baseline_key(violation, root)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            grandfathered += 1
        else:
            fresh.append(violation)
    return fresh, grandfathered
