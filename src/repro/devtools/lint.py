"""csaw-lint: determinism & purity linter for the C-Saw simulation stack.

Usage::

    csaw-lint src                    # console script
    python -m repro.devtools.lint src

Configuration lives in ``[tool.csawlint]`` in ``pyproject.toml``:

- ``select``: rule codes to run (default: all registered rules);
- ``baseline``: path of a committed baseline file (grandfathered
  findings; see ``--write-baseline``);
- ``[tool.csawlint.allow]``: per-rule lists of fnmatch globs *added* to
  the rule's built-in allowlist (files exempt from the rule);
- ``[tool.csawlint.scope]``: per-rule glob lists *replacing* the rule's
  built-in scope (files the rule applies to);
- ``[tool.csawlint.options]``: free-form rule options, e.g. extra
  ``time-identifiers`` for CSL006.

Inline, ``# csaw-lint: disable=CSL003`` (or a bare ``disable`` for all
codes) suppresses findings on that line — or on the next line when the
comment stands alone.  Exit status is 0 iff no unsuppressed,
non-baselined violations remain.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import sys
from typing import List, Optional, Sequence

from .config import (
    ToolConfig,
    apply_baseline,
    effective_rules,
    find_project_root,  # noqa: F401  (re-exported: part of the lint API)
    iter_python_files,
    load_baseline,
    load_tool_config,
    write_baseline,
)
from .framework import (
    LintContext,
    Rule,
    Violation,
    all_rules,
    is_suppressed,
    suppressed_lines,
)
from . import rules as _rules  # noqa: F401  (imports register the rule catalogue)

__all__ = ["LintConfig", "lint_paths", "load_config", "main"]


# -- configuration -------------------------------------------------------------

#: The lint config is the shared devtools shape (devtools/config.py);
#: ``csaw-analyze`` loads the same dataclass from ``[tool.csawanalyze]``.
LintConfig = ToolConfig


def load_config(config_path: Optional[str], anchor: str) -> LintConfig:
    """Load ``[tool.csawlint]`` from an explicit path or the project root."""
    return load_tool_config("csawlint", config_path, anchor)


# -- core lint loop ------------------------------------------------------------


def lint_source(
    source: str,
    path: str,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Lint one in-memory module; ``path`` drives scope/allow matching."""
    config = config or LintConfig()
    if rules is None:
        rules = effective_rules(all_rules(), config)
    relpath = os.path.relpath(os.path.abspath(path), config.root).replace(
        os.sep, "/"
    )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Violation(
                code="CSL999",
                message=f"syntax error: {exc.msg}",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
            )
        ]
    ctx = LintContext(
        path=path,
        relpath=relpath,
        tree=tree,
        lines=source.splitlines(),
        options=config.options,
    )
    suppressed = suppressed_lines(source)
    violations: List[Violation] = []
    for rule in rules:
        if not rule.applies_to(relpath):
            continue
        for violation in rule.check(ctx):
            if not is_suppressed(violation, suppressed):
                violations.append(violation)
    violations.sort(key=lambda v: (v.line, v.col, v.code))
    return violations


def lint_paths(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> List[Violation]:
    config = config or LintConfig()
    rules = effective_rules(all_rules(), config)
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        violations.extend(lint_source(source, path, config, rules))
    return violations


# -- CLI -----------------------------------------------------------------------


def _hash_fingerprint(violations: Sequence[Violation]) -> str:
    digest = hashlib.sha256()
    for violation in violations:
        digest.update(violation.render().encode("utf-8"))
    return digest.hexdigest()[:12]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="csaw-lint",
        description="AST-based determinism & purity linter for the C-Saw "
        "simulation stack.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or dirs")
    parser.add_argument(
        "--select", help="comma-separated rule codes (default: all)"
    )
    parser.add_argument("--config", help="explicit pyproject.toml path")
    parser.add_argument(
        "--baseline", help="baseline file (overrides [tool.csawlint].baseline)"
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="record current findings as the baseline and exit 0",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, rule_cls in all_rules().items():
            doc = (rule_cls.__doc__ or "").strip().splitlines()[0]
            print(f"{code}  {rule_cls.name:<28} {doc}")
        return 0

    paths = list(args.paths) or ["src"]
    config = load_config(args.config, paths[0])
    if args.select:
        config.select = tuple(
            code.strip() for code in args.select.split(",") if code.strip()
        )

    violations = lint_paths(paths, config)

    if args.write_baseline:
        write_baseline(violations, args.write_baseline, config.root)
        print(
            f"csaw-lint: wrote baseline with {len(violations)} finding(s) "
            f"to {args.write_baseline}"
        )
        return 0

    baseline_path = args.baseline or config.baseline
    if baseline_path and not os.path.isabs(baseline_path):
        baseline_path = os.path.join(config.root, baseline_path)
    fresh, grandfathered = apply_baseline(
        violations, load_baseline(baseline_path), config.root
    )

    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "violations": [vars(v) for v in fresh],
                    "grandfathered": grandfathered,
                    "fingerprint": _hash_fingerprint(fresh),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for violation in fresh:
            print(violation.render())
        summary = f"csaw-lint: {len(fresh)} violation(s)"
        if grandfathered:
            summary += f", {grandfathered} grandfathered by baseline"
        checked = len(iter_python_files(paths))
        summary += f" across {checked} file(s)"
        print(summary, file=sys.stderr)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
