"""csaw-analyze: whole-program determinism analyzer for the C-Saw stack.

Usage::

    csaw-analyze src                     # interprocedural checks
    csaw-analyze graph src               # dump call graph + worker set
    python -m repro.devtools.analyze src

Where ``csaw-lint`` proves per-file invariants, this tool parses the
whole tree once into a project index, builds a conservative call graph
(direct calls, method calls by attribute name, callables handed to the
trial runner / executors), computes the worker-reachable closure, and
runs the CSA rules over it.

Configuration lives in ``[tool.csawanalyze]`` in ``pyproject.toml``
with the exact shape of ``[tool.csawlint]`` (``select``, ``baseline``,
``allow``/``scope`` sub-tables, free-form ``options`` — notably
``worker-dispatchers``, extra first-positional-callable dispatcher
names).  Inline ``# csaw-analyze: disable=CSA101`` comments suppress a
line without hiding it from csaw-lint.  Exit status is 0 iff no
unsuppressed, non-baselined findings remain.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from .. import config as _config
from ..config import ToolConfig, effective_rules, load_tool_config
from ..framework import Violation, is_suppressed, suppressed_lines
from .callgraph import build_call_graph
from .index import ProjectIndex
from .rules import AnalysisRule, Project, all_analysis_rules

__all__ = [
    "AnalyzeConfig",
    "Project",
    "analyze_paths",
    "build_project",
    "load_config",
    "main",
]

#: Inline-suppression marker (csaw-lint uses ``csaw-lint``).
MARKER = "csaw-analyze"

AnalyzeConfig = ToolConfig


def load_config(config_path: Optional[str], anchor: str) -> AnalyzeConfig:
    """Load ``[tool.csawanalyze]`` from an explicit path or project root."""
    return load_tool_config("csawanalyze", config_path, anchor)


def build_project(
    paths: Sequence[str], config: Optional[AnalyzeConfig] = None
) -> Project:
    """Parse + index the tree and build the call graph, once."""
    config = config or AnalyzeConfig()
    index = ProjectIndex.build(paths, config.root)
    extra = config.options.get("worker-dispatchers", ())
    if isinstance(extra, str):
        extra = (extra,)
    graph = build_call_graph(index, extra_dispatchers=tuple(extra))
    return Project(index=index, graph=graph, config=config)


def analyze_project(
    project: Project, rules: Optional[Sequence[AnalysisRule]] = None
) -> List[Violation]:
    """Run the CSA rules; apply inline suppressions per finding file."""
    if rules is None:
        rules = effective_rules(all_analysis_rules(), project.config)
    violations: List[Violation] = []
    for rule in rules:
        violations.extend(rule.check(project))
    for relpath, error in project.index.parse_errors:
        violations.append(
            Violation(
                code="CSA999",
                message=f"syntax error: {error}",
                path=os.path.join(project.config.root, relpath),
                line=1,
                col=1,
            )
        )
    suppressions: Dict[str, Dict[int, frozenset]] = {}
    for module in project.index.modules.values():
        suppressions[module.path] = suppressed_lines(module.source, MARKER)
    kept = [
        violation
        for violation in violations
        if not is_suppressed(violation, suppressions.get(violation.path, {}))
    ]
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return kept


def analyze_paths(
    paths: Sequence[str], config: Optional[AnalyzeConfig] = None
) -> List[Violation]:
    config = config or AnalyzeConfig()
    return analyze_project(build_project(paths, config))


# -- CLI -----------------------------------------------------------------------


def _graph_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="csaw-analyze graph",
        description="Dump the conservative call graph and worker-reachable "
        "set as JSON.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or dirs")
    parser.add_argument("--config", help="explicit pyproject.toml path")
    parser.add_argument(
        "--output", help="write JSON here instead of stdout"
    )
    args = parser.parse_args(argv)
    paths = list(args.paths) or ["src"]
    config = load_config(args.config, paths[0])
    project = build_project(paths, config)
    payload = project.graph.to_json()
    payload["parse_errors"] = sorted(
        relpath for relpath, _ in project.index.parse_errors
    )
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "graph":
        return _graph_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="csaw-analyze",
        description="Whole-program determinism analyzer (call graph + "
        "worker reachability) for the C-Saw simulation stack.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or dirs")
    parser.add_argument(
        "--select", help="comma-separated rule codes (default: all)"
    )
    parser.add_argument("--config", help="explicit pyproject.toml path")
    parser.add_argument(
        "--baseline",
        help="baseline file (overrides [tool.csawanalyze].baseline)",
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
    parser.add_argument(
        "--timing", action="store_true", help="report analysis wall time"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, rule_cls in all_analysis_rules().items():
            doc = (rule_cls.__doc__ or "").strip().splitlines()[0]
            print(f"{code}  {rule_cls.name:<30} {doc}")
        return 0

    paths = list(args.paths) or ["src"]
    config = load_config(args.config, paths[0])
    if args.select:
        config.select = tuple(
            code.strip() for code in args.select.split(",") if code.strip()
        )

    # Real tool wall time (--timing), not simulated time.
    started = time.perf_counter()  # csaw-lint: disable=CSL002
    project = build_project(paths, config)
    violations = analyze_project(project)
    elapsed = time.perf_counter() - started  # csaw-lint: disable=CSL002

    if args.write_baseline:
        _config.write_baseline(violations, args.write_baseline, config.root)
        print(
            f"csaw-analyze: wrote baseline with {len(violations)} finding(s) "
            f"to {args.write_baseline}"
        )
        return 0

    baseline_path = args.baseline or config.baseline
    if baseline_path and not os.path.isabs(baseline_path):
        baseline_path = os.path.join(config.root, baseline_path)
    fresh, grandfathered = _config.apply_baseline(
        violations, _config.load_baseline(baseline_path), config.root
    )

    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "violations": [vars(v) for v in fresh],
                    "grandfathered": grandfathered,
                    "n_functions": len(project.index.functions),
                    "n_worker_reachable": len(project.graph.worker_reachable),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for violation in fresh:
            print(violation.render())
        summary = (
            f"csaw-analyze: {len(fresh)} finding(s) across "
            f"{len(project.index.modules)} module(s), "
            f"{len(project.index.functions)} function(s), "
            f"{len(project.graph.worker_reachable)} worker-reachable"
        )
        if grandfathered:
            summary += f", {grandfathered} grandfathered by baseline"
        if args.timing:
            summary += f" [{elapsed:.2f}s]"
        print(summary, file=sys.stderr)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
