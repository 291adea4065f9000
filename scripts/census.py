#!/usr/bin/env python3
"""Census of ``src/repro``: the surface nothing calls.

Four lists, all matched by *name* with the stdlib ``ast`` (the code is
parsed, never imported):

1. **modules** no other module of ``src/`` imports — a package
   ``__init__`` re-exporting a name is not a caller, a file importing
   that name from the package is.  Tests, benchmarks and examples do
   not count here: a module only they reach is listed, and ``ALLOW``
   says who reaches it;
2. **options** nothing sets — fields of ``*Config`` dataclasses and
   constructor parameters with a default that no file but the defining
   one passes (as a keyword, positionally to the class, as a dict key
   or by attribute assignment), and environment variables ``src/``
   reads that no workflow, benchmark, example or script mentions;
3. **definitions** (functions, classes, methods) whose name appears in
   no file of ``src/``, ``benchmarks/``, ``examples/`` or ``scripts/``
   apart from the ``def`` itself — marked ``tests only`` when
   ``tests/`` mentions it, ``nothing`` otherwise.  The contents of a
   module already on list 1 are not listed again, and for the modules
   in ``TEST_FACING`` a test is a caller;
4. **routes** (``add_route`` templates) whose first path segment no
   file of those four directories requests as a ``"/seg…"`` or
   ``"svc://host/seg…"`` literal, or as a ``"seg…"`` appended to a URI
   (``peer + "replicate"``) — marked like list 3.

Matching by name errs towards silence (``timeout=`` anywhere keeps
every ``timeout`` parameter alive), so a finding is real while the
absence of one proves nothing.  ``ALLOW`` holds the findings kept on
purpose, each with its reason; ``tests/test_census.py`` runs this in
tier-1, so the list can shrink but cannot silently grow.

Usage::

    python scripts/census.py    # exit 1 on an unlisted or stale entry
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
#: directories whose files count as callers of a definition
CALLER_DIRS = ("src", "benchmarks", "examples", "scripts")
#: modules that exist to be driven by tests
TEST_FACING = ("repro.simulation.faults",)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: the first path segment a literal requests: "/seg…" or "svc://host/seg…"
_REQUEST = re.compile(r"(?:svc://[\w.\-]+)?/([\w.\-]+)")


def _allow(reason: str, *findings: str) -> Dict[str, str]:
    return {finding: reason for finding in findings}


_FLOOR = ("deleting it retires the tier-1 tests written for it, and one "
          "PR may retire only a few; PR 20 spent its allowance on "
          "REPRO_PROFILE, gauge_fn, fit_from_model, ConflictError and "
          "find_entity")

#: finding -> why it stays.  An entry without a reason fails the test.
ALLOW: Dict[str, str] = {
    **_allow("the console script (`repro = repro.cli:main` in "
             "pyproject.toml, `python -m repro.cli`)",
             "module: repro.cli"),
    **_allow("an adapter registers itself with `@register_protocol` when "
             "`repro.protocols` imports it; callers reach it by name "
             "through `make_adapter(protocol)`",
             *(f"module: repro.protocols.{name}" for name in
               ("ble", "coap", "enocean", "ieee802154", "opcua", "zigbee"))),
    **_allow("the centralized baseline C3 compares the framework with "
             "(benchmarks/bench_c3_vs_centralized.py)",
             "module: repro.baselines.centralized"),
    **_allow("the relay ablation A1 compares redirects with "
             "(benchmarks/bench_a1_redirect_vs_relay.py)",
             "module: repro.core.relay"),
    **_allow("the BENCH_<id>.json schema the benchmark conftest writes "
             "and perf-smoke uploads; load_bench_reports and "
             "validate_bench_report lost their last reader with the "
             "wall-clock gate but stay, because " + _FLOOR,
             "module: repro.observability.benchreport"),
    **_allow("the flattened counters the R1 / R2 / R4 benchmark reports "
             "print",
             "module: repro.simulation.metrics"),
    **_allow("called by examples/anomaly_detection.py and "
             "examples/demand_response.py (ROADMAP standing rider: moves "
             "there or goes)",
             "module: repro.core.analytics"),
    **_allow("called by examples/network_efficiency.py (ROADMAP standing "
             "rider: moves there or goes)",
             "module: repro.gridsim.flow"),
    **_allow("caller-less, to be deleted with its tests (ROADMAP standing "
             "rider); kept only because " + _FLOOR,
             "module: repro.devices.mesh",
             "module: repro.storage.export",
             "module: repro.simulation.workloads",
             "option: MeshNetwork.gateway_position"),
    **_allow("not an option: the initial value of per-node state that "
             "`AddressSpace.update` overwrites on every sample",
             "option: DataValue.source_timestamp"),
    **_allow("the only way to change a running proxy's descriptor; "
             "tests/test_lease_renewal.py drives the full-heartbeat "
             "path with it",
             "definition: repro.proxies.device_proxy.detach_device "
             "(tests only)"),
    **_allow("operator verbs on the dead-letter queue: a person reads "
             "what was dead-lettered, and a drain is a logged `dlq_drain` "
             "record that WAL replay and standbys apply",
             "route: /deadletter (GET, repro.middleware.broker; tests only)",
             "route: /deadletter/drain (POST, repro.middleware.broker; "
             "tests only)"),
    **_allow("Figure 1(b)'s device discovery: a Device-proxy lists the "
             "devices it serves and what each one senses",
             "route: /devices (GET, repro.proxies.device_proxy; tests only)"),
    **_allow("the master's whole forest on the wire, which the "
             "persistence, replication and recovery tests read",
             "route: /ontology (GET, repro.core.master; tests only)"),
    **_allow("a query only tests request; to be deleted with its tests "
             "(ROADMAP standing rider)",
             *(f"route: {path} (GET, repro.{module}; tests only)"
               for path, module in (
                   ("/entity/{entity_id}", "baselines.centralized"),
                   ("/measurements", "baselines.centralized"),
                   ("/spaces", "proxies.database_proxy"),
                   ("/record/{guid}", "proxies.database_proxy")))),
    **_allow("public helper only its own unit tests call; " + _FLOOR,
             "definition: repro.common.units.integrate_power_to_energy "
             "(tests only)"),
    **_allow("the GIS store's spatial queries, whose only callers were "
             "the proxy's /features and /locate routes; to be deleted "
             "with their tests (ROADMAP standing rider)",
             "definition: repro.datasources.gis.query_bbox (tests only)",
             "definition: repro.datasources.gis.query_point (tests only)"),
}


class File:
    """What one parsed source file imports, mentions, sets, serves and
    requests."""

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.tree = ast.parse(path.read_text(), str(path))
        self.imports: Dict[str, Set[str]] = {}   # module -> names taken
        self.mentions: Set[str] = set()          # identifiers referenced
        self.sets: Set[str] = set()              # option names given a value
        self.arity: Dict[str, int] = {}          # callee -> most positionals
        self.environ: Set[str] = set()           # variables read
        self.routes: List[Tuple[str, str]] = []  # (method, template) served
        self.requests: Set[str] = set()          # first path segments asked
        self._templates: Set[int] = set()        # add_route's own literals
        docstrings = {id(node.body[0].value) for node in ast.walk(self.tree)
                      if isinstance(node, (ast.Module, ast.ClassDef,
                                           ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        for node in ast.walk(self.tree):
            if id(node) not in docstrings:
                self._visit(node)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                self.imports.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {alias.name for alias in node.names}
            self.imports.setdefault(node.module, set()).update(names)
            self.mentions |= names
        elif isinstance(node, ast.Name):
            self.mentions.add(node.id)
        elif isinstance(node, ast.Attribute):
            self.mentions.add(node.attr)
            if isinstance(node.ctx, ast.Store):
                self.sets.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            self.mentions.update(       # getattr(), "module:attribute"
                _IDENT.findall(node.value))
            if _IDENT.fullmatch(node.value):
                self.sets.add(node.value)   # {"n_buildings": 12}, setenv()
            request = _REQUEST.match(node.value)
            if request and id(node) not in self._templates:
                self.requests.add(request[1])
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) \
                and isinstance(node.right, ast.Constant) \
                and isinstance(node.right.value, str):
            request = _REQUEST.match("/" + node.right.value)   # uri + "seg"
            if request:
                self.requests.add(request[1])
        elif isinstance(node, ast.Call):
            self.sets.update(k.arg for k in node.keywords if k.arg)
            callee = node.func.attr if isinstance(node.func, ast.Attribute) \
                else getattr(node.func, "id", None)
            if callee:
                self.arity[callee] = max(self.arity.get(callee, 0),
                                         len(node.args))
            if callee == "add_route" and len(node.args) > 1 \
                    and isinstance(node.args[1], ast.Constant):
                self.routes.append((ast.unparse(node.args[0]),
                                    node.args[1].value))
                self._templates.add(id(node.args[1]))
            if ast.unparse(node.func) in ("os.environ.get", "os.getenv") \
                    and node.args and isinstance(node.args[0], ast.Constant):
                self.environ.add(node.args[0].value)
        elif isinstance(node, ast.Subscript) \
                and ast.unparse(node.value) == "os.environ" \
                and isinstance(node.slice, ast.Constant):
            self.environ.add(node.slice.value)


def options_of(cls: ast.ClassDef) -> List[str]:
    """Constructor parameters of *cls* in order, ``""`` for a required one.

    For a dataclass only a ``*Config`` has options — the defaulted
    fields of a record are state.
    """
    if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        if not cls.name.endswith("Config"):
            return []
        return [stmt.target.id if stmt.value is not None else ""
                for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)]
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            args = stmt.args
            required = len(args.args) - 1 - len(args.defaults)
            return [""] * required \
                + [a.arg for a in args.args[1 + required:]] \
                + [a.arg if default is not None else "" for a, default
                   in zip(args.kwonlyargs, args.kw_defaults)]
    return []


def census(root: Path = ROOT) -> List[str]:
    """Every finding under *root*, as sorted ``kind: subject`` strings."""
    files = [File(path, root) for directory in CALLER_DIRS + ("tests",)
             for path in sorted((root / directory).rglob("*.py"))
             if path != Path(__file__).resolve()]   # ALLOW names them all
    src = [f for f in files if f.rel.startswith("src/")]
    tests = [f for f in files if f.rel.startswith("tests/")]
    callers = [f for f in files if f not in tests]
    findings: List[str] = []

    def module_name(f: File) -> str:
        parts = Path(f.rel).relative_to("src").with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    # 1. modules; `from package import name` resolves through re-exports
    packages = {module_name(f): f for f in src
                if f.path.name == "__init__.py"}

    def origin(module: str, name: str) -> str:
        if f"{module}.{name}" in packages:
            return f"{module}.{name}"
        package = packages.get(module)
        for source, names in package.imports.items() if package else ():
            if name in names and source.startswith("repro"):
                return origin(source, name)
        return module

    imported: Set[str] = set()
    for f in src:
        if f.path.name != "__init__.py":
            for module, names in f.imports.items():
                imported |= {module, *(f"{module}.{n}" for n in names),
                             *(origin(module, n) for n in names)}
    orphans = {module_name(f) for f in src
               if f.path.name not in ("__init__.py", "__main__.py")
               and module_name(f) not in imported}
    findings += [f"module: {name}" for name in orphans]

    # 2. options and environment variables
    workflows = "".join(path.read_text() for path in
                        (root / ".github" / "workflows").glob("*.yml"))
    for f in src:
        others = [g for g in files if g is not f]
        for cls in ast.walk(f.tree):
            if isinstance(cls, ast.ClassDef):
                findings += [
                    f"option: {cls.name}.{option}"
                    for index, option in enumerate(options_of(cls))
                    if option and not any(
                        option in g.sets or g.arity.get(cls.name, 0) > index
                        for g in others)]
        findings += [
            f"environment: {variable}" for variable in f.environ
            if variable not in workflows and not any(
                variable in g.sets for g in callers if g is not f)]

    # 3. definitions
    for f in src:
        if module_name(f) in orphans:
            continue
        users = callers + tests if module_name(f) in TEST_FACING else callers
        for node in ast.walk(f.tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("__") \
                    and not any(node.name in g.mentions for g in users):
                where = "tests only" if any(
                    node.name in g.mentions for g in tests) else "nothing"
                findings.append(f"definition: {module_name(f)}."
                                f"{node.name} ({where})")

    # 4. routes whose first path segment no caller requests
    for f in src:
        for method, template in f.routes:
            segment = _REQUEST.match(template)[1]
            if not any(segment in g.requests for g in callers):
                where = "tests only" if any(
                    segment in g.requests for g in tests) else "nothing"
                findings.append(f"route: {template} ({method}, "
                                f"{module_name(f)}; {where})")
    return sorted(set(findings))


def main() -> int:
    """Print the census; non-zero on an unlisted or stale entry."""
    findings = census()
    unlisted = [f for f in findings if not ALLOW.get(f, "").strip()]
    stale = sorted(set(ALLOW) - set(findings))
    for finding in findings:
        print(("UNLISTED  " if finding in unlisted else "allowed   ")
              + finding)
    for entry in stale:
        print(f"STALE     {entry}  (no longer found: drop it from ALLOW)")
    print(f"{len(findings)} findings: {len(unlisted)} unlisted, "
          f"{len(stale)} stale allow-list entries")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
