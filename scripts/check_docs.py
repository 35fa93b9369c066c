#!/usr/bin/env python3
"""Verify that documentation references resolve: paths, symbols, CLI flags.

Documentation rots in five ways: the files it points at move, the code
symbols it names get renamed, the command-line flags it recommends get
deleted, the config fields its knob tables list get removed, and the
modules its layer diagram lists get deleted.  This checker keeps the docs
honest on all five axes by extracting, from ``docs/*.md``, ``README.md``
and the module docstrings that cite ``docs/`` files:

* every path-like reference (markdown links, backticked paths), failing
  when the path does not exist on disk;
* every backtick-quoted dotted ``module.symbol`` reference (for example
  ```repro.service.QueryService``` or ```QueryService.run_batch```),
  failing when the attribute chain does not resolve against the imported
  ``repro`` package.  Bare class-rooted references are resolved against a
  symbol table of every public name exported by ``repro``'s modules;
  dataclass fields count as attributes.  References whose root is unknown
  to ``repro`` (``np.ndarray``, ``os.PathLike``, …) are skipped — foreign
  libraries are not ours to police;
* every backticked span that opens with a ``--flag`` (```--shards 4```),
  failing when no ``python -m repro`` subcommand accepts that flag, or
  when the flag has argparse ``choices`` and the value after it (or any
  item of a ``{a,b}`` value list) is none of them — a stale
  ```--serve-backend threads``` is rot too;
* every knob table under a heading labelled with its config class
  (``### Update knobs (`UpdateParams`)``), failing when a row's backticked
  first-column name is not a field of that dataclass;
* every ``·``-separated item of a layer box in ``docs/architecture.md``
  whose header names a package (``│ engine  src/repro/engine/ │``),
  failing when the item does not start with the name of a module of that
  package.  A row indented deeper than the box's first row continues the
  item above it and is not split.

Runs inside the test suite (``tests/test_docs.py``) and standalone::

    python scripts/check_docs.py            # check, exit 1 on dangling refs
    python scripts/check_docs.py --verbose  # also list every checked ref
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

# Markdown links whose target looks like a relative file path (not a URL).
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)\)")
# Inline-code path references like `src/repro/core/walks.py` or `docs/DESIGN.md`.
_CODE_PATH = re.compile(r"`([\w./-]+/[\w./-]+\.[A-Za-z0-9]+)`")
# docs/ citations inside Python docstrings/comments, e.g. ``docs/DESIGN.md``.
_DOCS_IN_SOURCE = re.compile(r"docs/[\w.-]+\.md")
# Backticked dotted symbol references like `repro.service.QueryService`,
# `QueryService.run_batch` or `SnapshotStore.load()` (no slashes = not a path).
_CODE_SYMBOL = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")
# Backticked spans opening with a CLI flag, like `--shards 4` or `--force`,
# with the value after the flag when there is one.  Spans that open with a
# command (`pytest --benchmark-only`) name another program's flags and are
# left alone.
_CODE_FLAG = re.compile(r"`(--[A-Za-z][\w-]*)(?: ([^`\s]+))?")
# A heading that labels the knob tables below it with their config class,
# like ``### Cache knobs (`ServiceParams`)``.
_KNOB_HEADING = re.compile(r"^#+ .*\(`([A-Za-z_]\w*)`\)\s*$")
# A table row whose first cell is one backticked name: `| `cache_capacity` |`.
_KNOB_ROW = re.compile(r"^\|\s*`([A-Za-z_]\w*)`\s*\|")
# The header row of a layer box that holds one package's modules.
_BOX_HEADER = re.compile(r"^│ \w+\s+src/repro/(\w+)/\s*│$")
# Any other row of a box: its indentation and its text.
_BOX_ROW = re.compile(r"^│( +)(\S.*?)\s*│$")


def _doc_files() -> List[Path]:
    files = [REPO_ROOT / "README.md"]
    docs_dir = REPO_ROOT / "docs"
    if docs_dir.is_dir():
        files.extend(sorted(docs_dir.glob("*.md")))
    return [path for path in files if path.exists()]


def _iter_markdown_refs(path: Path) -> Iterator[str]:
    text = path.read_text(encoding="utf-8")
    for match in _MD_LINK.finditer(text):
        target = match.group(1)
        if "://" not in target:
            yield target
    for match in _CODE_PATH.finditer(text):
        yield match.group(1)


def _iter_source_refs() -> Iterator[Tuple[Path, str]]:
    for source in sorted((REPO_ROOT / "src").rglob("*.py")):
        for match in _DOCS_IN_SOURCE.finditer(source.read_text(encoding="utf-8")):
            yield source, match.group(0)


def _iter_symbol_refs(path: Path) -> Iterator[str]:
    """Backticked dotted symbol references of one markdown file."""
    text = path.read_text(encoding="utf-8")
    for match in _CODE_SYMBOL.finditer(text):
        ref = match.group(1)
        if "/" not in ref:
            yield ref


def _iter_knob_rows(path: Path) -> Iterator[Tuple[str, str]]:
    """``(class, name)`` for each first-column name of a labelled table."""
    owner: Optional[str] = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            heading = _KNOB_HEADING.match(line)
            owner = heading.group(1) if heading else None
        elif owner is not None:
            row = _KNOB_ROW.match(line)
            if row:
                yield owner, row.group(1)


def _iter_box_items(path: Path) -> Iterator[Tuple[str, str]]:
    """``(package, item)`` for each item of a package's layer box."""
    package: Optional[str] = None
    indent: Optional[int] = None
    for line in path.read_text(encoding="utf-8").splitlines():
        header = _BOX_HEADER.match(line)
        row = _BOX_ROW.match(line)
        if header:
            package, indent = header.group(1), None
        elif package is None or not row:
            package = None
        elif indent is None or len(row.group(1)) <= indent:
            indent = len(row.group(1))
            for item in row.group(2).split("·"):
                yield package, item.strip()


def _package_modules(package: str) -> Set[str]:
    """Names of the modules and subpackages of ``src/repro/<package>``."""
    directory = REPO_ROOT / "src" / "repro" / package
    return ({path.stem for path in directory.glob("*.py")}
            | {path.parent.name for path in directory.glob("*/__init__.py")})


def _check_knob(owner: str, name: str,
                table: Dict[str, List[object]]) -> Optional[str]:
    """A problem string unless ``name`` is a field of dataclass ``owner``."""
    classes = [candidate for candidate in table.get(owner, [])
               if dataclasses.is_dataclass(candidate)]
    if not classes:
        return f"knob table labelled {owner!r}, which is no repro dataclass"
    if any(name in {field.name for field in dataclasses.fields(candidate)}
           for candidate in classes):
        return None
    return f"knob table of {owner} lists {name!r}, which is no field of it"


def _cli_flags() -> Dict[str, Set[str]]:
    """Every option string of every ``python -m repro`` (sub)command, mapped
    to the values its ``choices`` allow (empty: any value)."""
    from repro.cli import build_parser

    flags: Dict[str, Set[str]] = {}
    pending = [build_parser()]
    while pending:
        parser = pending.pop()
        for flag, action in parser._option_string_actions.items():
            flags.setdefault(flag, set()).update(
                str(choice) for choice in action.choices or ())
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                pending.extend(action.choices.values())
    return flags


def _check_flag(flag: str, value: str,
                flags: Dict[str, Set[str]]) -> Optional[str]:
    """A problem string unless some subcommand takes ``flag`` and, where
    the flag has choices, ``value`` (or each item of ``{a,b}``) is one."""
    if flag not in flags:
        return (f"names the flag {flag!r}, which no `python -m repro` "
                f"subcommand accepts")
    choices = flags[flag]
    if not value or not choices:
        return None
    items = value[1:-1].split(",") if value.startswith("{") else [value]
    stale = [item for item in items if item not in choices]
    if stale:
        return (f"names {flag} {', '.join(stale)}, which is no choice of "
                f"it ({', '.join(sorted(choices))})")
    return None


def _public_symbol_table() -> Dict[str, List[object]]:
    """Map every public top-level name in ``repro``'s modules to its value(s).

    Used to resolve class-rooted references (```QueryService.run_batch```):
    the root name is looked up here, then the remaining attribute chain is
    resolved against each owner until one succeeds.
    """
    import repro

    table: Dict[str, List[object]] = {}
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            modules.append(importlib.import_module(info.name))
        except Exception:  # pragma: no cover — an unimportable module is
            continue       # its own test failure, not a docs problem
    for module in modules:
        for name, value in vars(module).items():
            if not name.startswith("_"):
                table.setdefault(name, []).append(value)
    return table


def _has_attribute(owner: object, name: str) -> Optional[object]:
    """Resolve one attribute step, counting dataclass fields as attributes.

    Returns the attribute value (or ``None`` as a sentinel for annotated
    fields without class-level defaults) — falsy results still count as
    resolved; the caller only treats an ``AttributeError`` path as failure.
    Dataclass fields and class-level annotations (the conventional way to
    declare instance attributes) both count.
    """
    if hasattr(owner, name):
        return getattr(owner, name)
    if inspect.isclass(owner):
        if name in getattr(owner, "__dataclass_fields__", {}):
            return None
        for klass in inspect.getmro(owner):
            if name in getattr(klass, "__annotations__", {}):
                return None
    raise AttributeError(name)


def _resolve_symbol(ref: str, table: Dict[str, List[object]]) -> Optional[str]:
    """Check one dotted reference; returns a problem string or None.

    ``repro``-rooted references must resolve as import-then-getattr; other
    roots are looked up in the public symbol table (unknown roots are
    skipped as foreign).  A resolvable root with a broken attribute chain is
    always a problem — that is exactly the rename rot this guards against.
    """
    parts = ref.split(".")
    if parts[0] == "repro":
        prefix = len(parts)
        module = None
        while prefix > 0:
            try:
                module = importlib.import_module(".".join(parts[:prefix]))
                break
            except ImportError:
                prefix -= 1
        if module is None:
            return f"no importable prefix of {ref!r}"
        owner: object = module
        try:
            for name in parts[prefix:]:
                if owner is None:  # annotated field: cannot check deeper
                    break
                owner = _has_attribute(owner, name)
        except AttributeError as exc:
            return f"{ref!r} does not resolve: no attribute {exc}"
        return None
    owners = table.get(parts[0])
    if owners is None:
        return None  # foreign root (np., os., …) — not ours to check
    for candidate in owners:
        owner = candidate
        try:
            for name in parts[1:]:
                if owner is None:
                    break
                owner = _has_attribute(owner, name)
        except AttributeError:
            continue
        return None
    return (f"{ref!r} does not resolve: {parts[0]} is a repro symbol but "
            f"has no attribute path {'.'.join(parts[1:])!r}")


def check_docs(verbose: bool = False) -> List[str]:
    """Return a list of human-readable problems (empty = docs are clean)."""
    problems: List[str] = []
    checked = 0
    for doc in _doc_files():
        for ref in _iter_markdown_refs(doc):
            resolved = (doc.parent / ref).resolve() if not ref.startswith("/") \
                else Path(ref)
            checked += 1
            if verbose:
                print(f"{doc.relative_to(REPO_ROOT)}: {ref}")
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)} references {ref!r}, "
                    f"which does not exist"
                )
    for source, ref in _iter_source_refs():
        checked += 1
        if verbose:
            print(f"{source.relative_to(REPO_ROOT)}: {ref}")
        if not (REPO_ROOT / ref).exists():
            problems.append(
                f"{source.relative_to(REPO_ROOT)} cites {ref!r}, "
                f"which does not exist"
            )
    table = _public_symbol_table()
    for doc in _doc_files():
        for ref in _iter_symbol_refs(doc):
            checked += 1
            if verbose:
                print(f"{doc.relative_to(REPO_ROOT)}: {ref}")
            problem = _resolve_symbol(ref, table)
            if problem is not None:
                problems.append(f"{doc.relative_to(REPO_ROOT)}: {problem}")
        for owner, name in _iter_knob_rows(doc):
            checked += 1
            if verbose:
                print(f"{doc.relative_to(REPO_ROOT)}: {owner}.{name}")
            problem = _check_knob(owner, name, table)
            if problem is not None:
                problems.append(f"{doc.relative_to(REPO_ROOT)}: {problem}")
    architecture = REPO_ROOT / "docs" / "architecture.md"
    if architecture.exists():
        for package, item in _iter_box_items(architecture):
            checked += 1
            if verbose:
                print(f"docs/architecture.md: {package}: {item}")
            name = re.match(r"[A-Za-z_]\w*", item)
            if name is None or name.group(0) not in _package_modules(package):
                problems.append(
                    f"docs/architecture.md: the {package} box lists {item!r}, "
                    f"which starts with no module of src/repro/{package}/"
                )
    flags = _cli_flags()
    for doc in _doc_files():
        for flag, value in _CODE_FLAG.findall(doc.read_text(encoding="utf-8")):
            checked += 1
            if verbose:
                print(f"{doc.relative_to(REPO_ROOT)}: {flag} {value}")
            problem = _check_flag(flag, value, flags)
            if problem is not None:
                problems.append(f"{doc.relative_to(REPO_ROOT)} {problem}")
    if verbose:
        print(f"checked {checked} references")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="list every reference as it is checked")
    args = parser.parse_args(argv)
    problems = check_docs(verbose=args.verbose)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if not problems:
        print(f"docs OK ({len(_doc_files())} files checked)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
