#!/usr/bin/env python
"""Generate docs/API.md from the public surface's docstrings.

The characterization service made the library a *served* API, and a
served API needs documentation that cannot rot: this script renders
``docs/API.md`` deterministically from the docstrings of the public
modules (the query/serve surface, the campaign runtime, the sweep
engine) plus the CLI subcommand table, and CI's ``docs`` job runs it
with ``--check`` so a drifted document — or a public symbol *without* a
docstring — fails the build instead of shipping stale docs.

Usage::

    PYTHONPATH=src python scripts/generate_api_docs.py          # rewrite
    PYTHONPATH=src python scripts/generate_api_docs.py --check  # CI gate

The covered surface is the :data:`PUBLIC_MODULES` list below; extend it
when a new public module lands.  For packages only the module docstring
and ``__all__`` are rendered (their symbols are documented where they
are defined); for plain modules every public class (with its public
methods/properties) and function is rendered with its signature.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import io
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "docs" / "API.md"

#: The documented public surface, in render order.
PUBLIC_MODULES = (
    "repro.query",
    "repro.serve",
    "repro.runtime",
    "repro.runtime.query",
    "repro.runtime.campaign",
    "repro.runtime.cache",
    "repro.runtime.points",
    "repro.runtime.journal",
    "repro.runtime.executor",
    "repro.runtime.fabric",
    "repro.runtime.plan",
    "repro.runtime.wire",
    "repro.runtime.coordinator",
    "repro.runtime.remote_worker",
    "repro.runtime.resilience",
    "repro.runtime.supervisor",
    "repro.runtime.blobs",
    "repro.runtime.shards",
    "repro.runtime.hashing",
    "repro.fleet",
    "repro.fleet.boards",
    "repro.fleet.policy",
    "repro.fleet.simulator",
    "repro.fleet.report",
    "repro.core.undervolt",
)

HEADER = """\
<!-- Generated by scripts/generate_api_docs.py — do not edit by hand.
     Regenerate with:  PYTHONPATH=src python scripts/generate_api_docs.py
     CI fails when this file drifts from the docstrings it renders. -->

# API reference

The public surface of the reduced-voltage characterization library: the
query/serve layer, the campaign runtime, and the sweep engine, rendered
from their docstrings.  Start at [`repro.query`](#module-reproquery)
(consume a characterization database) or the
[CLI commands](#cli-repro-undervolt) (produce and serve one).
"""


def _public_members(module) -> list[tuple[str, object]]:
    """Public classes/functions *defined in* the module, in source order."""
    members = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        try:
            _, line = inspect.getsourcelines(obj)
        except (OSError, TypeError):  # pragma: no cover - C-level members
            line = 0
        members.append((line, name, obj))
    return [(name, obj) for _, name, obj in sorted(members)]


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):  # pragma: no cover - builtins
        return "(...)"


def _class_methods(cls) -> list[tuple[str, object]]:
    """Public methods/properties declared directly on the class."""
    members = []
    for name, obj in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(obj, property):
            members.append((obj.fget.__code__.co_firstlineno, name, obj))
        elif inspect.isfunction(obj):
            members.append((obj.__code__.co_firstlineno, name, obj))
        elif isinstance(obj, (classmethod, staticmethod)):
            members.append((obj.__func__.__code__.co_firstlineno, name, obj))
    return [(name, obj) for _, name, obj in sorted(members)]


def _render_docstring(out: io.StringIO, obj, owner: str, missing: list[str]) -> None:
    doc = inspect.getdoc(obj)
    if not doc:
        missing.append(owner)
        out.write("*(missing docstring)*\n\n")
        return
    out.write(doc.rstrip() + "\n\n")


def _render_module(out: io.StringIO, name: str, missing: list[str]) -> None:
    module = importlib.import_module(name)
    out.write(f"## Module `{name}`\n\n")
    _render_docstring(out, module, name, missing)
    if hasattr(module, "__path__"):  # a package: symbols live elsewhere
        exported = getattr(module, "__all__", ())
        if exported:
            out.write(
                "Re-exports: " + ", ".join(f"`{n}`" for n in exported) + "\n\n"
            )
        return
    for member_name, obj in _public_members(module):
        qualified = f"{name}.{member_name}"
        if inspect.isclass(obj):
            out.write(f"### class `{member_name}`\n\n")
            _render_docstring(out, obj, qualified, missing)
            for method_name, method in _class_methods(obj):
                if isinstance(method, property):
                    out.write(f"- **`{method_name}`** *(property)* — ")
                    target = method
                elif isinstance(method, (classmethod, staticmethod)):
                    out.write(
                        f"- **`{method_name}{_signature(method.__func__)}`** — "
                    )
                    target = method.__func__
                else:
                    out.write(f"- **`{method_name}{_signature(method)}`** — ")
                    target = method
                doc = inspect.getdoc(target)
                if not doc:
                    missing.append(f"{qualified}.{method_name}")
                    out.write("*(missing docstring)*\n")
                else:
                    out.write(doc.strip().splitlines()[0] + "\n")
            if _class_methods(obj):
                out.write("\n")
        else:
            out.write(f"### `{member_name}{_signature(obj)}`\n\n")
            _render_docstring(out, obj, qualified, missing)


def _render_cli(out: io.StringIO, missing: list[str]) -> None:
    from repro.cli import build_parser

    parser = build_parser()
    out.write("## CLI (`repro-undervolt`)\n\n")
    description = parser.description or ""
    out.write(description.strip() + "\n\n")
    subparsers = next(
        action
        for action in parser._actions  # noqa: SLF001 - argparse has no public walk
        if isinstance(action, argparse._SubParsersAction)
    )
    helps = {
        choice.dest: choice.help for choice in subparsers._choices_actions
    }
    out.write("| command | synopsis | purpose |\n|---|---|---|\n")
    for name, sub in subparsers.choices.items():
        usage = " ".join(sub.format_usage().split())
        usage = usage.removeprefix("usage: ")
        purpose = helps.get(name) or ""
        if not purpose:
            missing.append(f"cli.{name}")
        out.write(f"| `{name}` | `{usage}` | {purpose} |\n")
    out.write("\n")


def generate() -> tuple[str, list[str]]:
    """Render the document; returns ``(markdown, missing_docstrings)``."""
    out = io.StringIO()
    missing: list[str] = []
    out.write(HEADER + "\n")
    _render_cli(out, missing)
    for name in PUBLIC_MODULES:
        _render_module(out, name, missing)
    return out.getvalue(), missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) if the on-disk document differs from a fresh "
             "render, instead of rewriting it",
    )
    args = parser.parse_args(argv)

    text, missing = generate()
    if missing:
        print("public symbols without docstrings (document them):")
        for name in missing:
            print(f"  - {name}")
        return 1
    out_path = pathlib.Path(args.out)
    if args.check:
        on_disk = out_path.read_text() if out_path.exists() else ""
        if on_disk != text:
            print(
                f"{out_path} is stale; regenerate with "
                "`PYTHONPATH=src python scripts/generate_api_docs.py`"
            )
            return 1
        print(f"{out_path} is up to date ({len(text.splitlines())} lines)")
        return 0
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(text)
    print(f"wrote {out_path} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
