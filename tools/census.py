"""Mutation census of the library's law checks, cap refusals and refusal
guards.

Each ``raise`` of an exception named in ``EXCEPTIONS`` in ``src/hilb2``
(``HomomorphismFailure``, ``CapExceeded``, ``NotAGroup``,
``NonAbelianDeckGroup`` and ``InfiniteAbelianization``) is a site, found
from the syntax tree.  For each site the census copies the tree to a
temporary directory and drops that one ``raise`` but keeps the call, so
the exception is made and thrown away and the code runs on past the
check.  With the copy's ``src`` on ``PYTHONPATH`` it runs first the tests
whose ``match=`` pattern names the site's text (or, for a message held in
a module-level name, reads that name), then, if those pass, the whole
suite with ``-x``.  A site survives when both pass: no test
notices that its check is gone.

Run from anywhere, with pytest installed::

    python3 tools/census.py

It prints one line per site, then each survivor with its file, line and
text, and exits 1 if any site survives.  It first runs the whole suite on
an unmutated copy and exits 2 if that fails, since every site would then
read as caught.  It runs at most two children at a time, each under a
1.5 GiB address-space limit and a 10-minute timeout, since a dropped cap
refusal lets an enumeration run on.
"""
from __future__ import annotations

import ast
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import os
from pathlib import Path
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = Path(__file__).resolve().parent.parent
EXCEPTIONS = ("HomomorphismFailure", "CapExceeded", "NotAGroup",
              "NonAbelianDeckGroup", "InfiniteAbelianization")
COPIED = ("src", "tests", "bench", "tools", "pyproject.toml",
          "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis",
                                 ".pytest_cache")
JOBS = 2
CHILD_ADDRESS_SPACE = 3 << 29  # 1.5 GiB
CHILD_TIMEOUT_S = 600


@dataclass(frozen=True)
class Site:
    """One ``raise`` of a censused exception: its file (relative to the
    root), line and column, the exception, the message as written, and
    the message's literal pieces, which a test's ``match=`` must hold."""

    path: str
    line: int
    col: int
    exception: str
    message: str
    pieces: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.exception}({self.message})"


def _called(call: ast.Call) -> str | None:
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _strings(node: ast.AST) -> list[str]:
    """The string constants under ``node``, an f-string's literal pieces
    one by one, empty ones dropped."""
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and n.value]


def sites(root: Path = ROOT) -> list[Site]:
    """Every site under ``root/src/hilb2``, by file and line."""
    found = []
    for path in sorted((root / "src" / "hilb2").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and _called(node.exc) in EXCEPTIONS):
                continue
            message = node.exc.args[0] if node.exc.args else node.exc
            found.append(Site(path.relative_to(root).as_posix(), node.lineno,
                              node.col_offset, _called(node.exc),
                              ast.unparse(message),
                              tuple(_strings(message))))
    return sorted(found, key=lambda s: (s.path, s.line))


def mutated(source: str, site: Site) -> str:
    """``source`` with the ``raise`` of ``site`` dropped and its call kept
    as an expression statement."""
    lines = source.splitlines(keepends=True)
    line = lines[site.line - 1].encode()
    if not line[site.col:].startswith(b"raise "):
        raise ValueError(f"no raise at {site}")
    lines[site.line - 1] = (line[:site.col] + line[site.col + 6:]).decode()
    return "".join(lines)


def _match_patterns(fn: ast.FunctionDef, assigned: dict) -> list[str]:
    """The ``match=`` patterns under ``fn``, regex escapes removed.  A
    pattern built from the test's parameters stands for every string of
    its decorators and of the module-level values they name."""
    patterns = []
    for node in ast.walk(fn):
        for keyword in getattr(node, "keywords", ()):
            if keyword.arg != "match":
                continue
            patterns += _strings(keyword.value)
            if any(isinstance(n, ast.Name) for n in ast.walk(keyword.value)):
                for decorator in fn.decorator_list:
                    patterns += _strings(decorator)
                    patterns += [s for n in ast.walk(decorator)
                                 if isinstance(n, ast.Name)
                                 and n.id in assigned
                                 for s in _strings(assigned[n.id])]
    return [re.sub(r"\\(.)", r"\1", p) for p in patterns]


def _match_names(fn: ast.FunctionDef) -> set[str]:
    """The names that the ``match=`` patterns under ``fn`` read, bare
    (``_TEXT``) or as a module's attribute (``hilbcover._TEXT``)."""
    return {getattr(n, "id", None) or getattr(n, "attr", None)
            for node in ast.walk(fn)
            for keyword in getattr(node, "keywords", ())
            if keyword.arg == "match"
            for n in ast.walk(keyword.value)
            if isinstance(n, (ast.Name, ast.Attribute))}


def named_tests(site: Site, root: Path = ROOT) -> list[str]:
    """The test functions of ``root/tests`` with a ``match=`` pattern that
    holds every literal piece of the site's message, or that reads the
    module-level name the message is, as pytest node ids relative to
    ``root``."""
    if site.message.isidentifier():  # the message is a name
        def names(fn, assigned):
            return site.message in _match_names(fn)
    elif site.pieces:
        def names(fn, assigned):
            return any(all(piece in pattern for piece in site.pieces)
                       for pattern in _match_patterns(fn, assigned))
    else:
        return []
    ids = []
    for path in sorted((root / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text(), str(path))
        assigned = {target.id: node.value for node in tree.body
                    if isinstance(node, ast.Assign)
                    for target in node.targets
                    if isinstance(target, ast.Name)}
        for fn in tree.body:
            if (isinstance(fn, ast.FunctionDef) and fn.name.startswith("test")
                    and names(fn, assigned)):
                ids.append(f"{path.relative_to(root).as_posix()}::{fn.name}")
    return ids


# The child limits its own address space before it imports pytest.
PYTEST = (
    "import resource, sys\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE},) * 2)\n"
    "import pytest\n"
    "sys.exit(pytest.main(sys.argv[1:]))\n"
)


def _passes(copy: Path, args: list[str]) -> bool:
    """Whether pytest passes ``args`` in ``copy``; a timeout is a failure."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        result = subprocess.run(
            [sys.executable, "-c", PYTEST, "-q", "-x", "-p",
             "no:cacheprovider", *args],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def _copy(root: Path, copy: Path) -> None:
    for name in COPIED:
        source = root / name
        if source.is_dir():
            shutil.copytree(source, copy / name, ignore=IGNORED)
        elif source.exists():
            shutil.copy2(source, copy / name)


def suite_passes(root: Path = ROOT) -> bool:
    """Whether the whole suite passes on an unmutated copy of ``root``, as
    every site's runs see it; if not, a site would read as caught."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        _copy(root, Path(tmp))
        return _passes(Path(tmp), [])


def census_site(site: Site, root: Path = ROOT) -> tuple[str, float]:
    """Mutate ``site`` in a temporary copy of ``root`` and run its named
    tests, then, if they pass, the whole suite.  Returns the verdict,
    ``"caught by named tests"``, ``"caught by the suite"`` or
    ``"survived"``, and the seconds it took."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        copy = Path(tmp)
        _copy(root, copy)
        target = copy / site.path
        target.write_text(mutated(target.read_text(), site))
        named = named_tests(site, copy)
        if named and not _passes(copy, named):
            verdict = "caught by named tests"
        elif not _passes(copy, []):
            verdict = "caught by the suite"
        else:
            verdict = "survived"
    return verdict, time.perf_counter() - start


def main() -> int:
    found = sites()
    start = time.perf_counter()
    if not suite_passes():
        print("the suite fails on an unmutated copy; no site censused")
        return 2
    survivors = []
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for site, (verdict, seconds) in zip(
                found, pool.map(census_site, found)):
            print(f"{verdict:<22} {seconds:6.1f} s  {site}", flush=True)
            if verdict == "survived":
                survivors.append(site)
    print(f"{len(found)} sites, {len(survivors)} survived, "
          f"{time.perf_counter() - start:.0f} s")
    for site in survivors:
        print(f"SURVIVED {site}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
