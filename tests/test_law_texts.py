"""Every law check can fire: each ``HomomorphismFailure`` text in the
library appears in some test's ``match=`` pattern, so some test makes that
check raise with that text.  Read statically, from the syntax trees."""
import ast
from pathlib import Path
import re

import hilb2

SOURCES = sorted(Path(hilb2.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("test_*.py"))


def parse(path):
    return ast.parse(path.read_text(), str(path))


def strings(node):
    """The string constants under ``node``; an f-string gives its literal
    pieces one by one."""
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def called(node):
    """The name a call is made through, or None."""
    func = node.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def failure_texts(tree):
    """Each text a ``HomomorphismFailure`` is made with in ``tree``, as the
    tuple of its literal pieces.  A text that a function takes as a
    parameter and raises is read at the calls that pass it."""
    texts, relayed = [], {}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = [a.arg for a in fn.args.args]
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call)
                    and called(node) == "HomomorphismFailure"):
                continue
            [text] = node.args
            if isinstance(text, ast.Name):
                assert text.id in params, ast.unparse(node)
                relayed[fn.name] = (params.index(text.id), text.id)
            else:
                texts.append(tuple(filter(None, strings(text))))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and called(node) in relayed:
            index, name = relayed[called(node)]
            passed = [k.value for k in node.keywords if k.arg == name]
            [text] = passed or node.args[index:index + 1]
            texts.append((text.value,))
    return texts


def match_patterns(tree):
    """The ``match=`` patterns of the tests in ``tree``, regex escapes
    removed.  A pattern built from a test's parameters stands for every
    string of the test's decorators and of the module-level values they
    name."""
    assigned = {target.id: node.value for node in tree.body
                if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    patterns = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            for keyword in getattr(node, "keywords", ()):
                if keyword.arg != "match":
                    continue
                patterns += strings(keyword.value)
                if any(isinstance(n, ast.Name)
                       for n in ast.walk(keyword.value)):
                    for decorator in fn.decorator_list:
                        patterns += strings(decorator)
                        patterns += [s for n in ast.walk(decorator)
                                     if isinstance(n, ast.Name)
                                     and n.id in assigned
                                     for s in strings(assigned[n.id])]
    return [re.sub(r"\\(.)", r"\1", p) for p in patterns]


def test_every_failure_text_is_matched_by_a_test():
    texts = {text for path in SOURCES for text in failure_texts(parse(path))}
    patterns = [p for path in TESTS for p in match_patterns(parse(path))]
    assert len(texts) > 10
    unmatched = sorted(
        text for text in texts
        if not any(all(piece in p for piece in text) for p in patterns)
    )
    assert unmatched == []
