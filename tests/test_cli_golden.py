"""Byte-for-byte CLI output on a fixed corpus of invocations.

``data/cli_golden.json`` holds the exit code, stdout and stderr of every
invocation in ``CASES``.  The ``construct`` and ``verify`` records come
from the tagged double-square model that preceded the marker-point model
(the ``Z2xZ2xZ2``, ``Z3xZ3`` and ``Z2xZ4`` ones, which have several
generators, from the marker-point model with law checks over all pairs of
elements), the ``classify`` records from the element-by-element subgroup
closure that preceded the Hermite-normal-form enumeration, and the text-mode
``verify`` and quaternion ``classify`` records from the all-pairs commutator
closure and the coset enumeration that ended with a confirming pass; the
``Z11`` and ``Z2xZ2xZ2`` records over three base points come from the
marker-point model, in which every element of the pair group permuted the
whole square; the ``verify --inject-fault`` records come from the suite
whose construction entries re-derived the laws that ``build_construction``
checks; the ``cyclic-6`` and ``enriques-type`` JSON ``classify`` records
come from the pipeline that rebuilt each cover's deck table from the
permutation group of its sheet translations; the ``verify --group-cap 4``
record, whose skipped entries print each predicted ``|J|`` and ``|W|``,
comes from the wreath model that acted on n-tuples over Q plus n marker
points; the ``Z30`` record over two base points comes from the build that
closed the pair group element by element; the ``classify`` records of
Z2^4 (text) and Z3xZ3 (JSON) come from the pipeline that built and checked
one cover per subgroup; the JSON ``construct`` record of Z2xZ6 over three
base points and the JSON ``classify`` record of
``< a b | a^2, b^6, a b a^-1 b^-1 >``, whose sheet labels and deck
permutations follow the orbit order, come from the build that closed the
diagonal and antidiagonal groups and searched the square for their
orbits; the ``classify`` records of Z2xZ4xZ8 (text) and Z4xZ4 (JSON),
in which subgroups of equal index have different quotient types, come
from the lattice that sorted subgroups by their closed element lists;
the records of ``PARSER_CASES``, whose help, usage and error text
argparse writes, come from the command line that passed every call
through the top-level parser.  argparse wraps that text at the terminal
width, so every record is made and replayed with ``COLUMNS=80``.
A change that alters any of them alters what users see.  To
record the corpus again after a deliberate output change, run from the
repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import glob
import io
import json
import os
from pathlib import Path
import subprocess
import sys
from unittest import mock

import pytest

import hilb2
from hilb2.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "cli_golden.json"


def _construct_cases():
    for spec, base in (("Z1", 1), ("Z2", 1), ("Z2xZ2", 2), ("Z6", 2),
                       ("Z4", 3), ("Z2xZ2xZ2", 2), ("Z3xZ3", 1),
                       ("Z2xZ4", 2)):
        for fmt in ("text", "json"):
            yield ("construct", "--group", spec, "--base-size", str(base),
                   "--format", fmt)


CASES = (
    *_construct_cases(),
    ("construct", "--group", "S3"),
    ("construct", "--group", "Z8", "--group-cap", "100"),
    ("verify", "--format", "json"),
    ("classify", "--catalog", "quaternion", "--format", "json"),
    ("classify", "--catalog", "cyclic-8"),
    ("classify", "--presentation", "< a b | a^2, b^4, a b a^-1 b^-1 >",
     "--format", "json"),
    ("classify", "--presentation",
     "< a b c | a^2, b^2, c^2, a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1 >"),
    ("classify", "--presentation", "< a | a^96 >", "--group-cap", "100"),
    ("verify",),
    ("classify", "--catalog", "quaternion"),
    ("construct", "--group", "Z11", "--base-size", "3", "--format", "json"),
    ("construct", "--group", "Z2xZ2xZ2", "--base-size", "3"),
    ("verify", "--inject-fault"),
    ("verify", "--inject-fault", "--format", "json"),
    ("classify", "--catalog", "cyclic-6", "--format", "json"),
    ("classify", "--catalog", "enriques-type", "--format", "json"),
    ("verify", "--group-cap", "4"),
    ("construct", "--group", "Z30", "--base-size", "2", "--format", "json"),
    ("classify", "--presentation", "< a b c d | a^2, b^2, c^2, d^2 >"),
    ("classify", "--presentation", "< a b | a^3, b^3, a b a^-1 b^-1 >",
     "--format", "json"),
    ("construct", "--group", "Z2xZ6", "--base-size", "3", "--format", "json"),
    ("classify", "--presentation", "< a b | a^2, b^6, a b a^-1 b^-1 >",
     "--format", "json"),
    ("classify", "--presentation",
     "< a b c | a^2, b^4, c^8, a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1 >"),
    ("classify", "--presentation", "< a b | a^4, b^4, a b a^-1 b^-1 >",
     "--format", "json"),
)

# Invocations that argparse answers itself, each worded by the top-level
# parser or by a subcommand's.
PARSER_CASES = (
    (),
    ("-h",),
    ("bogus",),
    ("construct",),
    ("construct", "--help"),
    ("construct", "--group", "Z2", "extra"),
    ("construct", "--group", "Z2", "--format", "xml"),
    ("classify", "--catalog", "quaternion", "--presentation", "< a | a^2 >"),
    ("hodge", "-1,0,1"),
)

CASES += PARSER_CASES

COLUMNS = "80"


def run_case(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS=COLUMNS), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _recorded() -> dict:
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(r["argv"]): r for r in records}


def test_corpus_covers_every_case():
    assert set(_recorded()) == set(CASES)


@pytest.mark.parametrize("argv", CASES,
                         ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_cli_output_matches_recording(argv):
    assert run_case(argv) == _recorded()[argv]


JSON_CASES = [argv for argv in CASES if "json" in argv]


def test_json_records_never_reach_the_json_dumps_fallback(monkeypatch):
    # emit writes the package's own types itself and hands anything else
    # to json.dumps; no record the package prints may need that.
    def refuse(*args, **kwargs):
        raise AssertionError("emit handed its data to json.dumps")

    recorded = _recorded()
    monkeypatch.setattr(json, "dumps", refuse)
    assert ("verify", "--format", "json") in JSON_CASES
    for argv in JSON_CASES:
        assert run_case(argv) == recorded[argv], argv


# Replays every record of the corpus file named by argv[1] under the
# interpreter it runs in; it imports no pytest, which an older interpreter
# may lack.
REPLAY = """\
import contextlib, io, json, sys
from hilb2.cli import main
records = []
with open(sys.argv[1], encoding="utf-8") as golden:
    for record in json.load(golden):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(record["argv"]))
        records.append({"argv": record["argv"], "exit": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
print(json.dumps({"version": list(sys.version_info[:2]), "records": records}))
"""


def replay_in_child(python, **env) -> dict:
    """REPLAY's output from a child process of ``python``, checked to hold
    every recorded record byte for byte."""
    src = str(Path(hilb2.__file__).resolve().parent.parent)
    result = subprocess.run(
        [python, "-c", REPLAY, str(GOLDEN)], capture_output=True, text=True,
        timeout=300,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
             "COLUMNS": COLUMNS, **env},
    )
    assert result.returncode == 0, result.stderr
    replayed = json.loads(result.stdout)
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(replayed["records"]) == len(records)
    for record, recorded in zip(replayed["records"], records):
        assert record == recorded, record["argv"]
    return replayed


def test_corpus_replays_byte_for_byte_under_another_hash_seed():
    # The seed reorders every set of strings (permutations hash as tuples
    # of ints, alike under any seed); no record may depend on that order.
    replay_in_child(sys.executable, PYTHONHASHSEED="12345")


def _python_3_10():
    """The executable of a Python 3.10 that starts, or None: ``python3.10``
    on the path, else a pyenv-installed 3.10."""
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    candidates = ["python3.10", *sorted(glob.glob(
        os.path.join(root, "versions", "3.10.*", "bin", "python3")))]
    for candidate in candidates:
        try:
            probe = subprocess.run(
                [candidate, "-c", "import sys; print(sys.executable)"],
                capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip():
            return probe.stdout.strip()
    return None


def test_corpus_replays_byte_for_byte_under_python_3_10():
    # pyproject.toml promises Python >= 3.10; a call that only a later
    # version has would change a record or fail here.
    python = _python_3_10()
    if python is None:
        pytest.skip("no Python 3.10 interpreter starts")
    assert replay_in_child(python)["version"] == [3, 10]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [run_case(argv) for argv in CASES]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}")
