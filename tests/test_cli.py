"""End-to-end command-line behavior: outputs, formats, and exit codes."""
import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
from pathlib import Path
import resource
import subprocess
import sys
import tempfile
import time

from hypothesis import given, settings, strategies as st
import pytest

import hilb2
from hilb2 import cli, fpgroup, monodromy, permgroup, serialize
from hilb2.cli import (
    EXIT_BAD_INPUT,
    EXIT_CAP,
    EXIT_CHECK_FAILED,
    EXIT_CLOSED_STDOUT,
    EXIT_NONABELIAN,
    EXIT_OK,
    main,
)
from hilb2.errors import CapExceeded, NonAbelianDeckGroup
from hilb2.fpgroup import (
    Presentation,
    coset_enumeration,
    parse_presentation,
    permutation_realization,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_text_z2(capsys):
    code, out, err = run(capsys, "construct", "--group", "Z2")
    assert code == EXIT_OK
    assert err == ""
    assert "|J| = 8" in out
    assert "|H| = 4" in out
    assert "sign splitting: ok" in out
    assert "fibers 8/4/4; orbit counts 2/2/2" in out
    assert "T[0] size 4 fixed yes" in out
    assert "T[1] size 4 fixed yes" in out


def test_construct_text_trivial_group(capsys):
    code, out, _ = run(capsys, "construct", "--group", "Z1")
    assert code == EXIT_OK
    assert "|J| = 2" in out
    assert "|H| = 2" in out
    assert "fibers 2/1/1; orbit counts 1/1/1" in out


def test_construct_json_z3(capsys):
    code, out, _ = run(
        capsys, "construct", "--group", "Z3", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "construct"
    result = payload["results"][0]
    assert result["group"] == "Z3"
    assert result["group_order"] == 3
    assert result["pair_group_order"] == 18
    assert result["intermediate_group_order"] == 6
    assert result["sign_splitting_ok"] is True
    assert [f["orbit_count"] for f in result["fibers"]] == [3, 3, 3]
    assert [c["fixed"] for c in result["components"]] == [True, False, False]


def test_construct_nonabelian_group(capsys):
    code, out, err = run(capsys, "construct", "--group", "S3")
    assert code == EXIT_NONABELIAN
    assert out == ""
    assert "error:" in err


def test_construct_names_a_nonabelian_group_before_building():
    # The refusal comes from the spec alone; S3 never reaches a table.
    args = argparse.Namespace(group="S3", base_size=1, format="text")
    with pytest.raises(
        NonAbelianDeckGroup,
        match=r"^group S3 is not abelian: the squared construction only "
              r"realizes the abelianized quotient for a nonabelian group, so "
              r"no cover of the full degree exists$",
    ):
        cli.cmd_construct(args, cli.Caps(coset_cap=1000, group_cap=1000))


def test_construct_unknown_group(capsys):
    code, _, err = run(capsys, "construct", "--group", "Zx")
    assert code == EXIT_BAD_INPUT
    assert "error:" in err


def test_construct_cap_exceeded(capsys):
    code, out, err = run(
        capsys, "construct", "--group", "Z4", "--group-cap", "5"
    )
    assert code == EXIT_CAP
    assert out == ""
    assert "error:" in err


def test_construct_names_the_square_over_the_coset_cap():
    args = argparse.Namespace(group="Z2", base_size=3, format="text")
    with pytest.raises(
        CapExceeded, match=r"^the square would have 36 pairs > coset cap 35$"
    ):
        cli.cmd_construct(args, cli.Caps(coset_cap=35, group_cap=1000))


def test_construct_rejects_zero_cap(capsys):
    code, _, err = run(
        capsys, "construct", "--group", "Z2", "--group-cap", "0"
    )
    assert code == EXIT_BAD_INPUT
    assert "positive" in err


def test_env_cap_applies(capsys, monkeypatch):
    monkeypatch.setenv("HILB2_CAP", "5")
    code, _, _ = run(capsys, "construct", "--group", "Z4")
    assert code == EXIT_CAP
    # The environment presets both caps, and the coset cap also bounds the
    # square's 64 pairs, so raising the group cap alone is not enough.
    code, _, err = run(capsys, "construct", "--group", "Z4", "--group-cap",
                       "20000")
    assert code == EXIT_CAP
    assert "coset cap 5" in err
    code, _, _ = run(capsys, "construct", "--group", "Z4", "--group-cap",
                     "20000", "--coset-cap", "20000")
    assert code == EXIT_OK


def test_env_cap_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("HILB2_CAP", "many")
    code, _, err = run(capsys, "construct", "--group", "Z2")
    assert code == EXIT_BAD_INPUT
    assert "HILB2_CAP" in err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--catalog", "cyclic-2")
    assert code == EXIT_OK
    assert "covers of Hilb2(cyclic-2)" in out
    assert "pi1^ab upstairs: Z2" in out
    assert "2 cover(s)" in out


def test_classify_json(capsys):
    code, out, _ = run(
        capsys, "classify", "--catalog", "cyclic-4", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert len(payload["results"]) == 3
    assert all(r["type"] == "cover" for r in payload["results"])
    assert [r["degree"] for r in payload["results"]] == [1, 2, 4]


@pytest.mark.parametrize("fmt,module,name", [
    # Text names each cover's deck group from its quotient type.
    ("text", cli, "_invariants_name"),
    ("json", serialize, "cover_to_dict"),
])
def test_classify_names_each_distinct_cover_once(capsys, monkeypatch,
                                                 fmt, module, name):
    # Z2^3 has 16 subgroups of 4 quotient types, one cover object each.
    calls = []
    original = getattr(module, name)

    def counted(x):
        calls.append(x)
        return original(x)

    def refused(group):
        raise AssertionError("classify named a deck group from its elements")

    monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(permgroup, "abelian_invariants", refused)
    code, out, _ = run(
        capsys, "classify", "--presentation", "< a b c | a^2, b^2, c^2 >",
        "--format", fmt,
    )
    assert code == EXIT_OK
    named = calls[1:] if fmt == "text" else calls  # text names pi1^ab first
    assert len(named) == len({id(x) for x in named}) == 4
    if fmt == "json":
        assert len(json.loads(out)["results"]) == 16
    else:
        assert sorted(named) == [(), (2,), (2, 2), (2, 2, 2)]
        assert out.endswith("16 cover(s)\n")


FINITE_PRESENTATIONS = (
    "< a b | a^2, b^3, a b a b >",
    "< a b | a^4, a^2 b^-2, b^-1 a b a >",
    "< a b | a^2, b^2, a b a b a b a b >",
    "< a b | a^2, b^4, a b a^-1 b^-1 >",
    "< a b | a^3, b^3, a b a^-1 b^-1 >",
    "< a b c | a^2, b^2, c^3, a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1 >",
)
_NAME_LETTERS = "abcxyzABZ_"
GENERATOR_NAMES = st.builds(lambda head, tail: head + tail,
                            st.sampled_from(_NAME_LETTERS),
                            st.text(_NAME_LETTERS + "019", max_size=3))


def classify_text(presentation_text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify", "--presentation", presentation_text])
    assert code == EXIT_OK
    return out.getvalue()


classify_text_of = functools.cache(classify_text)


def enumerated_orders(presentation):
    table = coset_enumeration(presentation)
    return table.index, permutation_realization(table).order


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_classify_ignores_generator_names_and_relator_order(data):
    text = data.draw(st.sampled_from(FINITE_PRESENTATIONS))
    p = parse_presentation(text)
    rank = p.rank
    names = data.draw(st.lists(GENERATOR_NAMES, min_size=rank,
                               max_size=rank, unique=True))
    # Generator i of p becomes generator slot[i] of the rewritten one.
    slot = data.draw(st.permutations(range(rank)))
    relators = data.draw(st.permutations(p.relators))
    rewritten = Presentation(
        tuple(names),
        tuple(tuple((slot[abs(x) - 1] + 1) * (1 if x > 0 else -1) for x in w)
              for w in relators),
    )
    assert classify_text(str(rewritten)) == classify_text_of(text)
    assert enumerated_orders(rewritten) == enumerated_orders(p)


def test_classify_unknown_catalog(capsys):
    code, _, err = run(capsys, "classify", "--catalog", "mystery")
    assert code == EXIT_BAD_INPUT
    assert "error:" in err


def test_classify_infinite_abelianization(capsys):
    code, _, err = run(capsys, "classify", "--presentation", "< a | >")
    assert code == EXIT_BAD_INPUT
    assert "rank" in err


def test_classify_bad_presentation(capsys):
    code, _, err = run(capsys, "classify", "--presentation", "< a | a^ >")
    assert code == EXIT_BAD_INPUT
    assert "error:" in err


def test_classify_large_cyclic_refuses_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "classify", "--presentation", "< a | a^600 >",
        "--group-cap", "100", "--coset-cap", "100",
    )
    elapsed = time.perf_counter() - start
    assert code == EXIT_CAP
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert elapsed < 5.0


def test_classify_refuses_before_listing_subgroups(capsys, monkeypatch):
    def refuse(invariants):
        raise AssertionError("subgroups listed before the cap was checked")

    monkeypatch.setattr(monodromy, "subgroups_of_abelian", refuse)
    code, out, err = run(
        capsys, "classify", "--presentation", "< a | a^50000 >",
    )
    assert code == EXIT_CAP
    assert out == ""
    assert err == "error: group closure exceeded cap of 20000 elements\n"


def test_classify_reads_subgroups_off_their_bases(capsys, monkeypatch):
    # Z2xZ4xZ8 has 81 subgroups; classify reads each one's order, quotient
    # and sort key off its Hermite basis, with no Smith form of its own and
    # no closure of its elements.
    calls = {"smith_invariant_factors": 0, "_closure": 0}
    for name in calls:
        def counted(*args, _name=name, _honest=getattr(fpgroup, name)):
            calls[_name] += 1
            return _honest(*args)
        monkeypatch.setattr(fpgroup, name, counted)
    code, out, _ = run(
        capsys, "classify", "--presentation",
        "< a b c | a^2, b^4, c^8, a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1 >",
    )
    assert code == EXIT_OK
    assert out.count(" yes ") == 81
    # The only Smith form is the abelianization of the presentation, which
    # the text header prints as hilb_covers_by_type returns it.
    assert calls == {"smith_invariant_factors": 1, "_closure": 0}


def test_hodge_text(capsys):
    code, out, _ = run(capsys, "hodge", "1,0,1")
    assert code == EXIT_OK
    assert "(1,0,1,0,1) ISV: yes" in out
    assert "surface (1,0,1) ISV: yes" in out
    code, out, _ = run(capsys, "hodge", "1,2,1")
    assert "(1,2,2,2,1) ISV: no" in out


def test_hodge_json(capsys):
    code, out, _ = run(capsys, "hodge", "1,4,1", "--format", "json")
    assert code == EXIT_OK
    result = json.loads(out)["results"][0]
    assert result["output"] == [1, 4, 7, 4, 1]
    assert result["hilb_isv"] is False


def test_hodge_bad_vectors(capsys):
    for vector in ("1,x,1", "1,0", "1,-1,1", "2,0,1"):
        code, out, err = run(capsys, "hodge", vector)
        assert code == EXIT_BAD_INPUT, vector
        assert out == ""
        assert "error:" in err


def test_missing_subcommand_is_bad_input(capsys):
    code, _, _ = run(capsys)
    assert code == EXIT_BAD_INPUT


ARGPARSE_REFUSALS = [
    (),
    ("construct",),
    ("construct", "--group", "Z2", "--format", "xml"),
    ("classify", "--catalog", "quaternion", "--presentation", "< a | a^2 >"),
    ("construct", "--group", "Z2", "--base-size", "two"),
]


def test_one_parser_and_no_state_between_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()

    def refusals():
        errors = []
        for argv in ARGPARSE_REFUSALS:
            code, out, err = run(capsys, *argv)
            assert code == EXIT_BAD_INPUT, argv
            assert out == "", argv
            errors.append(err)
        return errors

    before = refusals()
    first = len(built)
    assert first > 0
    calls = [
        ("hodge", "1,0,1"),
        ("construct", "--group", "Z2", "--format", "json"),
        ("classify", "--catalog", "quaternion"),
        ("construct", "--group", "Z3", "--base-size", "1"),
        ("hodge", "1,2,1", "--format", "json"),
        ("classify", "--presentation", "< a | a^4 >", "--format", "json"),
        ("construct", "--group", "Z2xZ2", "--group-cap", "1000"),
        ("classify", "--catalog", "cyclic-3"),
        ("hodge", "1,0,0"),
        ("construct", "--group", "Z4", "--base-size", "3"),
    ]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, argv
        assert out and err == ""
    assert len(built) == first
    assert refusals() == before
    assert len(built) == first


def test_dispatch_reads_the_command_at_call_time(capsys, monkeypatch):
    assert run(capsys, "hodge", "1,0,1")[0] == EXIT_OK
    seen = []
    original = cli.cmd_hodge

    def wrapped(args, caps):
        seen.append(args.vector)
        return original(args, caps)

    monkeypatch.setattr(cli, "cmd_hodge", wrapped)
    code, out, _ = run(capsys, "hodge", "1,2,1")
    assert code == EXIT_OK and out.startswith("(1,2,2,2,1)")
    assert seen == ["1,2,1"]


SUBCOMMANDS = ("classify", "construct", "verify", "hodge")
OPTIONS = ("--format", "--coset-cap", "--group-cap", "--catalog",
           "--presentation", "--group", "--base-size", "--inject-fault",
           "--help")
VALUES = ("Z2", "Z2xZ2", "S3", "2", "0", "-1", "two", "text", "json", "xml",
          "quaternion", "< a | a^2 >", "1,0,1", "-1,0,1", "")
STRAYS = ("extra", "bogus", "-h", "--", "-", "-x", "--nope", "constr")
WELL_FORMED = (("--format", "json"), ("--coset-cap", "100"),
               ("--group-cap", "50"), ("--group", "Z2"), ("--base-size", "1"),
               ("--catalog", "quaternion"), ("--presentation", "< a | a^2 >"),
               ("1,0,1",), ("--inject-fault",))

# An option string whole, cut to a prefix (which may name several
# options), or joined to a value by "=".
option_tokens = st.one_of(
    st.sampled_from(OPTIONS),
    st.builds(lambda option, cut: option[:cut], st.sampled_from(OPTIONS),
              st.integers(2, 6)),
    st.builds("{}={}".format, st.sampled_from(OPTIONS),
              st.sampled_from(VALUES)),
)
argv_tokens = st.one_of(option_tokens, st.sampled_from(VALUES),
                        st.sampled_from(STRAYS))
# Mostly a subcommand first, then well-formed options, options followed by
# any value, and single tokens.
first_tokens = st.sampled_from(SUBCOMMANDS * 4 + ("bogus", "-h", "--he",
                                                   "--"))
argv_chunks = st.one_of(st.sampled_from(WELL_FORMED),
                        st.tuples(option_tokens, st.sampled_from(VALUES)),
                        st.tuples(argv_tokens))
argv_tails = (
    st.lists(argv_chunks, max_size=4)
    | st.lists(st.sampled_from(WELL_FORMED), max_size=3)
).map(lambda chunks: [token for chunk in chunks for token in chunk])


def parse_outcome(parse, argv):
    """The namespace ``parse(argv)`` returns, as a dict, or the code it
    exits with, and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = vars(parse(argv))
    except SystemExit as stop:
        result = stop.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(first_tokens, argv_tails)
def test_a_named_subcommand_parses_as_the_top_level_parser_does(first, rest):
    argv = [first, *rest]
    assert (parse_outcome(cli._parse_args, argv)
            == parse_outcome(cli.build_parser().parse_args, argv))


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_OK
    assert ", 0 failed, 0 skipped" in out
    assert "FAIL" not in out


def test_verify_inject_fault(capsys):
    code, out, _ = run(capsys, "verify", "--inject-fault")
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in out


def test_verify_reports_the_construction_law_that_failed(capsys, monkeypatch):
    # Every normality answer negated: D's normality law fails on every
    # construction, whether or not every element squares to the identity.
    honest = permgroup.normalized_by
    monkeypatch.setattr(permgroup, "normalized_by",
                        lambda sub, gens: not honest(sub, gens))
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_CHECK_FAILED
    lines = out.splitlines()
    assert len(lines) == 98  # 97 results and the summary
    construction = [line for line in lines if "construction[" in line]
    assert len(construction) == 57
    for line in construction:
        assert line.startswith("FAIL - ")
        assert "(HomomorphismFailure: " in line


def test_verify_tight_cap_skips(capsys):
    code, out, _ = run(capsys, "verify", "--group-cap", "4")
    assert code == EXIT_OK
    assert "skip" in out
    assert "0 failed" in out


def test_verify_names_the_predicted_pair_group_over_the_group_cap():
    # The first entry builds Z1 over one base point: |J| = 2.
    _, first = cli._verify_checks(cli.Caps(coset_cap=100, group_cap=1),
                                  False)[0]
    with pytest.raises(CapExceeded, match=r"^\|J\| would be 2 > group cap 1$"):
        first()


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "verify"
    statuses = {r["status"] for r in payload["results"]}
    assert statuses == {"ok"}


@pytest.mark.parametrize("module", ["hilb2", "hilb2.cli"])
def test_both_module_entry_points_run_the_command_line(module):
    # python -m hilb2.cli once ran nothing and exited 0.
    src = str(Path(hilb2.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", module, "classify", "--catalog", "nope"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: no catalog surface named 'nope'")


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("classify", "--presentation", "< a b | a^2, b^6, a b a^-1 b^-1 >",
     "--format", "json"),
    ("construct", "--group", "Z2"),
], ids=["classify json", "construct text"])
def test_a_closed_stdout_ends_without_a_traceback(argv, unbuffered):
    # Not exit 1, which reads as a failed verify property.
    src = str(Path(hilb2.__file__).resolve().parent.parent)
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "hilb2", *argv], stdout=write,
            stderr=subprocess.PIPE, text=True, timeout=60, env=env,
        )
    finally:
        os.close(write)
    assert result.returncode == EXIT_CLOSED_STDOUT
    assert result.stderr == ""


# Runs ``python -m hilb2`` on the arguments after the report path, and at
# exit writes the interpreter's own peak resident set (the VmHWM line, in kB)
# to that path.  ``wait4``'s ru_maxrss cannot stand in for it: a forked
# child keeps the high-water mark of the test process it was forked from.
_CHILD = """
import atexit, runpy, sys
report = sys.argv.pop(1)
def write_peak():
    with open("/proc/self/status") as status, open(report, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
atexit.register(write_peak)
sys.argv[0] = "hilb2"
runpy.run_module("hilb2", run_name="__main__", alter_sys=True)
"""


def run_limited(argv, *, address_space: int, timeout: float):
    """Run the command line in a child process under an address-space limit.

    Returns the exit code, stdout, stderr, wall seconds and the child's own
    peak resident set in MB (its VmHWM, so the memory of this process and
    of earlier children does not count).
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(hilb2.__file__).resolve().parent.parent)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err, \
            tempfile.NamedTemporaryFile("r") as peak:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, peak.name, *argv], stdout=out,
            stderr=err, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
            preexec_fn=limit,
        )
        while proc.poll() is None:
            if time.perf_counter() - start > timeout:
                proc.kill()
                proc.wait()
                pytest.fail(f"{argv} ran longer than {timeout} s")
            time.sleep(0.01)
        seconds = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                seconds, int(peak.read().split()[1]) / 1024)


def test_construct_refuses_an_oversized_pair_group_before_building():
    code, out, err, seconds, _ = run_limited(
        ("construct", "--group", "Z100", "--group-cap", "100"),
        address_space=1 << 30, timeout=30,
    )
    assert code == EXIT_CAP
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert seconds < 1.5


@pytest.mark.parametrize("spec, pair_order, intermediate_order", [
    ("Z50", 5000, 100),
    ("Z100", 20000, 200),
])
def test_construct_scales_past_the_square(spec, pair_order,
                                          intermediate_order):
    code, out, err, _, peak_mb = run_limited(
        ("construct", "--group", spec, "--base-size", "2",
         "--format", "json"),
        address_space=3 << 29, timeout=30,
    )
    assert code == EXIT_OK, err
    result = json.loads(out)["results"][0]
    assert result["pair_group_order"] == pair_order
    assert result["intermediate_group_order"] == intermediate_order
    assert peak_mb < 80


def test_construct_refuses_an_oversized_square_before_building():
    code, out, err, seconds, _ = run_limited(
        ("construct", "--group", "Z1", "--base-size", "20000"),
        address_space=1 << 30, timeout=30,
    )
    assert code == EXIT_CAP
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "coset cap" in err
    assert seconds < 1.0


@pytest.mark.parametrize("argv, code", [
    (("construct", "--group", "Z2000", "--group-cap", "100"), EXIT_CAP),
    (("construct", "--group", "Z2000x"), EXIT_BAD_INPUT),
    (("construct", "--group", "S4xZ1000", "--group-cap", "100"),
     EXIT_NONABELIAN),
], ids=["Z2000 over the coset cap", "malformed Z2000x",
        "nonabelian S4xZ1000"])
def test_construct_refuses_from_the_spec_before_building_a_table(argv, code):
    got, out, err, seconds, peak_mb = run_limited(
        argv, address_space=1 << 30, timeout=30,
    )
    assert got == code, err
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert seconds < 1.0
    assert peak_mb < 100


def test_classify_builds_one_cover_per_quotient_type_in_a_fresh_process():
    # Z2^6 has 2,825 subgroups but only 7 quotient types.  The digest is
    # that of the output of the build with one cover per subgroup.
    presentation = "< a b c d e f | a^2, b^2, c^2, d^2, e^2, f^2 >"
    code, out, err, seconds, _ = run_limited(
        ("classify", "--presentation", presentation, "--format", "json"),
        address_space=1 << 30, timeout=60,
    )
    assert code == EXIT_OK, err
    assert len(json.loads(out)["results"]) == 2825
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9e3df28cffee3fa80694a078c4e90f317fcab0d1c41fa2a8924490dac5022bec"
    )
    assert seconds < 5.0
