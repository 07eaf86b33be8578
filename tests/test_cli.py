"""End-to-end command-line behavior: outputs, formats, and exit codes."""
import argparse
import json
import os
from pathlib import Path
import resource
import subprocess
import sys
import tempfile
import time

import pytest

import hilb2
from hilb2 import cli, monodromy, permgroup
from hilb2.cli import (
    EXIT_BAD_INPUT,
    EXIT_CAP,
    EXIT_CHECK_FAILED,
    EXIT_NONABELIAN,
    EXIT_OK,
    main,
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
    monkeypatch.setattr(permgroup, "normalized_by", lambda sub, gens: False)
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


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "verify"
    statuses = {r["status"] for r in payload["results"]}
    assert statuses == {"ok"}


def run_limited(argv, *, address_space: int, timeout: float):
    """Run the command line in a child process under an address-space limit.

    Returns the exit code, stdout, stderr, wall seconds and the child's own
    peak resident set in MB (read from ``wait4``, so earlier children of
    this process do not count).
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(hilb2.__file__).resolve().parent.parent)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "hilb2", *argv], stdout=out, stderr=err,
            env={"PYTHONPATH": src}, preexec_fn=limit,
        )
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > timeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                pytest.fail(f"{argv} ran longer than {timeout} s")
            time.sleep(0.01)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                seconds, usage.ru_maxrss / 1024)


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
