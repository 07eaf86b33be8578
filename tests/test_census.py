"""The law census (``tools/census.py``): it finds every raise site of the
censused exceptions, and a dropped check is caught by the tests that
name its text.  The full census runs the suite once per site, so it stays
out of this suite."""
import ast
from pathlib import Path
import re
import sys
import time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import census  # noqa: E402


def test_the_sites_are_every_raise_of_the_censused_exceptions():
    # Read line by line, apart from the syntax tree the tool walks.
    opening = re.compile(r"\s*raise (HomomorphismFailure|CapExceeded|NotAGroup"
                         r"|NonAbelianDeckGroup|InfiniteAbelianization)\(")
    expected = [
        (path.relative_to(ROOT).as_posix(), number)
        for path in sorted((ROOT / "src" / "hilb2").glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if opening.match(line)
    ]
    found = census.sites()
    assert [(site.path, site.line) for site in found] == expected
    assert {site.exception for site in found} == set(census.EXCEPTIONS)
    for site in found:
        before = (ROOT / site.path).read_text().splitlines()
        after = census.mutated("\n".join(before), site).splitlines()
        ast.parse("\n".join(after))
        assert [k for k, (a, b) in enumerate(zip(before, after), 1)
                if a != b] == [site.line]
        assert after[site.line - 1] == \
            before[site.line - 1].replace("raise ", "", 1)


def test_a_dropped_hilbcover_check_is_caught_by_its_named_test():
    site, = [site for site in census.sites()
             if site.path == "src/hilb2/hilbcover.py"
             and site.pieces == ("fiber size law failed",)]
    assert "tests/test_hilbcover.py::" \
        "test_orbit_counts_are_checked_on_the_kept_labels" \
        in census.named_tests(site)
    start = time.perf_counter()
    verdict, _ = census.census_site(site)
    assert verdict == "caught by named tests"
    assert time.perf_counter() - start < 5


def test_a_site_whose_message_is_a_name_is_named_by_the_tests_reading_it():
    # square_cover's abelian guard raises a module constant, with no
    # literal piece: its named tests are those whose match= reads it.
    guards = [site for site in census.sites()
              if site.message == "_NONABELIAN_DECK"]
    assert [site.path for site in guards] == ["src/hilb2/hilbcover.py"] * 2
    for site in guards:
        assert site.pieces == ()
        assert "tests/test_hilbcover.py::" \
            "test_hilb_square_cover_rejects_bad_inputs" \
            in census.named_tests(site)
    start = time.perf_counter()
    verdict, _ = census.census_site(guards[0])
    assert verdict == "caught by named tests"
    assert time.perf_counter() - start < 5
