"""The differential run's comparison, on hand-made case lists."""

from differential import compare_cases, read_expected

THEIRS = [["a", 1], ["b", [2, "x"]], ["c", "same"], ["d", 4]]


def compared(ours, expected):
    said = []
    return compare_cases(THEIRS, ours, expected, "REV", said.append), said


def test_listed_differences_are_counted_and_others_reported():
    ours = [["a", 1], ["b", [2, "y"]], ["c", "same"], ["d", 5]]
    code, said = compared(ours, {"b", "d"})
    assert code == 0
    assert said == ["2 expected differences in 4 cases against REV"]
    code, said = compared(ours, {"b"})
    assert code == 1
    assert said == [
        "difference: d",
        "  REV: 4",
        "  this checkout: 5",
        "1 expected differences in 4 cases against REV",
        "1 unexpected differences",
    ]


def test_a_listed_case_that_did_not_differ_is_named():
    ours = [["a", 1], ["b", [2, "y"]], ["c", "same"], ["d", 4]]
    code, said = compared(ours, {"b", "c", "zz"})
    assert code == 0
    assert said == [
        "1 expected differences in 4 cases against REV",
        "expected to differ but did not: c",
        "expected to differ but did not: zz",
    ]


def test_every_difference_is_unexpected_without_a_list():
    ours = [["a", 0], ["b", [2, "x"]], ["c", "other"], ["d", 4]]
    code, said = compared(ours, set())
    assert code == 1
    assert [line for line in said if line.startswith("difference")] == [
        "difference: a", "difference: c"
    ]


def test_case_lists_that_do_not_match_fail_at_once():
    assert compared([["a", 1], ["x", 2]], {"x"}) == (
        1, ["case lists differ: 'b' at REV, 'x' here"]
    )
    assert compared(THEIRS[:3], set()) == (1, ["case counts differ: 4 at REV, 3 here"])


def test_the_list_file_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "expected.txt"
    path.write_text("# why they differ\n\nmutant seed=3 (a.model): ropas validate  \nb\n")
    assert read_expected(path) == {"mutant seed=3 (a.model): ropas validate", "b"}
