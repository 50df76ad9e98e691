"""The README's examples still run and still show what they say."""
import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from linsys.cli import main
from linsys.lattice import CENSUS_GUARD, _by_recurrence, _census_bytes

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    section = README.split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_matches_its_comments():
    names: dict = {}
    exec(_block("## Library quick tour", "python"), names)
    assert math.isclose(math.sqrt(names["upper"]), 2.9788, abs_tol=5e-5)  # C ~ 2.9788
    assert names["exact"].value == 1
    assert names["low"].base == 3.75
    assert len(names["sphere"]) == 6
    assert names["a"].points == names["sphere"].points  # 0 <= entry <= 2 < 7


def _cli_examples() -> dict[str, tuple[list[str], list[str]]]:
    """command -> (argv, lines shown) for each ``$ linsys`` example."""
    examples = {}
    for chunk in _block("A few examples:", "sh").split("$ linsys ")[1:]:
        command, *shown = chunk.rstrip("\n").split("\n")
        examples[command.split()[0]] = (command.split(), shown)
    return examples


@pytest.mark.parametrize("command", ["analyze", "reduce", "search"])
def test_cli_example_lines_appear_in_order(command):
    argv, shown = _cli_examples()[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    lines = iter(out.getvalue().splitlines())
    missing = [line for line in shown if line != "..." and line not in lines]
    assert missing == []


@pytest.mark.parametrize("n", [2, 5, 18])
def test_limits_table_names_the_census_edges(n):
    # the row "`--n N --k K`, the largest K at N = n" of the limits table
    row = re.search(rf"^\| \| `--n (\d+) --k (\d+)`, the largest K at N = {n}\b.*$", README, re.M)
    assert row is not None, f"no limits-table row for the largest K at N = {n}"
    k = int(row.group(2))
    assert int(row.group(1)) == n
    assert _census_bytes(n, k) <= CENSUS_GUARD < _census_bytes(n, k + 1)


def test_limits_table_names_the_largest_k_on_the_limbs():
    # the row "`--n N --k K`, the largest K on the limbs just below N = N + 1"
    row = re.search(r"^\| \| `--n (\d+) --k (\d+)`, the largest K on the limbs just below N = (\d+)\b.*$",
                    README, re.M)
    assert row is not None, "no limits-table row for the largest K on the limbs"
    n, k, switch = map(int, row.groups())
    assert n + 1 == switch and not _by_recurrence(n, k) and _by_recurrence(switch, k)
    assert _census_bytes(n, k) <= CENSUS_GUARD < _census_bytes(n, k + 1)
