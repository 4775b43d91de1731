"""Every row of work_counts.ROWS makes exactly its pinned calls."""

import pytest

import work_counts


@pytest.mark.parametrize("row", work_counts.ROWS, ids=lambda row: row.name)
def test_each_command_makes_its_pinned_calls(row, tmp_path):
    assert work_counts.measure(row, tmp_path) == row.pins
