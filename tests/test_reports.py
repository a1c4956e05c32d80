import json
import re
from pathlib import Path

import numpy as np
import pytest

from anisolab.cli import run_config
from anisolab.config import load_config, shipped_config_dir
from anisolab.reports import CSV_COLUMNS, write_csv, write_summary

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_schema_table():
    text = README.read_text()
    section = text.split("## Report schemas", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = re.findall(r"`([^`]*)`", line)
        if line.startswith("| `") and len(cells) >= 2:
            table[Path(cells[0]).stem] = cells[1]
    return table


def test_readme_schema_table_equals_csv_columns():
    assert _readme_schema_table() == {
        report: ",".join(cols) for report, cols in CSV_COLUMNS.items()}


@pytest.fixture(scope="module")
def shipped_reports(tmp_path_factory):
    """Summary and report directory of every shipped config."""
    root = tmp_path_factory.mktemp("shipped")
    runs = {}
    for path in sorted(shipped_config_dir().glob("*.cfg")):
        outdir = root / path.stem
        summary, code = run_config(load_config(path), outdir)
        runs[path.stem] = (summary, code, outdir)
    return runs


def test_shipped_configs_write_their_table_headers(shipped_reports):
    written = set()
    for name, (_, code, outdir) in shipped_reports.items():
        assert code == 0, name
        for csv in outdir.glob("*.csv"):
            header = csv.read_text().split("\n", 1)[0]
            assert header == ",".join(CSV_COLUMNS[csv.stem]), csv
            written.add(csv.stem)
    assert written == set(CSV_COLUMNS)


def test_successful_runs_have_no_failures_key(shipped_reports):
    for name, (summary, _, outdir) in shipped_reports.items():
        assert "failures" not in summary, name
        assert "failures" not in json.loads(
            (outdir / "summary.json").read_text()), name


def test_cell_formats(tmp_path):
    path = tmp_path / "r.csv"
    write_csv(path, "resolvent", [(True, np.False_), (3, np.int64(4)),
                                  ("refused", 0.5), (np.float64(0.25),
                                                     float("nan"))])
    assert path.read_text().splitlines() == [
        "epsilon,deviation",
        "true,false",
        "3,4",
        "refused,5.00000000000000000e-01",
        "2.50000000000000000e-01,nan",
    ]


def test_summary_writes_non_finite_numbers_as_null(tmp_path):
    path = tmp_path / "summary.json"
    write_summary(path, {"a": [float("nan"), np.inf, -np.inf, np.float64(0.5)],
                         "b": np.array([np.nan, 1.0]), "c": np.float32(np.inf)})

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "a": [None, None, None, 0.5], "b": [None, 1.0], "c": None}
