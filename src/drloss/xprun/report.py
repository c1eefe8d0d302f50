"""Experiment reports and their byte-stable CSV/JSON serialization.

A report holds its per-trial rows as a column table: column name -> a numpy
array (bool, integer or float) or a list of Python values (strings, JSON
cells, or a column whose cells mix types, such as hoeffding's ``n``, ""
on inner rows and an integer on outer ones).  The CSV writer formats each
column by its type, each distinct value once, and so does the JSON writer,
which emits ``json.dumps(..., indent=2)``'s bytes.  ``ExperimentReport.rows``
is a read-only view of the same table as row dicts of Python scalars, for
callers that want rows.

Emitted files are a pure function of (config, master seed): no timestamps
or timings are written, so identical runs produce identical bytes.  Wall
clock lives on the in-memory report only and goes to the log.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


def column(values: list):
    """``values`` as a table column, keeping each cell's Python type.

    A numpy array when every value is a bool, every value an int or every
    value a float (ints past 64 bits aside); otherwise the list itself.
    """
    kinds = {type(v) for v in values}
    if len(kinds) == 1 and kinds <= {bool, int, float}:
        array = np.array(values)
        if array.dtype != object:
            return array
    return values


def table_from_rows(rows: list, columns=None) -> dict:
    """The column table of row dicts; a row's missing cell is ""."""
    if columns is None:
        columns = list(rows[0]) if rows else []
    return {c: column([row.get(c, "") for row in rows]) for c in columns}


class RowView(Sequence):
    """Read-only row dicts of a column table, with Python scalars as cells."""

    def __init__(self, table: dict):
        self._table = table

    def __len__(self) -> int:
        return len(next(iter(self._table.values()))) if self._table else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(RowView({name: col[i] for name, col in self._table.items()}))
        return {name: col[i].item() if isinstance(col, np.ndarray) else col[i]
                for name, col in self._table.items()}

    def __iter__(self):
        cells = [col.tolist() if isinstance(col, np.ndarray) else col
                 for col in self._table.values()]
        for values in zip(*cells):
            yield dict(zip(self._table, values))


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    table: dict                # per-trial rows: column name -> array or list
    agg_columns: list
    aggregates: list           # list of dicts keyed by ``agg_columns``
    assertions: list           # list of stats.Assertion
    passed: bool
    wall_clock_s: float = 0.0  # not serialized
    schema_version: int = SCHEMA_VERSION

    @property
    def columns(self) -> list:
        return list(self.table)

    @property
    def rows(self) -> RowView:
        return RowView(self.table)

    def summary_lines(self) -> list:
        lines = [a.describe() for a in self.assertions]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict} {self.kind}: {len(self.rows)} rows, "
                     f"{len(self.assertions)} assertions, {self.wall_clock_s:.2f}s")
        return lines


def _escaped(texts: list, lead: bool = False) -> list:
    """``texts`` as the csv module escapes them inside a row, each distinct text once.

    A ``lead`` text (a record's first cell) that starts with "#" is quoted too,
    or ``read_csv_sections`` would take its record for a comment."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    escaped = {}
    for text in set(texts):
        buf.seek(0)
        buf.truncate()
        writer.writerow([text, ""])
        cell = buf.getvalue()[:-2]  # less the empty field's "," and the "\n"
        escaped[text] = f'"{cell}"' if lead and cell.startswith("#") else cell
    return [escaped[t] for t in texts]


def _cells(col, lead: bool = False) -> list:
    """One column's CSV cells, as they stand between the commas of a row.

    Bools are "1"/"0", floats their ``repr``, ints and strings ``str``, and a
    list of dicts (the hypothesis column) is JSON with sorted keys.  A list
    that mixes types goes through ``str``, which writes a float as its
    ``repr`` too.  Each distinct value is formatted once, numbers keyed on
    their bits so that -0.0 and 0.0 stay apart, JSON cells on their object
    (the ERM suites share one per witness); no number needs quoting.  ``lead``
    is ``_escaped``'s.
    """
    if isinstance(col, np.ndarray):
        if col.dtype == bool:
            return np.where(col, "1", "0").tolist()
        keys, inverse = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
        text = map(repr if col.dtype.kind == "f" else str, keys.view(col.dtype).tolist())
        return np.array(list(text), dtype=object)[inverse].tolist()
    if col and isinstance(col[0], (dict, list)):
        unique = {id(v): v for v in col}
        text = {key: json.dumps(v, sort_keys=True) for key, v in unique.items()}
        return _escaped([text[id(v)] for v in col], lead)
    return _escaped(list(map(str, col)), lead)


def render_csv(report: ExperimentReport) -> str:
    """One file, three sections (rows, aggregates, assertions), comment-framed."""
    buf = io.StringIO()

    def comment(text):
        buf.write(text + "\n")

    def table(columns, table):
        header = [_escaped(list(columns), lead=True)]
        cells = [_cells(table[c], lead=i == 0) for i, c in enumerate(columns)]
        lines = map(",".join, chain(header, zip(*cells)))
        if len(columns) == 1:  # the csv writer quotes a row's lone empty field
            lines = (line or '""' for line in lines)
        buf.write("\n".join(lines) + "\n")

    comment(f"# drloss report schema={report.schema_version} kind={report.kind}")
    comment("# config: " + json.dumps(report.config, sort_keys=True))
    comment("# sections follow: per-trial rows, then aggregates, then assertions")
    table(report.columns, report.table)
    comment("# aggregates")
    table(report.agg_columns, table_from_rows(report.aggregates, report.agg_columns))
    comment("# assertions")
    acols = ["name", "observed", "bound", "slack_rule", "passed"]
    table(acols, table_from_rows([asdict(a) for a in report.assertions], acols))
    comment(f"# passed={1 if report.passed else 0}")
    return buf.getvalue()


def render_json(report: ExperimentReport) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline, byte for byte.

    ``indent`` keeps CPython on its pure-Python encoder, which costs most of
    a large report's render, so only the small rest goes through it; the
    rows (``_json_rows``) are laid out here and take their cells from the
    C encoder.  Top-level keys alone are indented by two spaces, and raw
    newlines in ``json.dumps`` text are all its own, so the rows' place in
    that text is found by a plain split.
    """
    payload = {
        "schema_version": report.schema_version,
        "kind": report.kind,
        "config": report.config,
        "columns": report.columns,
        "rows": [],
        "agg_columns": report.agg_columns,
        "aggregates": report.aggregates,
        "assertions": [asdict(a) for a in report.assertions],
        "passed": report.passed,
    }
    head, tail = json.dumps(payload, sort_keys=True, indent=2).split('\n  "rows": []', 1)
    return head + '\n  "rows": ' + _json_rows(report.table) + tail + "\n"


def _json_cells(col, level: int) -> list:
    """Each cell of a table column as ``json.dumps(..., indent=2)`` writes it at ``level``.

    A column of leaves is one C encoder call split at its separators, an
    array column's distinct values (keyed on their bits, as ``_cells`` keys
    them) encoded once; a JSON cell is written once per distinct object.
    """
    if isinstance(col, np.ndarray):
        keys, inverse = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
        return np.array(_json_cells(keys.view(col.dtype).tolist(), level), dtype=object)[
            inverse].tolist()
    if not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, col))):
        return json.JSONEncoder(separators=(",\n", ": ")).encode(col)[1:-1].split(",\n")
    text = {}
    for v in col:
        if id(v) not in text:
            text[id(v)] = json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n" + "  " * level)
    return [text[id(v)] for v in col]


def _json_rows(table: dict) -> str:
    """The table's rows as ``render_json`` writes the list of row dicts.

    The text is one join over the rows' parts, each column's cells set into
    every other slot of a row's stretch by one slice assignment.
    """
    rows = len(next(iter(table.values()))) if table else 0
    if not rows:
        return "[]"
    names = sorted(table)
    row, cell = "\n    ", "\n      "
    stride = 2 * len(names)
    parts = [None] * (rows * stride)
    for j, name in enumerate(names):
        lead = row + "}," + row + "{" + cell if j == 0 else "," + cell
        parts[2 * j::stride] = [lead + json.dumps({name: 0})[1:-2]] * rows
        parts[2 * j + 1::stride] = _json_cells(table[name], 3)
    parts[0] = "{" + cell + json.dumps({names[0]: 0})[1:-2]
    return "[" + row + "".join(parts) + row + "}\n  ]"


def emit_report(report: ExperimentReport, fmt: str, path) -> None:
    """Write the report; identical reports yield byte-identical files."""
    if fmt == "csv":
        text = render_csv(report)
    elif fmt == "json":
        text = render_json(report)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    Path(path).write_text(text)


def read_csv_sections(path) -> dict:
    """Re-parse an emitted CSV into its three sections (for round-trip checks).

    "#" starts a comment only where a record starts, not inside a quoted cell.
    """
    with open(path, newline="") as fh:
        text = io.StringIO(fh.read())
    records = csv.reader(text)
    sections: dict = {"rows": [], "aggregates": [], "assertions": []}
    current = "rows"
    header: list | None = None
    while line := text.readline():
        if line.startswith("#"):
            if line.rstrip() in ("# aggregates", "# assertions"):
                current, header = line.rstrip()[2:], None
            continue
        text.seek(text.tell() - len(line))  # the reader parses the record from its start
        cells = next(records)
        if header is None:
            header = cells
            sections[current + "_columns"] = header
            continue
        sections[current].append(dict(zip(header, cells)))
    return sections
