"""The block-wise CSV reader against the per-cell reader it stands in for.

``read_matrix_csv`` parses plain files a block of lines at a time and hands
every other file to ``_read_cells``. The differential test checks, on a
seeded corpus of small adversarial files, that the two give the same header
and bitwise-equal values or the same ``DataError`` text. The guard checks
that the files the program and its tests write do take the fast path.
"""

import csv
import json
import random

import numpy as np

from fragma import io
from fragma.cli import main
from fragma.datasets import adni_like
from fragma.errors import DataError
from fragma.io import read_matrix_csv, write_csv

MARKERS = ["NA", "", "N/A", "-999", "nan", " NA"]

# Cells that float() and the per-cell reader may read differently; "{na}"
# is the file's marker.
ODD_CELLS = [
    " 3 ", "\t4", "+.5", "1_000", "١", "", "{na}", " NA", "NA ", "nan",
    "NaN", "inf", "Infinity", "1e400", "x", " -999", "\x1c1", '"5"',
]
PLAIN_CELLS = ["0", "-0.0", "2.5", "-17", "1e-300", "3.0000000000000004", "{na}", ""]
BLANK_LINES = ["", "  ", "\t", " \x0b "]


def _outcome(read, path, marker):
    try:
        header, values = read(path, marker)
    except (DataError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return header, values.dtype.str, values.shape, values.tobytes()


def _random_file(rng: random.Random) -> tuple[str, str]:
    marker = rng.choice(MARKERS)
    p = rng.randint(1, 4)
    header = [rng.choice(["a", "b", " c ", "d", "e"]) if rng.random() < 0.1 else f"x{j}"
              for j in range(p)]
    odd = rng.random() < 0.5
    lines = [",".join(header)]
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.1:
            lines.append(rng.choice(BLANK_LINES))
            continue
        width = p + (rng.choice([-1, 1]) if rng.random() < 0.05 else 0)
        pool = ODD_CELLS if odd and rng.random() < 0.3 else PLAIN_CELLS
        lines.append(",".join(rng.choice(pool) for _ in range(max(width, 1))))
    end = rng.choice(["\n", "\n", "\r\n", "\r"])
    text = end.join(lines) + (end if rng.random() < 0.8 else "")
    return text.replace("{na}", marker), marker


def _fixed_files() -> list[tuple[str, str]]:
    big = "".join(f"{i * 0.25!r},NA,{-i}\n" for i in range(5_000))
    assert len(big) > 2 * io._BLOCK_CHARS
    return [
        ("", "NA"),
        ("a,b", "NA"),
        ("a,b\n", "NA"),
        ("a,b\r\n", "NA"),
        ("\n1,2\n", "NA"),
        ("\n1\n", "NA"),
        ("a,a\n1,2\n", "NA"),
        ("a,b\n1,2", "NA"),
        ("a,b\n\n  \n1,2\n\n", "NA"),
        ("a,b\n1,2\n3\n", "NA"),
        ('a,b\n1,"2"\n', "NA"),
        ('"a",b\n1,2\n', "NA"),
        ("a,b\n1, -999\n", "-999"),
        ("a,b\n1,nan\n", "nan"),
        ("a,b\n1, NA\n", " NA"),
        ('a,b\n1,"NA"\n', '"NA"'),
        ("a,b\n" + " " * (csv.field_size_limit() + 1) + "\n1,2\n", "NA"),
        ("a,b,c\n" + big, "NA"),
        ("a,b,c\n" + big + "1,2\n", "NA"),
        ("a,b,c\n" + big + "1,2,inf\n", "NA"),
        ("a,b,c\n" + big + "1,2,nan\n", "NA"),
    ]


def test_fast_reader_matches_the_per_cell_reader(tmp_path):
    rng = random.Random(20261018)
    corpus = _fixed_files() + [_random_file(rng) for _ in range(400)]
    fast = 0
    for i, (text, marker) in enumerate(corpus):
        path = tmp_path / f"{i}.csv"
        path.write_bytes(text.encode())
        expected = _outcome(io._read_cells, path, marker)
        assert _outcome(read_matrix_csv, path, marker) == expected, (text[:200], marker)
        fast += io._read_plain(path, marker) is not None
    # Both routes are exercised.
    assert len(corpus) // 5 < fast < len(corpus) - len(corpus) // 5


def _program_csvs(tmp_path):
    """An adni_like CSV as the benchmark writes it, as the tests write it, and screen's output."""
    data, groups = adni_like(seed=3, scale=0.5)
    values = np.column_stack([data.y, np.where(data.mask, data.x, np.nan)])
    header = ["y"] + data.column_names
    bench = tmp_path / "bench.csv"
    with open(bench, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in values.tolist():
            fh.write(",".join(map(repr, row)).replace("nan", "NA") + "\n")
    tests = tmp_path / "tests.csv"
    write_csv(tests, header, [["NA" if np.isnan(v) else repr(v) for v in row]
                              for row in values.tolist()])
    g = tmp_path / "groups.json"
    g.write_text(json.dumps({n: [data.column_names[j] for j in cols] for n, cols in groups.items()}))
    out = tmp_path / "scr"
    assert main(["screen", "--input", str(tests), "--response", "y", "--groups", str(g),
                 "--keep", "2", "--out", str(out)]) == 0
    return [bench, tests, out / "reduced.csv"]


def test_program_written_csvs_take_the_fast_path(tmp_path, monkeypatch):
    paths = _program_csvs(tmp_path)
    expected = [_outcome(io._read_cells, path, "NA") for path in paths]

    def per_cell(*args):
        raise AssertionError("fell back to the per-cell reader")

    monkeypatch.setattr(io, "_read_cells", per_cell)
    assert [_outcome(read_matrix_csv, path, "NA") for path in paths] == expected



def test_a_byte_order_mark_is_not_part_of_the_header(tmp_path):
    # Spreadsheets' "CSV UTF-8" exports begin with a UTF-8 byte-order mark.
    bom = b"\xef\xbb\xbf"
    plain = _program_csvs(tmp_path)[1]
    quoted = tmp_path / "quoted.csv"  # a quoted cell: the per-cell reader's file
    quoted.write_text('"y",a,b\n1,"2",NA\n0,3.5,\n')
    for path in (plain, quoted):
        marked = path.with_name("bom-" + path.name)
        marked.write_bytes(bom + path.read_bytes())
        for read in (read_matrix_csv, io._read_cells):
            assert _outcome(read, marked, "NA") == _outcome(read, path, "NA")
    assert io._read_plain(plain.with_name("bom-" + plain.name), "NA") is not None

    data, groups = adni_like(seed=3, scale=0.5)
    g = tmp_path / "bom-groups.json"
    g.write_bytes(bom + json.dumps(
        {n: [data.column_names[j] for j in cols] for n, cols in groups.items()}).encode())
    assert io.read_groups_sidecar(g, data.column_names) == groups
    assert main(["fit", "--input", str(plain.with_name("bom-" + plain.name)),
                 "--response", "y", "--out", str(tmp_path / "fit")]) == 0
