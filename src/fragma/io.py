"""CSV ingestion with missing-value masks, the JSON readers (the groups
sidecar, :func:`read_model`) and the prediction table's writer.

A parsed CSV can be saved beside a model as ``.npy`` with a record that
names the CSV and the ``.npy`` by their SHA-256, and the family of the
model's fits (:func:`save_matrix`).  A later read takes the saved matrix
only when the record has exactly those keys and both files still hash as
recorded, and otherwise parses the CSV (:func:`reread_matrix_csv`).  This
module alone hashes, saves and loads files.
"""

from __future__ import annotations

import csv
import json
from io import StringIO
from math import isfinite

import numpy as np

from .averaging import AveragedModel
from .errors import DataError
from .patterns import FragmentaryDataset

NA_MARKER = "NA"  # the default text of a missing cell
# Input files are UTF-8 whatever the locale; a leading byte-order mark, as
# spreadsheet "CSV UTF-8" exports write, is dropped.
_ENCODING = "utf-8-sig"


def _parse_cell(raw: str, na_marker: str) -> float:
    v = raw.strip()
    if v == "" or v == na_marker:
        return np.nan
    try:
        value = float(v)
    except ValueError:
        raise DataError(f"cannot parse value {raw!r} as a number")
    if isfinite(value):
        return value
    raise DataError(
        f"non-finite value {raw!r}; a missing cell is empty or {na_marker!r}"
    )


# Characters per block of the plain-file reader (the ``readlines`` hint).
# A block's cell strings are its transient memory: at 32 KiB they stay
# below what the per-cell reader holds for a 1,170-row file, and larger
# blocks parse no faster.
_BLOCK_CHARS = 1 << 15


def read_matrix_csv(path, na_marker: str = NA_MARKER) -> tuple[list[str], np.ndarray]:
    """Header plus float matrix; empty cells or the marker become NaN.

    Every other cell must be a finite number: ``inf``, ``-inf`` or ``nan``
    (unless it is the marker) is a :class:`~fragma.errors.DataError`, as is
    a ragged row, each naming the offending line.  So is a file that does
    not decode as UTF-8 (a leading byte-order mark is dropped) or that
    ``csv`` rejects (a cell longer than ``csv.field_size_limit()``), naming
    ``path``.
    """
    try:
        parsed = _read_plain(path, na_marker)
    except UnicodeDecodeError:
        parsed = None  # the per-cell reader names the file
    return _read_cells(path, na_marker) if parsed is None else parsed


def _read_plain(path, na_marker: str) -> tuple[list[str], np.ndarray] | None:
    r"""The result of :func:`_read_cells`, parsed a block of lines at a time.

    Returns None, possibly after reading part of the file, unless the
    result is provably the per-cell reader's:

    - no ``"`` anywhere, so ``csv`` splits each line exactly at its commas
      (read with ``newline=""``, a ``\r`` or ``\n`` only ever ends a line,
      so dropping them drops line ends), and no line longer than
      ``csv.field_size_limit()``;
    - the marker is its own ``strip()`` and not a number, so a cell that
      ``float()`` reads as finite and that is neither empty nor the marker
      parses to the same value per cell: ``float()`` accepts only padding
      that ``str.strip()`` removes, and the stripped text cannot be empty or
      the marker;
    - every row has the header's field count, every cell parses, and no
      cell other than an empty one or the marker reads as ``inf`` or ``nan``.

    Anything else (an error included) is left to the per-cell reader.
    """
    try:
        float(na_marker)
        return None
    except ValueError:
        pass
    if na_marker != na_marker.strip():
        return None
    limit = csv.field_size_limit()
    na = dict.fromkeys(("", na_marker), "nan")
    with open(path, newline="", encoding=_ENCODING) as fh:
        first = fh.readline()
        if not first.strip() or '"' in first or len(first) > limit:
            return None
        header = [h.strip() for h in first.rstrip("\r\n").split(",")]
        p = len(header)
        if _header_fault(header):
            return None
        blocks = []
        for lines in iter(lambda: fh.readlines(_BLOCK_CHARS), []):
            if max(map(len, lines)) > limit:
                return None
            # The per-cell reader skips a line with no comma that is blank.
            rows = [ln for ln in lines if "," in ln or not ln.isspace()]
            if not rows:
                continue
            if any(ln.count(",") != p - 1 for ln in rows):
                return None
            body = ",".join(rows)
            if '"' in body:
                return None
            cells = body.replace("\r", "").replace("\n", "").split(",")
            try:
                block = np.fromiter(map(float, map(na.get, cells, cells)), float, len(cells))
            except ValueError:
                return None
            if np.isinf(block).any() or np.count_nonzero(np.isnan(block)) != sum(
                map(cells.count, na)
            ):
                return None
            blocks.append(block)
    if not blocks:
        return None
    return header, np.concatenate(blocks).reshape(-1, p)


def _read_cells(path, na_marker: str) -> tuple[list[str], np.ndarray]:
    """:func:`read_matrix_csv` one ``csv`` row and one cell at a time."""
    try:
        with open(path, newline="", encoding=_ENCODING) as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: file is empty")
            if fault := _header_fault(header):
                raise DataError(f"{path}: {fault}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and row[0].strip() == ""):
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: ragged row at line {lineno}: expected "
                        f"{len(header)} fields, got {len(row)}"
                    )
                try:
                    rows.append([_parse_cell(v, na_marker) for v in row])
                except DataError as exc:
                    raise DataError(f"{path}: line {lineno}: {exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=float)


def _header_fault(header: list[str]) -> str | None:
    """What is wrong with ``header``'s first column with no name or a repeated one, or None."""
    for j, name in enumerate(header):
        if not name or header.index(name) < j:
            return f"column {j + 1} of the header: {f'duplicate {name!r}' if name else 'no name'}"
    return None


def read_fragmentary_csv(
    path,
    response: str,
    na_marker: str = NA_MARKER,
    add_intercept: bool = False,
) -> FragmentaryDataset:
    """Load a pattern-structured CSV into a :class:`FragmentaryDataset`.

    The header names the columns; ``response`` designates the (fully
    observed) response column; missing covariate cells are the empty
    string or ``na_marker``.
    """
    header, values = read_matrix_csv(path, na_marker)
    return matrix_to_dataset(path, header, values, response, add_intercept)


def matrix_to_dataset(
    path, header: list[str], values: np.ndarray, response: str, add_intercept: bool = False
) -> FragmentaryDataset:
    """The :func:`read_fragmentary_csv` dataset of ``read_matrix_csv(path)``'s result."""
    if response not in header:
        raise DataError(f"{path}: response column {response!r} not in header {header}")
    r = header.index(response)
    y = values[:, r]
    if not np.all(np.isfinite(y)):
        bad = np.flatnonzero(~np.isfinite(y))
        raise DataError(
            f"{path}: response has missing values at data rows {bad.tolist()}"
        )
    keep = [j for j in range(len(header)) if j != r]
    x = values[:, keep]
    names = [header[j] for j in keep]
    if add_intercept:
        if "intercept" in names:
            raise DataError("column 'intercept' already present; drop --add-intercept")
        x = np.column_stack([np.ones(x.shape[0]), x])
        names = ["intercept"] + names
    mask = np.isfinite(x)
    return FragmentaryDataset(y=y, x=x, mask=mask, column_names=names)


TRAINING_FILE = "training.npy"  # the matrix a fit saves beside its model.json


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read 64 KiB at a time.

    A 1 MiB chunk raised the peak RSS of a 6,000-row ``fit`` by 1.2 MB.
    """
    # imported here: OpenSSL costs 3.5 MB RSS and 4 ms of start-up, which
    # the commands that never hash (simulate, compare, screen) need not pay
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# The keys of :func:`save_matrix`'s record; a record with any other set is
# another layout, whose matrix and fits are not taken.
_RECORD_KEYS = {"csv_sha256", "npy_sha256", "na_marker", "header", "family"}


def save_matrix(
    npy_path, path, na_marker: str, header: list[str], values: np.ndarray, family: str
) -> dict:
    """Save ``read_matrix_csv(path, na_marker)``'s ``values`` as ``npy_path``.

    Returns the record :func:`reread_matrix_csv` checks: the SHA-256 of
    ``path``'s bytes and of the ``npy_path`` just written, the marker, the
    header and the name of the ``family`` that fits made on these values
    are fitted under.  ``np.save`` writes a fixed header and the raw bytes,
    nothing dated, so one input always gives the same file.
    """
    np.save(npy_path, values)
    return {
        "csv_sha256": file_sha256(path),
        "npy_sha256": file_sha256(npy_path),
        "na_marker": na_marker,
        "header": list(header),
        "family": family,
    }


def reread_matrix_csv(
    path, na_marker: str, record, npy_path, family: str
) -> tuple[list[str], np.ndarray, bool, str]:
    """:func:`read_matrix_csv`, taken from ``npy_path`` when ``record`` names both files.

    ``record`` is :func:`save_matrix`'s (or None).  Only when it has exactly
    that record's keys, ``na_marker`` is its marker, ``path`` hashes to its
    ``csv_sha256`` and ``npy_path`` to its ``npy_sha256`` is ``npy_path``
    opened (no pickles), and its matrix is used if the recorded header
    names each of its columns.  Otherwise ``path`` is parsed: a record of
    another layout, such as one naming no ``.npy`` digest, is not read.
    Returns the header, the values, whether the fits saved with ``record``
    apply to them (the values are the saved matrix and ``family`` is the
    recorded one), and a note naming where the values came from.
    """
    reason = _unsaved(path, na_marker, record, npy_path)
    if reason is None:
        values = np.load(npy_path, allow_pickle=False)
        header = record["header"]
        if isinstance(header, list) and values.shape[1:] == (len(header),):
            applies = record["family"] == family
            return header, values, applies, f"{npy_path}, saved from the same bytes as {path}"
        reason = f"the recorded header does not name {npy_path}'s columns"
    header, values = read_matrix_csv(path, na_marker)
    return header, values, False, f"parsed {path} ({reason})"


def _unsaved(path, na_marker: str, record, npy_path) -> str | None:
    """Why ``record`` does not name ``na_marker`` and both files' bytes; None when it does."""
    if not isinstance(record, dict):
        return "no record of a saved matrix"
    if record.keys() != _RECORD_KEYS:
        return "a record of another layout than a fit writes"
    if record["na_marker"] != na_marker:
        return "another missing-value marker than the saved one's"
    if record["csv_sha256"] != file_sha256(path):
        return "its bytes differ from those saved"
    try:
        if record["npy_sha256"] == file_sha256(npy_path):
            return None
    except OSError as exc:
        return f"{npy_path} unreadable: {exc}"
    return f"{npy_path} is not the file saved"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key repeated in one object is a DataError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DataError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def _load_json(fh):
    """``fh``'s JSON; a repeated key is a DataError, where ``json.load`` keeps its last value."""
    return json.load(fh, object_pairs_hook=_unique_keys)


def read_groups_sidecar(path, column_names: list[str]) -> dict[str, list[int]]:
    """Column-group declaration: JSON mapping group name -> list of column names.

    Wrapped as ``{"groups": {...}}`` or not: a list under ``groups`` is a
    group.  The file is UTF-8 (a leading byte-order mark is dropped).
    Invalid JSON, a key repeated in one object or any other shape, an empty
    group included, is a :class:`~fragma.errors.DataError` naming ``path``.
    """
    with open(path, encoding=_ENCODING) as fh:
        try:
            raw = _load_json(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
    if isinstance(raw, dict) and isinstance(raw.get("groups"), dict):
        raw = raw["groups"]
    if not isinstance(raw, dict):
        raise DataError(f"{path}: expected an object mapping group names to column lists")
    pos = {name: j for j, name in enumerate(column_names)}
    groups: dict[str, list[int]] = {}
    seen: dict[str, str] = {}  # column name -> the group that named it first
    for gname, cols in raw.items():
        if not isinstance(cols, list) or not all(isinstance(c, str) for c in cols):
            raise DataError(f"{path}: group {gname!r} is not a list of column names: {cols!r}")
        if not cols:
            raise DataError(f"{path}: group {gname!r} is empty")
        for c in cols:
            if c not in pos:
                raise DataError(f"{path}: group {gname!r} names unknown column {c!r}")
            if c in seen:
                where = f"twice in group {gname!r}" if seen[c] == gname else (
                    f"in more than one group: {seen[c]!r} and {gname!r}")
                raise DataError(f"{path}: column {c!r} appears {where}")
            seen[c] = gname
        groups[gname] = [pos[c] for c in cols]
    if not groups:
        raise DataError(f"{path}: no groups declared")
    return groups


def read_model(path) -> tuple[AveragedModel, dict | None]:
    """``path``'s model, read by ``AveragedModel.LAYOUT``, and its ``training`` record or None.

    The file is UTF-8 (a leading byte-order mark is dropped).  Invalid JSON,
    a key repeated in one object or a malformed or inconsistent model is a
    DataError naming ``path``.
    """
    try:
        with open(path, encoding=_ENCODING) as fh:
            saved = _load_json(fh)
        return AveragedModel.from_dict(saved), saved.get("training")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_predictions(path, rules, theta: np.ndarray, mean: np.ndarray) -> None:
    """The prediction table: ``row,rule,theta,mean``, one line per query row.

    Its bytes are those :func:`write_csv` writes under that header for the
    rows ``[i + 1, rules[i], f"{theta[i]:.17g}", f"{mean[i]:.17g}"]``: CRLF
    line ends, 17 significant digits, and a rule quoted as ``csv`` quotes
    it.  ``csv`` encodes each distinct rule once, and each line is one
    ``%``-format, which formats a float as ``format(v, ".17g")`` does.
    """
    fields = {rule: _csv_field(rule) for rule in set(rules)}
    lines = zip(range(1, len(theta) + 1), map(fields.__getitem__, rules),
                theta.tolist(), mean.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("row,rule,theta,mean\r\n")
        fh.writelines(map("%d,%s,%.17g,%.17g\r\n".__mod__, lines))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as a field of a longer row."""
    buf = StringIO()
    # a row of one empty field would be quoted, so write a second field
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue().removesuffix(",\r\n")


def format_cell(v: float, na_marker: str = NA_MARKER) -> str:
    return na_marker if not np.isfinite(v) else repr(float(v))
