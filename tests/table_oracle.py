"""Line-by-line CSV table reader: the one ``dispersion._read_table`` replaced.

Every line goes through one Python loop, and ``_parse_rows`` parses the
stripped rows.  Kept here as the oracle of the reader's differential test;
the package itself parses the body whole and goes line by line only where
that parse fails.
"""

from pathlib import Path

import numpy as np

from sawkit.errors import FormatError


def _parse_rows(rows: list[str], n: int, positive: bool) -> np.ndarray | None:
    """``rows`` as ``n`` columns, or None unless each holds n finite (positive) numbers."""
    if not rows:
        return np.empty((n, 0))
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2).T
    except ValueError:
        return None
    ok = data.shape[0] == n and np.isfinite(data).all() and (not positive or (data > 0).all())
    return data if ok else None


def read_table(path, headers: tuple[str, ...], positive: bool = False):
    """Read a CSV exchange file into ``(header, columns, meta)``.

    Blank lines are skipped, and ``# key=value`` lines anywhere go into
    ``meta``.  The first other line must be one of ``headers``; each later
    one must hold as many finite numbers (positive ones if ``positive``) as
    the header has columns.  ``columns`` holds one array per column.  Faults
    raise ``FormatError`` naming ``path``; row faults carry the file line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    expected = " or ".join(map(repr, headers))
    meta: dict[str, str] = {}
    header = None
    rows, linenos = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif header is not None:
            rows.append(line)
            linenos.append(lineno)
        elif line in headers:
            header = line
        else:
            raise FormatError(f"{path}: line {lineno}: bad header {line!r}, expected {expected}",
                              line=lineno)
    if header is None:
        raise FormatError(f"{path}: no column header, expected {expected}")
    n = header.count(",") + 1
    columns = _parse_rows(rows, n, positive)
    if columns is None:  # find the first bad row, one line at a time
        i = next(i for i, row in enumerate(rows) if _parse_rows([row], n, positive) is None)
        kind = "positive finite" if positive else "finite"
        raise FormatError(f"{path}: line {linenos[i]}: expected {n} {kind} numbers, "
                          f"got {rows[i]!r}", line=linenos[i])
    return header, columns, meta
