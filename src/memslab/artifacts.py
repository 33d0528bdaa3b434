"""The format of every file memslab writes, and the fingerprint digest.

CSV: a ``# config_fingerprint: <fp>`` line when a fingerprint is given, then
any further ``#`` lines (each ending in ``\\n``), then a header and rows from
``csv.writer`` (ending in ``\\r\\n``).  A float cell is ``repr(float(x))``,
so numpy scalars read back as plain floats; an integer cell is written as
is; ``None`` is an empty cell.  JSON: indent 2, sorted keys, a trailing
newline, and the fingerprint under ``config_fingerprint``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from numbers import Integral


def fingerprint(*parts: str | bytes) -> str:
    """First 16 hex digits of the sha256 digest of the concatenated parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()[:16]


def _cell(value):
    if value is None:
        return ""
    return value if isinstance(value, Integral) else repr(float(value))


def write_csv(path, header, rows, fingerprint: str = "", comments=()) -> None:
    with open(path, "w", newline="") as fh:
        if fingerprint:
            fh.write(f"# config_fingerprint: {fingerprint}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_node_table(path, mesh, fields: dict, fingerprint: str = "") -> None:
    """Node coordinates (``r``, or ``x, y``) followed by one column per field."""
    columns = {**mesh.coordinates, **fields}
    write_csv(path, list(columns), zip(*columns.values()), fingerprint)


def write_json(path, payload: dict, fingerprint: str = "") -> None:
    if fingerprint:
        payload = {**payload, "config_fingerprint": fingerprint}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
