"""The one text format of every key-value artefact.

A record is ``key = value`` lines.  Floats are written with 17 significant
digits, enough to round-trip IEEE doubles bit-exactly; ints and strings via
``str``; ``None`` as nothing; a sequence as its items joined by spaces.  A
header that shares its file with a table prefixes each line with ``# ``, so
a reader of the table skips it as a comment.
"""

from __future__ import annotations

import numpy as np


def value(v) -> str:
    """One value in record form."""
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    if isinstance(v, (list, tuple, np.ndarray)):
        return " ".join(map(value, v))
    return str(v)


def header(pairs, table: bool = False) -> str:
    """``key = value`` lines, newline-terminated, for (key, value) pairs in order."""
    prefix = "# " if table else ""
    return "".join(f"{prefix}{key} = {value(v)}\n" for key, v in pairs)


def parse(text: str, keys, what: str) -> dict:
    """Strict inverse of ``header``: {key: raw value string}.

    Blank lines and ``#`` comments are skipped.  A line without ``=``, a key
    not in ``keys`` or a repeated key raises a ValueError naming the line
    and the key; ``what`` names the record in the message.
    """
    fields = {}
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"{what} line {n} is not 'key = value': {raw!r}")
        if key not in keys:
            raise ValueError(f"{what} line {n} has unknown field {key!r}; expected one of {' '.join(keys)}")
        if key in fields:
            raise ValueError(f"{what} line {n} repeats field {key!r}")
        fields[key] = val.strip()
    return fields
