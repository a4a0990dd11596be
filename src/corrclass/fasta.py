"""Minimal FASTA reading and writing for ACGT sequences.

Headers are ``>name`` lines; sequence data may wrap over several lines and
is joined on read.  Writing wraps at a fixed column so round trips through
a file reproduce the original sequences exactly.
"""

from __future__ import annotations

import os
from typing import TextIO

from .sequences import _batch

__all__ = ["read_fasta", "write_fasta"]

LINE_WIDTH = 70


def _write_handle(records, handle: TextIO) -> None:
    for name, seq in records:
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"record name must be nonempty without whitespace: {name!r}")
        _batch((seq,))
        handle.write(f">{name}\n")
        for start in range(0, len(seq), LINE_WIDTH):
            handle.write(seq[start : start + LINE_WIDTH] + "\n")


def write_fasta(records, target) -> None:
    """Write ``(name, sequence)`` pairs as FASTA to a path or open handle."""
    records = list(records)
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="ascii") as handle:
            _write_handle(records, handle)
    else:
        _write_handle(records, target)


def _read_handle(handle: TextIO) -> list[tuple[str, str]]:
    records: list[tuple[str, str]] = []
    name: str | None = None
    chunks: list[str] = []

    def flush() -> None:
        if name is None:
            return
        seq = "".join(chunks)
        _batch((seq,))
        records.append((name, seq))

    for raw in handle:
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            name = line[1:].split()[0] if line[1:].strip() else ""
            if not name:
                raise ValueError("FASTA header has no name")
            chunks = []
        else:
            if name is None:
                raise ValueError(f"sequence data before any header: {line!r:.40}")
            chunks.append(line)
    flush()
    if not records:
        raise ValueError("no FASTA records found")
    return records


def read_fasta(source) -> list[tuple[str, str]]:
    """Read FASTA records from a path or open handle as ``(name, sequence)``.

    Multi-line sequence bodies are joined; every sequence must be uppercase
    ACGT, so ``read_fasta`` of a ``write_fasta`` output is an identity.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii") as handle:
            return _read_handle(handle)
    return _read_handle(source)
