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


def _write_lines(lines, target) -> None:
    """Write ``lines`` as ASCII, each ended by ``\\n`` on every platform.

    The one writer of every text output, to a path or an open handle.
    ``lines`` is the finished content, already checked in full; a path is
    opened, and so truncated, only here, so a refused or failed run leaves
    an existing file as it was.
    """
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="ascii", newline="") as handle:
            handle.writelines(line + "\n" for line in lines)
    else:
        target.writelines(line + "\n" for line in lines)


def write_fasta(records, target) -> None:
    """Write ``(name, sequence)`` pairs as FASTA to a path or open handle.

    Every record is checked before any is written.
    """
    records = list(records)
    for name, seq in records:
        if not name or not name.isascii() or any(ch.isspace() for ch in name):
            raise ValueError(f"record name must be nonempty ASCII without whitespace: {name!r}")
        _batch((seq,))
    lines = (
        line
        for name, seq in records
        for line in (f">{name}", *(seq[i : i + LINE_WIDTH] for i in range(0, len(seq), LINE_WIDTH)))
    )
    _write_lines(lines, target)


def _read_handle(handle: TextIO) -> list[tuple[str, str]]:
    records: list[tuple[str, list[str]]] = []
    for raw in handle:
        line = raw.strip()
        if line.startswith(">"):
            name = line[1:].split()
            if not name:
                raise ValueError("FASTA header has no name")
            records.append((name[0], []))
        elif line:
            if not records:
                raise ValueError(f"sequence data before any header: {line!r:.40}")
            records[-1][1].append(line)
    if not records:
        raise ValueError("no FASTA records found")
    joined = [(name, "".join(chunks)) for name, chunks in records]
    for _, seq in joined:
        _batch((seq,))
    return joined


def read_fasta(source) -> list[tuple[str, str]]:
    """Read FASTA records from a path or open handle as ``(name, sequence)``.

    Multi-line sequence bodies are joined; every sequence must be uppercase
    ACGT, so ``read_fasta`` of a ``write_fasta`` output is an identity.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii") as handle:
            return _read_handle(handle)
    return _read_handle(source)
