"""Streaming row storage: content-addressed, chunked JSONL row files.

The PR-1 engine returned every job's rows *in memory* to the supervising
process, so a sweep's peak RSS grew with (cells × rows-per-cell) — fine
for five figures, fatal for a million-cell grid.  This module is the
disk-backed alternative the executor backends share:

- **Writers** (forked local-pool workers, or the supervising process on
  the serial backend) split a job's
  rows into chunks of :data:`DEFAULT_CHUNK_ROWS` JSON lines and write
  them *content-addressed* — ``<root>/<key[:2]>/<key>.rows-00000.jsonl``,
  the same two-level fan-out and the same SHA-256 job key as
  :class:`~repro.runner.cache.ResultCache` entries — so any host writing
  into a shared store lands chunks in a collision-free, resumable spot.
  Chunks are written atomically (temp file + ``os.replace``).

- **Readers** get a :class:`LazyRows`: a sequence-shaped view over the
  chunk files that streams on iteration and never holds more than one
  row in memory, yet renders (``to_csv``/``to_json``/``to_table``) and
  compares like the eager :class:`~repro.figures.Rows` it replaces.

Chunk files are valid JSONL (one row object per line), so external
tooling — ``jq``, a Spark reader, a future SSH backend's rsync — can
consume them without this module.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..figures import Rows

#: Rows per chunk file when the caller does not choose.  Small enough to
#: bound writer memory and stream early, large enough to keep file counts
#: and per-chunk open() overhead negligible.
DEFAULT_CHUNK_ROWS = 256

#: ``<key>.rows-<index>.jsonl`` — index width fixed for stable sorting.
_CHUNK_DIGITS = 5


def chunk_name(key: str, index: int) -> str:
    """File name of chunk ``index`` of job ``key``."""
    return f"{key}.rows-{index:0{_CHUNK_DIGITS}d}.jsonl"


def chunk_dir(root: Path | str, key: str) -> Path:
    """Directory holding job ``key``'s chunks (two-level fan-out)."""
    return Path(root) / key[:2]


def write_row_chunks(
    root: Path | str,
    key: str,
    rows: Iterable[dict[str, Any]],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> tuple[list[Path], int]:
    """Write ``rows`` as chunked JSONL under ``root``; returns (paths, count).

    Consumes ``rows`` exactly once and holds at most ``chunk_rows`` rows
    in memory, so a generator-producing figure streams straight to disk.
    Each chunk is written atomically; a crashed writer leaves at most a
    ``*.tmp.<pid>`` file behind, never a truncated chunk.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    directory = chunk_dir(root, key)
    directory.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    count = 0
    iterator = iter(rows)
    for index in itertools.count():
        chunk = list(itertools.islice(iterator, chunk_rows))
        if not chunk:
            break
        path = directory / chunk_name(key, index)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("w") as handle:
            for row in chunk:
                handle.write(json.dumps(row, separators=(",", ":")))
                handle.write("\n")
        os.replace(tmp, path)
        paths.append(path)
        count += len(chunk)
    return paths, count


def iter_chunk_rows(paths: Iterable[Path | str]) -> Iterator[dict[str, Any]]:
    """Stream rows from chunk files in order, one row in memory at a time."""
    for path in paths:
        with Path(path).open() as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)


class LazyRows:
    """A read-only, disk-backed stand-in for :class:`~repro.figures.Rows`.

    Iterating streams rows from the chunk files; ``len`` comes from the
    recorded count, so neither touches more than one chunk line at a
    time.  Rendering helpers mirror :class:`Rows`; ``to_csv``/``to_json``
    stream, ``to_table`` materializes (column widths need every row —
    tables are for humans and small results).  Equality materializes both
    sides, which keeps test assertions like ``rows == [...]`` working.
    """

    def __init__(self, paths: Iterable[Path | str], count: int) -> None:
        self.paths = [Path(p) for p in paths]
        self._count = int(count)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter_chunk_rows(self.paths)

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __getitem__(self, index: int) -> dict[str, Any]:
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(index)
        for position, row in enumerate(self):
            if position == index:
                return row
        raise IndexError(index)  # pragma: no cover - count/files mismatch

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (LazyRows, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"LazyRows({self._count} rows in {len(self.paths)} chunk(s))"
        )

    def materialize(self) -> Rows:
        """Load every row into an eager :class:`Rows` (memory-unbounded)."""
        return Rows(self)

    # -- rendering (mirrors Rows) -----------------------------------------

    def to_csv(self) -> str:
        """Render as CSV text with a header row, streaming chunk by chunk."""
        iterator = iter(self)
        first = next(iterator, None)
        if first is None:
            return ""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(first.keys()))
        writer.writeheader()
        writer.writerow(first)
        writer.writerows(iterator)
        return buffer.getvalue()

    def to_json(self, indent: int | None = None) -> str:
        """Render as a JSON array of objects."""
        return json.dumps(list(self), indent=indent)

    def to_table(self) -> str:
        """Render as an aligned text table (materializes)."""
        return self.materialize().to_table()

    def render(self, fmt: str) -> str:
        """Render in one of :data:`repro.figures.FORMATS`."""
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json(indent=2)
        return self.materialize().render(fmt)
