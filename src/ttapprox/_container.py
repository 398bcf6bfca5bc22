"""The one binary container behind ".dten" and ".ttc".

A file is a head (a 4-byte magic, then any version byte), a u32 count
n > 0, a table of u64 entries, all non-zero, whose length the format
derives from n, then one array per shape the format derives from the
table: little-endian float64 in column-major order, one after the
other, with nothing after the last.

Format.read checks the table against the file size before it allocates
anything, reads each array straight into its own column-major memory
and raises ParseError with a byte offset on every failure;
Format.write refuses with InvalidArgumentError what read would reject.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .errors import InvalidArgumentError, ParseError


@dataclass(frozen=True)
class Format:
    name: str  # "dten", for messages
    head: bytes  # the magic, then any version byte
    table_len: Callable[[int], int]  # table entries for count n
    shapes: Callable[[int, List[int]], List[tuple]]  # array shapes for count n and the table
    entry: Callable[[int, int], str]  # what table entry i holds for count n

    def write(self, path, count: int, table: Sequence[int], arrays) -> None:
        if count < 1 or 0 in table:
            what = f"zero {self.entry(table.index(0), count)}" if count else "count of 0"
            raise InvalidArgumentError(f"a {self.name} file cannot hold a {what}")
        with open(path, "wb") as f:
            f.write(self.head + count.to_bytes(4, "little") + np.asarray(table, "<u8").tobytes())
            for a in arrays:
                # the transpose of a column-major array is C-contiguous, its
                # memory in file order: written without a copy
                f.write(np.asarray(a, "<f8", order="F").T)

    def read(self, path) -> List[np.ndarray]:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            head = f.read(len(self.head) + 4)  # with the count
            if head[:4] != self.head[:4]:
                raise ParseError(f"not a {self.name} file (bad magic)", offset=0)
            off = len(head)
            if off < len(self.head) + 4:
                raise ParseError("truncated count", offset=size)
            if head[:-4] != self.head:
                raise ParseError(f"unsupported version {head[4]}", offset=4)
            count = int.from_bytes(head[-4:], "little")
            if count == 0:
                raise ParseError("count must be positive", offset=len(self.head))
            n = self.table_len(count)
            if size < off + 8 * n:
                raise ParseError("truncated table", offset=size)
            table = [int(v) for v in np.frombuffer(f.read(8 * n), "<u8")]
            if 0 in table:
                i = table.index(0)
                raise ParseError(f"zero {self.entry(i, count)}", offset=off + 8 * i)
            # no entry is 0, so the size check bounds every shape before any allocation
            off += 8 * n
            shapes = self.shapes(count, table)
            end = off + 8 * sum(math.prod(s) for s in shapes)
            if size != end:
                raise ParseError(f"the table asks for {end} bytes, the file has {size}", offset=min(size, end))
            arrays = []
            for shape in shapes:
                a = np.empty(shape, "<f8", order="F")
                # a.T is the C-contiguous view of the same memory, filled in file order
                got = f.readinto(a.T)
                if got < a.nbytes:
                    raise ParseError("the file ends early", offset=off + got)
                off += got
                arrays.append(a)
        return arrays
