"""Code-pointer registry mapping synthetic return addresses to source lines."""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass
from types import CodeType
from typing import Optional

#: Synthetic text-segment base; codeptr values look like plausible return
#: addresses, which keeps report formatting honest (hex, 12+ digits).
_TEXT_BASE = 0x0000_5555_5555_0000
#: Spacing between registered call sites.
_TEXT_STRIDE = 0x40


@dataclass(frozen=True)
class SourceLocation:
    """A resolved source location."""

    file: str
    line: int
    function: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line} ({self.function})"


class DebugInfoRegistry:
    """Bidirectional map between code pointers and source locations.

    One registry instance corresponds to one "binary": the runtime simulator
    owns one and registers every construct call site it executes.  Lookup can
    be disabled (``stripped=True``) to model a binary compiled without
    ``-g``, in which case :meth:`lookup` returns ``None`` for every pointer
    and reports fall back to raw addresses.
    """

    def __init__(self, *, stripped: bool = False) -> None:
        self.stripped = stripped
        self._by_location: dict[SourceLocation, int] = {}
        self._by_codeptr: dict[int, SourceLocation] = {}
        #: (id(code object), line) of a registered caller frame -> (the code
        #: object, its codeptr); holding the code object keeps its id unique
        self._by_frame: dict[tuple[int, int], tuple[CodeType, int]] = {}
        self._next = _TEXT_BASE
        #: common directory of the registered absolute files (None: stale)
        self._root: Optional[str] = None

    def __len__(self) -> int:
        return len(self._by_codeptr)

    def register(self, file: str, line: int, function: str) -> int:
        """Register a source location, returning its (stable) code pointer."""
        if line < 0:
            raise ValueError("line numbers cannot be negative")
        loc = SourceLocation(file=file, line=int(line), function=function)
        existing = self._by_location.get(loc)
        if existing is not None:
            return existing
        codeptr = self._next
        self._next += _TEXT_STRIDE
        self._by_location[loc] = codeptr
        self._by_codeptr[codeptr] = loc
        self._root = None
        return codeptr

    def register_caller(
        self, *, skip_modules: tuple[str, ...] = ("repro.omp", "repro.ompt", "contextlib")
    ) -> int:
        """Register the nearest stack frame outside the runtime simulator.

        This is how application call sites (the ``#pragma omp target`` lines
        of the simulated benchmarks) become code pointers without the
        applications having to pass explicit labels.  ``contextlib`` frames
        are skipped too, so a construct entered by a ``with`` block (a
        ``@contextmanager`` region such as ``runtime.target_data``) is
        attributed to the application's ``with`` line.  A call site seen
        before is answered from its frame's code object and line, without
        building its :class:`SourceLocation` again.
        """
        subpackages = tuple(m + "." for m in skip_modules)
        frame = inspect.currentframe()
        try:
            candidate = frame.f_back if frame is not None else None
            while candidate is not None:
                module = candidate.f_globals.get("__name__", "")
                if module not in skip_modules and not module.startswith(subpackages):
                    if module != __name__:
                        code = candidate.f_code
                        key = (id(code), candidate.f_lineno)
                        known = self._by_frame.get(key)
                        if known is not None:
                            return known[1]
                        codeptr = self.register(
                            file=code.co_filename,
                            line=candidate.f_lineno,
                            function=code.co_name,
                        )
                        self._by_frame[key] = (code, codeptr)
                        return codeptr
                candidate = candidate.f_back
        finally:
            del frame
        # Could not find an application frame; register a sentinel location.
        return self.register(file="<unknown>", line=0, function="<unknown>")

    def lookup(self, codeptr: Optional[int]) -> Optional[SourceLocation]:
        """Resolve a code pointer, or ``None`` if unknown / stripped."""
        if codeptr is None or self.stripped:
            return None
        return self._by_codeptr.get(codeptr)

    def display(self, location: SourceLocation) -> str:
        """``file:line (function)``, the file relative to the common
        directory of every registered absolute file.

        Call sites are registered with ``code.co_filename``, an absolute
        path, so the full path would make the same program's report differ
        between two checkouts.
        """
        if self._root is None:
            dirs = {
                os.path.dirname(loc.file)
                for loc in self._by_location
                if os.path.isabs(loc.file)
            }
            self._root = os.path.commonpath(sorted(dirs)) if dirs else ""
        file = location.file
        if self._root and os.path.isabs(file):
            file = os.path.relpath(file, self._root)
        return f"{file}:{location.line} ({location.function})"

    def locations(self) -> list[SourceLocation]:
        """All registered locations (deterministic order by code pointer)."""
        return [self._by_codeptr[ptr] for ptr in sorted(self._by_codeptr)]
