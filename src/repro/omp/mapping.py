"""Map clauses and the device data environment (present table).

OpenMP's device data environment associates host storage with corresponding
device storage and reference-counts the association: a ``map`` clause on a
construct increments the count on entry and decrements it on exit, and the
allocation / transfers only happen when the count transitions 0→1 or 1→0.
That reference counting is precisely what makes ``target data`` regions the
fix for the duplicate-transfer and repeated-allocation patterns, so it is
implemented faithfully here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.omp.device import DeviceAllocation
from repro.omp.errors import MappingError


def host_addr_of(array: np.ndarray) -> int:
    """The host virtual address of an array's buffer (its ``&a[0]``)."""
    if not isinstance(array, np.ndarray):
        raise TypeError(f"mapped variables must be numpy arrays, got {type(array).__name__}")
    return int(array.__array_interface__["data"][0])


class MapType(enum.Enum):
    """OpenMP map types (plus ``release``/``delete`` used on exit constructs)."""

    TO = "to"
    FROM = "from"
    TOFROM = "tofrom"
    ALLOC = "alloc"
    RELEASE = "release"
    DELETE = "delete"

    @property
    def copies_to_device(self) -> bool:
        return self in (MapType.TO, MapType.TOFROM)

    @property
    def copies_from_device(self) -> bool:
        return self in (MapType.FROM, MapType.TOFROM)

    @property
    def is_exit_only(self) -> bool:
        return self in (MapType.RELEASE, MapType.DELETE)


@dataclass(frozen=True)
class MapClause:
    """A single ``map(type: var)`` clause.

    ``always`` forces the copy even when the variable is already present
    (OpenMP's ``always`` map-type modifier); ``name`` is a debug label used
    in reports and has no semantic effect.
    """

    map_type: MapType
    array: np.ndarray = field(repr=False)
    always: bool = False
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.array, np.ndarray):
            raise TypeError("MapClause.array must be a numpy array")

    @property
    def host_addr(self) -> int:
        return host_addr_of(self.array)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    @property
    def label(self) -> str:
        return self.name or f"var@{self.host_addr:#x}"


# Convenience constructors so application code reads like OpenMP pragmas.
def to(array: np.ndarray, *, always: bool = False, name: str | None = None) -> MapClause:
    """``map(to: array)``"""
    return MapClause(MapType.TO, array, always=always, name=name)


def from_(array: np.ndarray, *, always: bool = False, name: str | None = None) -> MapClause:
    """``map(from: array)``"""
    return MapClause(MapType.FROM, array, always=always, name=name)


def tofrom(array: np.ndarray, *, always: bool = False, name: str | None = None) -> MapClause:
    """``map(tofrom: array)``"""
    return MapClause(MapType.TOFROM, array, always=always, name=name)


def alloc(array: np.ndarray, *, name: str | None = None) -> MapClause:
    """``map(alloc: array)``"""
    return MapClause(MapType.ALLOC, array, name=name)


def release(array: np.ndarray, *, name: str | None = None) -> MapClause:
    """``map(release: array)`` (for ``target exit data``)"""
    return MapClause(MapType.RELEASE, array, name=name)


def delete(array: np.ndarray, *, name: str | None = None) -> MapClause:
    """``map(delete: array)`` (for ``target exit data``)"""
    return MapClause(MapType.DELETE, array, name=name)


@dataclass
class PresentTableEntry:
    """One live association between host storage and device storage."""

    host_addr: int
    nbytes: int
    allocation: DeviceAllocation
    host_array: np.ndarray = field(repr=False)
    ref_count: int = 1
    #: label of the clause that created the mapping (reporting aid)
    name: Optional[str] = None

    @property
    def device_addr(self) -> int:
        return self.allocation.address

    @property
    def device_buffer(self) -> np.ndarray:
        buf = self.allocation.buffer
        if buf is None:
            raise MappingError(
                f"mapping of {self.name or hex(self.host_addr)} has no device buffer"
            )
        return buf


class DeviceDataEnvironment:
    """The present table for one target device."""

    def __init__(self, device_num: int) -> None:
        self.device_num = device_num
        self._entries: dict[int, PresentTableEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, host_addr: int) -> bool:
        return host_addr in self._entries

    def find(self, host_addr: int) -> Optional[PresentTableEntry]:
        """Present-table lookup by host base address."""
        return self._entries.get(host_addr)

    def find_array(self, array: np.ndarray) -> Optional[PresentTableEntry]:
        return self.find(host_addr_of(array))

    def insert(
        self,
        host_array: np.ndarray,
        allocation: DeviceAllocation,
        *,
        name: Optional[str] = None,
    ) -> PresentTableEntry:
        """Create a new association with a reference count of one."""
        host_addr = host_addr_of(host_array)
        if host_addr in self._entries:
            raise MappingError(
                f"device {self.device_num}: {name or hex(host_addr)} is already mapped"
            )
        entry = PresentTableEntry(
            host_addr=host_addr,
            nbytes=int(host_array.nbytes),
            allocation=allocation,
            host_array=host_array,
            ref_count=1,
            name=name,
        )
        self._entries[host_addr] = entry
        return entry

    def retain(self, entry: PresentTableEntry) -> int:
        """Increment the reference count (variable already present on entry)."""
        entry.ref_count += 1
        return entry.ref_count

    def release(self, entry: PresentTableEntry) -> int:
        """Decrement the reference count; the caller removes it at zero."""
        if entry.ref_count <= 0:
            raise MappingError(
                f"device {self.device_num}: release of {entry.name or hex(entry.host_addr)} "
                "with non-positive reference count"
            )
        entry.ref_count -= 1
        return entry.ref_count

    def remove(self, entry: PresentTableEntry) -> None:
        """Drop the association (after the device storage has been freed)."""
        existing = self._entries.get(entry.host_addr)
        if existing is not entry:
            raise MappingError(
                f"device {self.device_num}: removing an entry that is not in the present table"
            )
        if entry.ref_count != 0:
            raise MappingError(
                f"device {self.device_num}: removing {entry.name or hex(entry.host_addr)} "
                f"with reference count {entry.ref_count}"
            )
        del self._entries[entry.host_addr]

    def live_entries(self) -> list[PresentTableEntry]:
        return list(self._entries.values())
