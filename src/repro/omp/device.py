"""Target device model: memory pool, allocator and device-side buffers.

Each simulated device owns a :class:`DeviceMemoryPool`.  Allocations return
synthetic device addresses; the pool also stores the device-side *contents*
(as numpy arrays), because the runtime must be able to produce the exact
bytes a device-to-host transfer would move — that is what makes round-trip
detection (unchanged content hashing to the same value) come out naturally
rather than by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.omp.errors import MappingError, OutOfDeviceMemoryError

#: Base of the synthetic device address space.  Device ``d`` allocates from
#: ``_DEVICE_ADDR_BASE + d * _DEVICE_ADDR_STRIDE`` so addresses never collide
#: across devices (useful when debugging multi-GPU traces).
_DEVICE_ADDR_BASE = 0x7F00_0000_0000
_DEVICE_ADDR_STRIDE = 0x0100_0000_0000
#: Allocation granularity (the CUDA allocator rounds to 256-byte lines).
_ALLOC_ALIGNMENT = 256


@dataclass
class DeviceAllocation:
    """A live allocation on a device."""

    address: int
    nbytes: int
    #: device-side copy of the mapped data (dtype/shape of the host array)
    buffer: Optional[np.ndarray] = None


class DeviceMemoryPool:
    """A simple aligned allocator with address reuse after free.

    The reuse behaviour matters for realism: device allocators commonly hand
    back the address that was just freed when the request size matches, which
    is exactly the situation in which Algorithm 3 needs the allocation *size*
    in its key to avoid conflating different variables mapped to the same
    device address over time.
    """

    def __init__(self, device_num: int, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("device memory capacity must be positive")
        self.device_num = device_num
        self.capacity = capacity
        self.used = 0
        self.peak_used = 0
        self._next_addr = _DEVICE_ADDR_BASE + device_num * _DEVICE_ADDR_STRIDE
        self._live: dict[int, DeviceAllocation] = {}
        self._free_by_size: dict[int, list[int]] = {}
        self.total_allocs = 0
        self.total_frees = 0

    # ------------------------------------------------------------------ #
    @staticmethod
    def _aligned(nbytes: int) -> int:
        if nbytes <= 0:
            return _ALLOC_ALIGNMENT
        return ((nbytes + _ALLOC_ALIGNMENT - 1) // _ALLOC_ALIGNMENT) * _ALLOC_ALIGNMENT

    def allocate(self, nbytes: int) -> DeviceAllocation:
        """Allocate ``nbytes`` and return the live allocation record."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        padded = self._aligned(nbytes)
        if self.used + padded > self.capacity:
            raise OutOfDeviceMemoryError(
                requested=padded,
                available=self.capacity - self.used,
                device_num=self.device_num,
            )
        free_list = self._free_by_size.get(padded)
        if free_list:
            addr = free_list.pop()
        else:
            addr = self._next_addr
            self._next_addr += padded
        alloc = DeviceAllocation(address=addr, nbytes=nbytes)
        self._live[addr] = alloc
        self.used += padded
        self.peak_used = max(self.peak_used, self.used)
        self.total_allocs += 1
        return alloc

    def free(self, address: int) -> DeviceAllocation:
        """Free a live allocation, making its address reusable."""
        alloc = self._live.pop(address, None)
        if alloc is None:
            raise MappingError(
                f"device {self.device_num}: free of unknown address {address:#x}"
            )
        padded = self._aligned(alloc.nbytes)
        self.used -= padded
        self._free_by_size.setdefault(padded, []).append(address)
        self.total_frees += 1
        return alloc

    def lookup(self, address: int) -> DeviceAllocation:
        alloc = self._live.get(address)
        if alloc is None:
            raise MappingError(
                f"device {self.device_num}: access to unallocated address {address:#x}"
            )
        return alloc

    @property
    def available(self) -> int:
        return self.capacity - self.used


@dataclass
class Device:
    """A target device: number, memory pool and bookkeeping counters."""

    device_num: int
    memory: DeviceMemoryPool
    name: str = "simulated-gpu"
    #: count of kernels executed on this device
    kernels_launched: int = field(default=0)

    @classmethod
    def create(
        cls,
        device_num: int,
        *,
        memory_capacity: int = 40 * (1 << 30),
        name: str = "simulated-gpu",
    ) -> "Device":
        return cls(
            device_num=device_num,
            memory=DeviceMemoryPool(device_num, memory_capacity),
            name=name,
        )
