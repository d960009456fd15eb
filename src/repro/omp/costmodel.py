"""Cost model for host/device transfers, device allocations and kernels.

The constants default to a PCIe-attached data-centre GPU roughly matching
the paper's A100-PCIE-40GB testbed: ~10 us transfer launch latency,
~12 GiB/s sustained host-to-device bandwidth (slightly higher device-to-host),
microsecond-scale allocation costs and a device memory system an order of
magnitude faster than the interconnect.  Absolute numbers do not need to
match the testbed — every evaluation result in the paper that we reproduce
is a ratio (slowdown, speedup, relative savings) — but the *relationships*
do: transfers must have a high startup cost and a bandwidth ceiling, small
transfers must be latency-bound, and kernel time must be able to dominate or
be dominated by data movement depending on the application.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TransferDirection(enum.Enum):
    """Direction of a host/device or device/device data transfer."""

    HOST_TO_DEVICE = "h2d"
    DEVICE_TO_HOST = "d2h"
    DEVICE_TO_DEVICE = "d2d"


_GIB = float(1 << 30)


@dataclass(frozen=True)
class CostModel:
    """Latency/bandwidth cost model used by the runtime simulator.

    All times are in seconds and all rates in bytes/second.
    """

    #: per-operation launch latency of a host-to-device copy
    h2d_latency: float = 10e-6
    #: sustained host-to-device copy bandwidth
    h2d_bandwidth: float = 11.0 * _GIB
    #: per-operation launch latency of a device-to-host copy
    d2h_latency: float = 10e-6
    #: sustained device-to-host copy bandwidth
    d2h_bandwidth: float = 12.5 * _GIB
    #: device-to-device (peer) copy latency and bandwidth
    d2d_latency: float = 8e-6
    d2d_bandwidth: float = 40.0 * _GIB
    #: device memory allocation: fixed driver cost plus a per-byte component
    alloc_latency: float = 6e-6
    alloc_bandwidth: float = 400.0 * _GIB
    #: device memory deallocation
    delete_latency: float = 4e-6
    delete_bandwidth: float = 800.0 * _GIB
    #: kernel launch overhead charged for every target region execution
    kernel_launch_latency: float = 8e-6
    #: effective device processing rate used when a kernel does not provide
    #: its own duration: bytes touched per second (memory-bandwidth bound)
    device_compute_rate: float = 900.0 * _GIB
    #: host-side processing rate used for host compute phases of applications
    host_compute_rate: float = 20.0 * _GIB

    def __post_init__(self) -> None:
        for name in (
            "h2d_bandwidth",
            "d2h_bandwidth",
            "d2d_bandwidth",
            "alloc_bandwidth",
            "delete_bandwidth",
            "device_compute_rate",
            "host_compute_rate",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "h2d_latency",
            "d2h_latency",
            "d2d_latency",
            "alloc_latency",
            "delete_latency",
            "kernel_launch_latency",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} cannot be negative")

    # ------------------------------------------------------------------ #
    def transfer_time(self, nbytes: int, direction: TransferDirection) -> float:
        """Duration of a data transfer of ``nbytes`` in ``direction``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if direction is TransferDirection.HOST_TO_DEVICE:
            return self.h2d_latency + nbytes / self.h2d_bandwidth
        if direction is TransferDirection.DEVICE_TO_HOST:
            return self.d2h_latency + nbytes / self.d2h_bandwidth
        if direction is TransferDirection.DEVICE_TO_DEVICE:
            return self.d2d_latency + nbytes / self.d2d_bandwidth
        raise ValueError(f"unknown transfer direction {direction!r}")

    def transfer_bandwidth(self, nbytes: int, direction: TransferDirection) -> float:
        """Effective bandwidth (bytes/s) of a transfer of ``nbytes``.

        Used by the Figure 5 reproduction to plot the transfer-throughput
        curve against hash throughput.
        """
        t = self.transfer_time(nbytes, direction)
        if t <= 0.0:
            return float("inf")
        return nbytes / t

    def alloc_time(self, nbytes: int) -> float:
        """Duration of a device memory allocation."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.alloc_latency + nbytes / self.alloc_bandwidth

    def delete_time(self, nbytes: int) -> float:
        """Duration of a device memory deallocation."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.delete_latency + nbytes / self.delete_bandwidth

    def default_kernel_time(self, bytes_touched: int) -> float:
        """Kernel duration estimate when the application provides none."""
        if bytes_touched < 0:
            raise ValueError("bytes_touched must be non-negative")
        return self.kernel_launch_latency + bytes_touched / self.device_compute_rate

    def host_compute_time(self, bytes_touched: int) -> float:
        """Duration of a host-side compute phase touching ``bytes_touched``."""
        if bytes_touched < 0:
            raise ValueError("bytes_touched must be non-negative")
        return bytes_touched / self.host_compute_rate


def default_cost_model() -> CostModel:
    """The cost model used throughout the evaluation harness."""
    return CostModel()
