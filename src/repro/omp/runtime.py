"""The offload runtime simulator: ``target`` constructs over simulated devices.

Applications written against :class:`OffloadRuntime` look structurally like
OpenMP offload programs::

    rt = OffloadRuntime(num_devices=1)
    a = np.zeros(N)
    with rt.target_data(to(a)):                    # pragma omp target data map(to: a)
        rt.target(maps=[tofrom(s)], reads=[a, s],  # pragma omp target map(tofrom: s)
                  writes=[s], kernel=lambda dev: dev[s].__iadd__(dev[a].sum()))
    rt.finish()

Every construct drives the device data environment (present table), the
device allocator, the cost model and the virtual clock, and emits OMPT EMI
callback records.  Attached tools (OMPDataPerf's collector, the Arbalest
baseline) observe the program exclusively through those callbacks.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.dwarf.debuginfo import DebugInfoRegistry
from repro.events.records import DataOpKind, TargetKind
from repro.omp.clock import VirtualClock
from repro.omp.costmodel import CostModel, TransferDirection, default_cost_model
from repro.omp.device import Device
from repro.omp.errors import MappingError, UnmappedAccessError
from repro.omp.mapping import (
    DeviceDataEnvironment,
    MapClause,
    MapType,
    PresentTableEntry,
    host_addr_of,
    tofrom,
)
from repro.ompt.callbacks import (
    Endpoint,
    TargetDataOpRecord,
    TargetRecord,
    TargetSubmitRecord,
)
from repro.ompt.interface import OmptInterface

MapSpec = Union[MapClause, np.ndarray]
KernelFn = Callable[["DeviceView"], None]
KernelTime = Union[None, float, Callable[[int], float]]


@dataclass(frozen=True)
class KernelAccess:
    """A kernel's access to one mapped variable (read / write / read-write).

    This information is *not* available through OMPT — the paper is explicit
    that OMPDataPerf avoids the instrumentation that would be needed to
    observe it.  It is exposed only through the runtime's access-probe hook,
    which models the binary instrumentation used by Arbalest-Vec and by the
    ground-truth oracle in the test suite.
    """

    array: np.ndarray = field(repr=False)
    #: 'r' read, 'w' full write, 'rw' read-write, 'pw' partial write (the
    #: kernel writes only some elements of the buffer)
    mode: str = "r"

    def __post_init__(self) -> None:
        if self.mode not in ("r", "w", "rw", "pw"):
            raise ValueError("access mode must be 'r', 'w', 'rw' or 'pw'")

    @property
    def reads(self) -> bool:
        return "r" in self.mode and self.mode != "pw" or self.mode == "rw"

    @property
    def writes(self) -> bool:
        return self.mode in ("w", "rw", "pw")

    @property
    def full_write(self) -> bool:
        return self.mode in ("w", "rw")

    @property
    def host_addr(self) -> int:
        return host_addr_of(self.array)


@dataclass(frozen=True)
class KernelLaunchRecord:
    """Delivered to access probes when a kernel executes (instrumentation channel)."""

    target_id: int
    device_num: int
    codeptr_ra: Optional[int]
    start_time: float
    end_time: float
    accesses: tuple[KernelAccess, ...]
    name: Optional[str] = None


class DeviceView:
    """Kernel-side view of the device data environment.

    Indexing with a host array returns the corresponding *device* buffer; the
    kernel mutates that buffer, never the host array, so host and device
    copies genuinely diverge until a transfer synchronises them.
    """

    def __init__(self, environment: DeviceDataEnvironment) -> None:
        self._environment = environment

    def __getitem__(self, host_array: np.ndarray) -> np.ndarray:
        entry = self._environment.find_array(host_array)
        if entry is None:
            raise UnmappedAccessError(
                device_num=self._environment.device_num,
                host_addr=host_addr_of(host_array),
            )
        return entry.device_buffer


@dataclass
class TargetRegionHandle:
    """Returned by ``target_data`` context entry; mostly useful in tests."""

    target_id: int
    device_num: int
    clauses: tuple[MapClause, ...]


class OffloadRuntime:
    """Simulated OpenMP offload runtime (host + ``num_devices`` target devices)."""

    def __init__(
        self,
        num_devices: int = 1,
        *,
        cost_model: Optional[CostModel] = None,
        ompt: Optional[OmptInterface] = None,
        device_memory_capacity: int = 40 * (1 << 30),
        default_device: int = 0,
        program_name: Optional[str] = None,
        debug_info: Optional[DebugInfoRegistry] = None,
    ) -> None:
        if num_devices < 1:
            raise ValueError("the simulator requires at least one target device")
        if not 0 <= default_device < num_devices:
            raise ValueError("default_device out of range")
        self.num_devices = num_devices
        self.default_device = default_device
        self.program_name = program_name
        self.cost_model = cost_model or default_cost_model()
        self.ompt = ompt or OmptInterface()
        self.clock = VirtualClock()
        self.debug_info = debug_info or DebugInfoRegistry()
        self.devices: list[Device] = [
            Device.create(d, memory_capacity=device_memory_capacity) for d in range(num_devices)
        ]
        self.environments: list[DeviceDataEnvironment] = [
            DeviceDataEnvironment(d) for d in range(num_devices)
        ]
        self._next_target_id = 1
        self._next_host_op_id = 1
        self._access_probes: list[Callable[[KernelLaunchRecord], Optional[float]]] = []
        self._finished = False
        self.total_runtime: Optional[float] = None
        for d in range(num_devices):
            self.ompt.emit_device_initialize(d)

    # ------------------------------------------------------------------ #
    # Device helpers
    # ------------------------------------------------------------------ #
    @property
    def host_device_num(self) -> int:
        """The OpenMP initial-device number (the host)."""
        return self.num_devices

    def device(self, device_num: Optional[int] = None) -> Device:
        return self.devices[self._resolve_device(device_num)]

    def environment(self, device_num: Optional[int] = None) -> DeviceDataEnvironment:
        return self.environments[self._resolve_device(device_num)]

    def _resolve_device(self, device_num: Optional[int]) -> int:
        if device_num is None:
            return self.default_device
        if not 0 <= device_num < self.num_devices:
            raise ValueError(f"device {device_num} does not exist")
        return device_num

    def set_access_probe(self, probe: Callable[[KernelLaunchRecord], Optional[float]]) -> None:
        """Register an instrumentation probe observing kernel memory accesses.

        This models binary instrumentation (used by the Arbalest-Vec baseline
        and the ground-truth oracle), *not* OMPT; OMPDataPerf never uses it.
        The probe may return seconds of overhead to charge to the clock.
        """
        self._access_probes.append(probe)

    # ------------------------------------------------------------------ #
    # Internal event helpers
    # ------------------------------------------------------------------ #
    def _charge_overhead(self, seconds: float) -> None:
        if seconds:
            self.clock.charge_tool_overhead(seconds)

    def _new_target_id(self) -> int:
        tid = self._next_target_id
        self._next_target_id += 1
        return tid

    def _new_host_op_id(self) -> int:
        oid = self._next_host_op_id
        self._next_host_op_id += 1
        return oid

    def _emit_data_op(
        self,
        *,
        optype: DataOpKind,
        src_addr: int,
        src_device_num: int,
        dest_addr: int,
        dest_device_num: int,
        nbytes: int,
        duration: float,
        target_id: Optional[int],
        codeptr: Optional[int],
        payload: Optional[np.ndarray] = None,
        variable: Optional[str] = None,
    ) -> None:
        host_op_id = self._new_host_op_id()
        begin_time = self.clock.now
        begin = TargetDataOpRecord(
            endpoint=Endpoint.BEGIN,
            optype=optype,
            src_addr=src_addr,
            src_device_num=src_device_num,
            dest_addr=dest_addr,
            dest_device_num=dest_device_num,
            bytes=nbytes,
            target_id=target_id,
            host_op_id=host_op_id,
            codeptr_ra=codeptr,
            time=begin_time,
            payload=payload,
            variable=variable,
        )
        self._charge_overhead(self.ompt.emit_target_data_op(begin))
        start, end = self.clock.span(duration)
        end_record = TargetDataOpRecord(
            endpoint=Endpoint.END,
            optype=optype,
            src_addr=src_addr,
            src_device_num=src_device_num,
            dest_addr=dest_addr,
            dest_device_num=dest_device_num,
            bytes=nbytes,
            target_id=target_id,
            host_op_id=host_op_id,
            codeptr_ra=codeptr,
            time=end,
            start_time=start,
            end_time=end,
            payload=payload,
            variable=variable,
        )
        self._charge_overhead(self.ompt.emit_target_data_op(end_record))

    def _emit_target(
        self,
        *,
        endpoint: Endpoint,
        kind: TargetKind,
        device_num: int,
        target_id: int,
        codeptr: Optional[int],
        name: Optional[str],
    ) -> None:
        record = TargetRecord(
            endpoint=endpoint,
            kind=kind,
            device_num=device_num,
            target_id=target_id,
            codeptr_ra=codeptr,
            time=self.clock.now,
            name=name,
        )
        self._charge_overhead(self.ompt.emit_target(record))

    # ------------------------------------------------------------------ #
    # Mapping machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalize_maps(maps: Iterable[MapSpec]) -> list[MapClause]:
        clauses: list[MapClause] = []
        for spec in maps:
            if isinstance(spec, MapClause):
                clauses.append(spec)
            elif isinstance(spec, np.ndarray):
                clauses.append(tofrom(spec))
            else:
                raise TypeError(
                    f"map specification must be a MapClause or numpy array, got {type(spec).__name__}"
                )
        return clauses

    def _implicit_clauses(
        self,
        explicit: Sequence[MapClause],
        reads: Sequence[np.ndarray],
        writes: Sequence[np.ndarray],
        device_num: int,
    ) -> list[MapClause]:
        """OpenMP implicit data-mapping rules for referenced arrays.

        An array referenced by the kernel but not covered by an explicit map
        clause is implicitly mapped ``tofrom`` (the default for aggregate /
        pointer data).  If the array is already present in the device data
        environment only the reference count changes, which the normal enter
        path already handles.
        """
        explicit_addrs = {c.host_addr for c in explicit}
        seen: set[int] = set()
        implicit: list[MapClause] = []
        for arr in list(reads) + list(writes):
            addr = host_addr_of(arr)
            if addr in explicit_addrs or addr in seen:
                continue
            seen.add(addr)
            implicit.append(tofrom(arr, name=f"implicit@{addr:#x}"))
        return implicit

    def _map_enter(
        self,
        clause: MapClause,
        device_num: int,
        target_id: Optional[int],
        codeptr: Optional[int],
    ) -> PresentTableEntry:
        if clause.map_type.is_exit_only:
            raise MappingError(
                f"map({clause.map_type.value}: ...) is only valid on exit constructs"
            )
        env = self.environments[device_num]
        device = self.devices[device_num]
        entry = env.find(clause.host_addr)
        if entry is not None:
            env.retain(entry)
            if clause.always and clause.map_type.copies_to_device:
                self._transfer_to_device(entry, device_num, target_id, codeptr, clause.label)
            return entry

        # 0 -> 1 transition: allocate device storage, then copy if required.
        allocation = device.memory.allocate(clause.nbytes)
        allocation.buffer = np.empty_like(clause.array)
        entry = env.insert(clause.array, allocation, name=clause.name)
        self._emit_data_op(
            optype=DataOpKind.ALLOC,
            src_addr=clause.host_addr,
            src_device_num=self.host_device_num,
            dest_addr=allocation.address,
            dest_device_num=device_num,
            nbytes=clause.nbytes,
            duration=self.cost_model.alloc_time(clause.nbytes),
            target_id=target_id,
            codeptr=codeptr,
            variable=clause.label,
        )
        if clause.map_type.copies_to_device:
            self._transfer_to_device(entry, device_num, target_id, codeptr, clause.label)
        return entry

    def _map_exit(
        self,
        clause: MapClause,
        device_num: int,
        target_id: Optional[int],
        codeptr: Optional[int],
    ) -> None:
        env = self.environments[device_num]
        entry = env.find(clause.host_addr)
        if entry is None:
            # Releasing something that is not present is a no-op per the spec.
            return

        if clause.map_type is MapType.DELETE:
            entry.ref_count = 0
        else:
            remaining = env.release(entry)
            if remaining > 0:
                return

        # 1 -> 0 transition: copy back if requested, then free device storage.
        if clause.map_type.copies_from_device:
            self._transfer_from_device(entry, device_num, target_id, codeptr, clause.label)
        self._delete_mapping(entry, device_num, target_id, codeptr, clause.label)

    def _transfer_to_device(
        self,
        entry: PresentTableEntry,
        device_num: int,
        target_id: Optional[int],
        codeptr: Optional[int],
        label: Optional[str],
    ) -> None:
        payload = np.array(entry.host_array, copy=True)
        entry.device_buffer[...] = payload
        self._emit_data_op(
            optype=DataOpKind.TRANSFER_TO_DEVICE,
            src_addr=entry.host_addr,
            src_device_num=self.host_device_num,
            dest_addr=entry.device_addr,
            dest_device_num=device_num,
            nbytes=entry.nbytes,
            duration=self.cost_model.transfer_time(entry.nbytes, TransferDirection.HOST_TO_DEVICE),
            target_id=target_id,
            codeptr=codeptr,
            payload=payload,
            variable=label,
        )

    def _transfer_from_device(
        self,
        entry: PresentTableEntry,
        device_num: int,
        target_id: Optional[int],
        codeptr: Optional[int],
        label: Optional[str],
    ) -> None:
        payload = np.array(entry.device_buffer, copy=True)
        entry.host_array[...] = payload
        self._emit_data_op(
            optype=DataOpKind.TRANSFER_FROM_DEVICE,
            src_addr=entry.device_addr,
            src_device_num=device_num,
            dest_addr=entry.host_addr,
            dest_device_num=self.host_device_num,
            nbytes=entry.nbytes,
            duration=self.cost_model.transfer_time(entry.nbytes, TransferDirection.DEVICE_TO_HOST),
            target_id=target_id,
            codeptr=codeptr,
            payload=payload,
            variable=label,
        )

    def _delete_mapping(
        self,
        entry: PresentTableEntry,
        device_num: int,
        target_id: Optional[int],
        codeptr: Optional[int],
        label: Optional[str],
    ) -> None:
        env = self.environments[device_num]
        device = self.devices[device_num]
        device.memory.free(entry.device_addr)
        self._emit_data_op(
            optype=DataOpKind.DELETE,
            src_addr=entry.host_addr,
            src_device_num=self.host_device_num,
            dest_addr=entry.device_addr,
            dest_device_num=device_num,
            nbytes=entry.nbytes,
            duration=self.cost_model.delete_time(entry.nbytes),
            target_id=target_id,
            codeptr=codeptr,
            variable=label,
        )
        env.remove(entry)

    # ------------------------------------------------------------------ #
    # Constructs
    # ------------------------------------------------------------------ #
    def target(
        self,
        *,
        maps: Iterable[MapSpec] = (),
        reads: Sequence[np.ndarray] = (),
        writes: Sequence[np.ndarray] = (),
        partial_writes: Sequence[np.ndarray] = (),
        kernel: Optional[KernelFn] = None,
        kernel_time: KernelTime = None,
        device_num: Optional[int] = None,
        name: Optional[str] = None,
        teams: int = 0,
    ) -> None:
        """Execute a ``target`` region (map entry, kernel, map exit).

        ``reads`` / ``writes`` / ``partial_writes`` declare the host arrays
        the kernel touches; they drive the implicit-mapping rules and the
        instrumentation probe (a *partial* write covers only some elements
        of the buffer — the distinction matters to correctness checkers, not
        to OMPDataPerf).  ``kernel`` receives a :class:`DeviceView`;
        ``kernel_time`` overrides the cost-model estimate of the kernel's
        duration (a float in seconds or a callable of the number of mapped
        bytes).
        """
        self._check_not_finished()
        dev = self._resolve_device(device_num)
        codeptr = self.debug_info.register_caller()
        target_id = self._new_target_id()
        explicit = self._normalize_maps(maps)
        implicit = self._implicit_clauses(
            explicit, list(reads) + list(partial_writes), writes, dev
        )
        clauses = explicit + implicit

        self._emit_target(
            endpoint=Endpoint.BEGIN,
            kind=TargetKind.TARGET,
            device_num=dev,
            target_id=target_id,
            codeptr=codeptr,
            name=name,
        )
        entries = [self._map_enter(c, dev, target_id, codeptr) for c in clauses]
        self._run_kernel(
            device_num=dev,
            target_id=target_id,
            codeptr=codeptr,
            kernel=kernel,
            kernel_time=kernel_time,
            reads=reads,
            writes=writes,
            partial_writes=partial_writes,
            entries=entries,
            teams=teams,
            name=name,
        )
        for clause in reversed(clauses):
            self._map_exit(clause, dev, target_id, codeptr)
        self._emit_target(
            endpoint=Endpoint.END,
            kind=TargetKind.TARGET,
            device_num=dev,
            target_id=target_id,
            codeptr=codeptr,
            name=name,
        )

    def _run_kernel(
        self,
        *,
        device_num: int,
        target_id: int,
        codeptr: Optional[int],
        kernel: Optional[KernelFn],
        kernel_time: KernelTime,
        reads: Sequence[np.ndarray],
        writes: Sequence[np.ndarray],
        partial_writes: Sequence[np.ndarray],
        entries: Sequence[PresentTableEntry],
        teams: int,
        name: Optional[str],
    ) -> None:
        device = self.devices[device_num]
        env = self.environments[device_num]
        host_op_id = self._new_host_op_id()

        submit_begin = TargetSubmitRecord(
            endpoint=Endpoint.BEGIN,
            device_num=device_num,
            target_id=target_id,
            host_op_id=host_op_id,
            requested_num_teams=teams,
            time=self.clock.now,
        )
        self._charge_overhead(self.ompt.emit_target_submit(submit_begin))

        view = DeviceView(env)
        if kernel is not None:
            kernel(view)
        device.kernels_launched += 1

        bytes_touched = sum(e.nbytes for e in entries)
        if kernel_time is None:
            duration = self.cost_model.default_kernel_time(bytes_touched)
        elif callable(kernel_time):
            duration = float(kernel_time(bytes_touched))
        else:
            duration = float(kernel_time)
        if duration < 0.0:
            raise ValueError("kernel_time must be non-negative")
        start, end = self.clock.span(duration)

        submit_end = TargetSubmitRecord(
            endpoint=Endpoint.END,
            device_num=device_num,
            target_id=target_id,
            host_op_id=host_op_id,
            requested_num_teams=teams,
            time=end,
            start_time=start,
            end_time=end,
        )
        self._charge_overhead(self.ompt.emit_target_submit(submit_end))

        if self._access_probes:
            accesses = tuple(
                [KernelAccess(arr, "r") for arr in reads]
                + [KernelAccess(arr, "w") for arr in writes]
                + [KernelAccess(arr, "pw") for arr in partial_writes]
            )
            record = KernelLaunchRecord(
                target_id=target_id,
                device_num=device_num,
                codeptr_ra=codeptr,
                start_time=start,
                end_time=end,
                accesses=accesses,
                name=name,
            )
            for probe in self._access_probes:
                overhead = probe(record)
                if overhead:
                    self.clock.advance(float(overhead))

    @contextlib.contextmanager
    def target_data(
        self,
        *maps: MapSpec,
        device_num: Optional[int] = None,
        name: Optional[str] = None,
    ):
        """``target data`` region: maps live for the duration of the ``with`` block."""
        self._check_not_finished()
        dev = self._resolve_device(device_num)
        codeptr = self.debug_info.register_caller()
        target_id = self._new_target_id()
        clauses = self._normalize_maps(maps)

        self._emit_target(
            endpoint=Endpoint.BEGIN,
            kind=TargetKind.ENTER_DATA,
            device_num=dev,
            target_id=target_id,
            codeptr=codeptr,
            name=name,
        )
        for clause in clauses:
            self._map_enter(clause, dev, target_id, codeptr)
        self._emit_target(
            endpoint=Endpoint.END,
            kind=TargetKind.ENTER_DATA,
            device_num=dev,
            target_id=target_id,
            codeptr=codeptr,
            name=name,
        )
        try:
            yield TargetRegionHandle(target_id=target_id, device_num=dev, clauses=tuple(clauses))
        finally:
            exit_id = self._new_target_id()
            self._emit_target(
                endpoint=Endpoint.BEGIN,
                kind=TargetKind.EXIT_DATA,
                device_num=dev,
                target_id=exit_id,
                codeptr=codeptr,
                name=name,
            )
            for clause in reversed(clauses):
                self._map_exit(clause, dev, exit_id, codeptr)
            self._emit_target(
                endpoint=Endpoint.END,
                kind=TargetKind.EXIT_DATA,
                device_num=dev,
                target_id=exit_id,
                codeptr=codeptr,
                name=name,
            )

    def target_enter_data(
        self,
        *maps: MapSpec,
        device_num: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        """``target enter data``: establish mappings that persist until exit data."""
        self._check_not_finished()
        dev = self._resolve_device(device_num)
        codeptr = self.debug_info.register_caller()
        target_id = self._new_target_id()
        clauses = self._normalize_maps(maps)
        self._emit_target(
            endpoint=Endpoint.BEGIN,
            kind=TargetKind.ENTER_DATA,
            device_num=dev,
            target_id=target_id,
            codeptr=codeptr,
            name=name,
        )
        for clause in clauses:
            if clause.map_type in (MapType.FROM, MapType.RELEASE, MapType.DELETE):
                raise MappingError(
                    f"map({clause.map_type.value}: ...) is not valid on target enter data"
                )
            self._map_enter(clause, dev, target_id, codeptr)
        self._emit_target(
            endpoint=Endpoint.END,
            kind=TargetKind.ENTER_DATA,
            device_num=dev,
            target_id=target_id,
            codeptr=codeptr,
            name=name,
        )

    def target_exit_data(
        self,
        *maps: MapSpec,
        device_num: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        """``target exit data``: tear down mappings established by enter data."""
        self._check_not_finished()
        dev = self._resolve_device(device_num)
        codeptr = self.debug_info.register_caller()
        target_id = self._new_target_id()
        clauses = self._normalize_maps(maps)
        self._emit_target(
            endpoint=Endpoint.BEGIN,
            kind=TargetKind.EXIT_DATA,
            device_num=dev,
            target_id=target_id,
            codeptr=codeptr,
            name=name,
        )
        for clause in clauses:
            if clause.map_type in (MapType.TO, MapType.TOFROM, MapType.ALLOC):
                raise MappingError(
                    f"map({clause.map_type.value}: ...) is not valid on target exit data"
                )
            self._map_exit(clause, dev, target_id, codeptr)
        self._emit_target(
            endpoint=Endpoint.END,
            kind=TargetKind.EXIT_DATA,
            device_num=dev,
            target_id=target_id,
            codeptr=codeptr,
            name=name,
        )

    def target_update(
        self,
        *,
        to: Sequence[np.ndarray] = (),
        from_: Sequence[np.ndarray] = (),
        device_num: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        """``target update``: refresh device or host copies of present variables."""
        self._check_not_finished()
        if not to and not from_:
            raise MappingError("target update requires at least one to/from motion clause")
        dev = self._resolve_device(device_num)
        codeptr = self.debug_info.register_caller()
        target_id = self._new_target_id()
        env = self.environments[dev]

        self._emit_target(
            endpoint=Endpoint.BEGIN,
            kind=TargetKind.UPDATE,
            device_num=dev,
            target_id=target_id,
            codeptr=codeptr,
            name=name,
        )
        for arr in to:
            entry = env.find_array(arr)
            if entry is None:
                raise MappingError("target update to(...) of a variable that is not mapped")
            self._transfer_to_device(entry, dev, target_id, codeptr, entry.name)
        for arr in from_:
            entry = env.find_array(arr)
            if entry is None:
                raise MappingError("target update from(...) of a variable that is not mapped")
            self._transfer_from_device(entry, dev, target_id, codeptr, entry.name)
        self._emit_target(
            endpoint=Endpoint.END,
            kind=TargetKind.UPDATE,
            device_num=dev,
            target_id=target_id,
            codeptr=codeptr,
            name=name,
        )

    # ------------------------------------------------------------------ #
    # Host-side phases and program end
    # ------------------------------------------------------------------ #
    def host_compute(
        self,
        *,
        seconds: Optional[float] = None,
        nbytes: Optional[int] = None,
    ) -> None:
        """Charge a host-side (CPU) compute phase to the clock.

        Applications use this for their serial phases (initialisation,
        verification, host-side updates between kernels) so that the virtual
        runtime reflects the whole program, not just the offloaded part.
        """
        self._check_not_finished()
        if (seconds is None) == (nbytes is None):
            raise ValueError("provide exactly one of seconds or nbytes")
        duration = float(seconds) if seconds is not None else self.cost_model.host_compute_time(int(nbytes))
        if duration < 0.0:
            raise ValueError("host compute time must be non-negative")
        self.clock.advance(duration)

    def finish(self) -> float:
        """End the program: finalize devices and tools, freeze the runtime clock."""
        if self._finished:
            return self.total_runtime or self.clock.now
        live = [
            (d, entry)
            for d, env in enumerate(self.environments)
            for entry in env.live_entries()
        ]
        if live:
            names = ", ".join(entry.name or hex(entry.host_addr) for _, entry in live)
            raise MappingError(f"program finished with live device mappings: {names}")
        for d in range(self.num_devices):
            self.ompt.emit_device_finalize(d)
        self.ompt.finalize_tools()
        self._finished = True
        self.total_runtime = self.clock.now
        return self.total_runtime

    def _check_not_finished(self) -> None:
        if self._finished:
            raise RuntimeError("the runtime has already finished")
