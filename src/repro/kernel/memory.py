"""Paged virtual address spaces with VMA bookkeeping.

The memory model mirrors what CRIU sees through ``/proc/pid/maps`` and
``/proc/pid/pagemap``:

* an :class:`AddressSpace` is a sparse set of 4 KiB pages plus a sorted
  list of :class:`VMA` regions carrying permissions and (optionally)
  file-backing metadata;
* a page table maps every mapped page index to the VMA covering it.
  ``mmap``, ``munmap``, ``mprotect`` and construction (so ``clone`` and
  CRIU restore too) keep it in step with the VMA list, so finding the
  VMA of an address is one dictionary probe;
* permission checks distinguish read/write/execute, so executing an
  unmapped or non-executable address faults exactly like on Linux.
  ``read``, ``write`` and ``fetch`` serve an access that stays inside
  one page with one table probe, one permission test and one slice;
  anything else (a page-straddling access, or one that faults) takes
  the checked page walk, which raises every :class:`MemoryFault`;
* ``code_epoch`` moves only when executable memory changes, and the
  CPU's decode cache is keyed on it.  It is bumped by a store of at
  least one byte that touches an executable page (guest ``write`` or
  kernel ``write_raw``: this is what makes an ``int3`` patched into a
  restored image take effect immediately), by mapping or unmapping an
  executable VMA, and by an ``mprotect`` whose range overlaps a VMA
  that is executable before or after the change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

PAGE_SIZE = 4096
PAGE_SHIFT = 12
_PAGE_MASK = PAGE_SIZE - 1


class MemoryFault(Exception):
    """An access violation; the kernel turns this into SIGSEGV."""

    def __init__(self, address: int, access: str, reason: str):
        super().__init__(f"{access} fault at {address:#x}: {reason}")
        self.address = address
        self.access = access
        self.reason = reason


@dataclass(frozen=True)
class FileBacking:
    """File-backing metadata for a VMA (the ``/proc/maps`` file column)."""

    path: str          # binary or library name in the kernel binary registry
    offset: int        # offset of the VMA start within that file's image
    private: bool = True


@dataclass
class VMA:
    """A virtual memory area: ``[start, end)`` with permissions."""

    start: int
    end: int
    perms: str                      # "rwx" subset, e.g. "r-x"
    backing: FileBacking | None = None
    tag: str = ""                   # human-readable label ("stack", "[heap]")

    def __post_init__(self) -> None:
        if self.start % PAGE_SIZE or self.end % PAGE_SIZE:
            raise ValueError(
                f"VMA [{self.start:#x}, {self.end:#x}) is not page aligned"
            )
        if self.end <= self.start:
            raise ValueError("empty VMA")

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def readable(self) -> bool:
        return "r" in self.perms

    @property
    def writable(self) -> bool:
        return "w" in self.perms

    @property
    def executable(self) -> bool:
        return "x" in self.perms

    @property
    def is_file_private(self) -> bool:
        return self.backing is not None and self.backing.private

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end

    def describe(self) -> str:
        backing = self.backing.path if self.backing else "anon"
        label = f" {self.tag}" if self.tag else ""
        return f"{self.start:#014x}-{self.end:#014x} {self.perms} {backing}{label}"


@dataclass
class AddressSpace:
    """A process's virtual memory."""

    pages: dict[int, bytearray] = field(default_factory=dict)
    vmas: list[VMA] = field(default_factory=list)
    #: bumped whenever executable memory changes; CPUs key decode caches on it
    code_epoch: int = 0
    #: CPU decode cache: address -> (code_epoch, DecodedInstruction); never
    #: serialized or forked — each address space starts with a cold cache
    decode_cache: dict = field(default_factory=dict, repr=False, compare=False)
    #: page table: page index -> the VMA covering that page; built from
    #: ``vmas`` on construction and kept in step by mmap/munmap/mprotect
    _table: dict[int, VMA] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for vma in self.vmas:
            self._map_pages(vma)

    # ------------------------------------------------------------------
    # VMA management

    def find_vma(self, address: int) -> VMA | None:
        return self._table.get(address >> PAGE_SHIFT)

    def mmap(
        self,
        start: int,
        size: int,
        perms: str,
        backing: FileBacking | None = None,
        tag: str = "",
    ) -> VMA:
        """Map ``[start, start+size)`` (page-rounded); pages start zeroed."""
        end = start + _page_round_up(size)
        if start % PAGE_SIZE:
            raise ValueError(f"mmap start {start:#x} not page aligned")
        indices = range(start >> PAGE_SHIFT, end >> PAGE_SHIFT)
        for index in indices:
            mapped = self._table.get(index)
            if mapped is not None:
                raise MemoryFault(start, "map", f"overlaps {mapped.describe()}")
        vma = VMA(start, end, perms, backing, tag)
        self.vmas.append(vma)
        self.vmas.sort(key=lambda v: v.start)
        self._map_pages(vma)
        for index in indices:
            self.pages.setdefault(index, bytearray(PAGE_SIZE))
        if "x" in perms:
            self.code_epoch += 1
        return vma

    def munmap(self, start: int, size: int) -> None:
        """Unmap ``[start, start+size)``; splits partially covered VMAs."""
        end = start + _page_round_up(size)
        if start % PAGE_SIZE:
            raise ValueError(f"munmap start {start:#x} not page aligned")
        touched_exec = False
        kept: list[VMA] = []
        pieces: list[VMA] = []
        for vma in self.vmas:
            if not vma.overlaps(start, end):
                kept.append(vma)
                continue
            touched_exec = touched_exec or vma.executable
            if vma.start < start:
                pieces.append(replace(vma, end=start))
            if vma.end > end:
                pieces.append(_tail(vma, end))
        self._replace_vmas(kept, pieces)
        for index in range(start >> PAGE_SHIFT, end >> PAGE_SHIFT):
            self._table.pop(index, None)
            self.pages.pop(index, None)
        if touched_exec:
            self.code_epoch += 1

    def mprotect(self, start: int, size: int, perms: str) -> None:
        """Change permissions on ``[start, start+size)``."""
        end = start + _page_round_up(size)
        touched_exec = False
        kept: list[VMA] = []
        pieces: list[VMA] = []
        for vma in self.vmas:
            if not vma.overlaps(start, end):
                kept.append(vma)
                continue
            touched_exec = touched_exec or vma.executable or "x" in perms
            if vma.start < start:
                pieces.append(replace(vma, end=start))
            mid_start = max(vma.start, start)
            mid_end = min(vma.end, end)
            mid_backing = vma.backing
            if mid_backing is not None and mid_start > vma.start:
                mid_backing = replace(
                    mid_backing, offset=mid_backing.offset + (mid_start - vma.start)
                )
            pieces.append(VMA(mid_start, mid_end, perms, mid_backing, vma.tag))
            if vma.end > end:
                pieces.append(_tail(vma, end))
        self._replace_vmas(kept, pieces)
        if touched_exec:
            self.code_epoch += 1

    def _replace_vmas(self, kept: list[VMA], pieces: list[VMA]) -> None:
        """Install ``kept + pieces`` as the VMA list; table the pieces."""
        self.vmas = sorted(kept + pieces, key=lambda v: v.start)
        for vma in pieces:
            self._map_pages(vma)

    def _map_pages(self, vma: VMA) -> None:
        indices = range(vma.start >> PAGE_SHIFT, vma.end >> PAGE_SHIFT)
        self._table.update(dict.fromkeys(indices, vma))

    def find_free_range(self, size: int, hint: int = 0x7F00_0000_0000) -> int:
        """Find an unmapped, page-aligned range of ``size`` bytes."""
        size = _page_round_up(size)
        candidate = hint
        for vma in sorted(self.vmas, key=lambda v: v.start):
            if candidate + size <= vma.start:
                return candidate
            if vma.end > candidate:
                candidate = vma.end
        return candidate

    # ------------------------------------------------------------------
    # checked access (guest loads/stores)
    #
    # Each of read/write/fetch first tries the single-page fast path; an
    # access that straddles a page or would fault falls through to the
    # checked walk, which alone raises MemoryFault.

    def read(self, address: int, size: int) -> bytes:
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            index = address >> PAGE_SHIFT
            vma = self._table.get(index)
            if vma is not None and "r" in vma.perms:
                return bytes(self.pages[index][offset:offset + size])
        self._check(address, size, "read")
        return self._read_raw(address, size)

    def write(self, address: int, data: bytes) -> None:
        size = len(data)
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            index = address >> PAGE_SHIFT
            vma = self._table.get(index)
            if vma is not None and "w" in vma.perms:
                self.pages[index][offset:offset + size] = data
                if size and "x" in vma.perms:
                    self.code_epoch += 1
                return
        self._check(address, size, "write")
        self._write_raw(address, data)
        if self._range_executable(address, size):
            self.code_epoch += 1

    def fetch(self, address: int, size: int) -> bytes:
        """Instruction fetch: requires execute permission."""
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            index = address >> PAGE_SHIFT
            vma = self._table.get(index)
            if vma is not None and "x" in vma.perms:
                return bytes(self.pages[index][offset:offset + size])
        vma = self.find_vma(address)
        if vma is None:
            raise MemoryFault(address, "exec", "unmapped")
        if not vma.executable:
            raise MemoryFault(address, "exec", f"not executable ({vma.perms})")
        # a fetch may straddle into the next VMA; validate the tail too
        if address + size > vma.end:
            self._check_exec(vma.end, address + size - vma.end)
        return self._read_raw(address, size)

    def read_cstring(self, address: int, limit: int = 65536) -> bytes:
        """Read a NUL-terminated string (guest ``char*``).

        Chunks end at page boundaries, so a string that ends just before
        an unmapped page reads fine, and the first byte that cannot be
        read is where the fault is reported.
        """
        out = bytearray()
        cursor = address
        while len(out) < limit:
            take = min(256, limit - len(out), PAGE_SIZE - (cursor & _PAGE_MASK))
            chunk = self.read(cursor, take)
            nul = chunk.find(b"\x00")
            if nul >= 0:
                out += chunk[:nul]
                return bytes(out)
            out += chunk
            cursor += len(chunk)
        raise MemoryFault(address, "read", "unterminated string")

    def _check(self, address: int, size: int, access: str) -> None:
        cursor = address
        end = address + size
        while cursor < end:
            vma = self.find_vma(cursor)
            if vma is None:
                raise MemoryFault(cursor, access, "unmapped")
            needed = "r" if access == "read" else "w"
            if needed not in vma.perms:
                raise MemoryFault(cursor, access, f"permission ({vma.perms})")
            cursor = vma.end

    def _check_exec(self, address: int, size: int) -> None:
        cursor = address
        end = address + size
        while cursor < end:
            vma = self.find_vma(cursor)
            if vma is None:
                raise MemoryFault(cursor, "exec", "unmapped")
            if not vma.executable:
                raise MemoryFault(cursor, "exec", f"not executable ({vma.perms})")
            cursor = vma.end

    def _range_executable(self, address: int, size: int) -> bool:
        """Whether ``[address, address+size)`` touches an executable page."""
        if size <= 0:
            return False
        last = (address + size - 1) >> PAGE_SHIFT
        for index in range(address >> PAGE_SHIFT, last + 1):
            vma = self._table.get(index)
            if vma is not None and vma.executable:
                return True
        return False

    # ------------------------------------------------------------------
    # raw access (kernel/loader/checkpoint: no permission checks)

    def _read_raw(self, address: int, size: int) -> bytes:
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self.pages.get(address >> PAGE_SHIFT)
            if page is not None:
                return bytes(page[offset:offset + size])
        out = bytearray()
        cursor = address
        remaining = size
        while remaining:
            index = cursor >> PAGE_SHIFT
            offset = cursor & _PAGE_MASK
            take = min(remaining, PAGE_SIZE - offset)
            page = self.pages.get(index)
            if page is None:
                raise MemoryFault(cursor, "read", "page not present")
            out += page[offset:offset + take]
            cursor += take
            remaining -= take
        return bytes(out)

    def _write_raw(self, address: int, data: bytes) -> None:
        cursor = address
        pos = 0
        while pos < len(data):
            index = cursor >> PAGE_SHIFT
            offset = cursor & _PAGE_MASK
            take = min(len(data) - pos, PAGE_SIZE - offset)
            page = self.pages.get(index)
            if page is None:
                raise MemoryFault(cursor, "write", "page not present")
            page[offset:offset + take] = data[pos:pos + take]
            cursor += take
            pos += take

    def write_raw(self, address: int, data: bytes) -> None:
        """Kernel-privileged write (loader, restore, ptrace-style pokes)."""
        self._write_raw(address, data)
        if self._range_executable(address, len(data)):
            self.code_epoch += 1

    def read_raw(self, address: int, size: int) -> bytes:
        """Kernel-privileged read."""
        return self._read_raw(address, size)

    # ------------------------------------------------------------------
    # whole-space operations

    def clone(self) -> "AddressSpace":
        """Deep copy (fork); the copy builds its own page table."""
        return AddressSpace(
            pages={index: bytearray(page) for index, page in self.pages.items()},
            vmas=[replace(vma) for vma in self.vmas],
            code_epoch=self.code_epoch,
        )

    def total_mapped(self) -> int:
        return sum(vma.size for vma in self.vmas)

    def describe_maps(self) -> str:
        """A ``/proc/pid/maps``-style listing."""
        return "\n".join(vma.describe() for vma in self.vmas)


def _tail(vma: VMA, end: int) -> VMA:
    """The part of ``vma`` from ``end`` on, with its file offset moved."""
    backing = vma.backing
    if backing is not None:
        backing = replace(backing, offset=backing.offset + (end - vma.start))
    return replace(vma, start=end, backing=backing)


def _page_round_up(value: int) -> int:
    return -(-value // PAGE_SIZE) * PAGE_SIZE
