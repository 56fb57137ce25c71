"""Tests for address spaces, VMAs, and permission enforcement."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import AddressSpace, FileBacking, MemoryFault, PAGE_SIZE
from repro.kernel.memory import VMA

BASE = 0x400000


@pytest.fixture()
def space():
    memory = AddressSpace()
    memory.mmap(BASE, 4 * PAGE_SIZE, "rw-", tag="data")
    return memory


class TestMapping:
    def test_mmap_rounds_to_pages(self, space):
        vma = space.mmap(BASE + 0x10000, 100, "r--")
        assert vma.size == PAGE_SIZE

    def test_overlap_rejected(self, space):
        with pytest.raises(MemoryFault):
            space.mmap(BASE + PAGE_SIZE, PAGE_SIZE, "rw-")

    def test_unaligned_rejected(self):
        memory = AddressSpace()
        with pytest.raises(ValueError):
            memory.mmap(0x401001, PAGE_SIZE, "rw-")

    def test_munmap_full(self, space):
        space.munmap(BASE, 4 * PAGE_SIZE)
        assert space.find_vma(BASE) is None
        with pytest.raises(MemoryFault):
            space.read(BASE, 1)

    def test_munmap_splits_vma(self, space):
        space.munmap(BASE + PAGE_SIZE, PAGE_SIZE)
        assert space.find_vma(BASE) is not None
        assert space.find_vma(BASE + PAGE_SIZE) is None
        assert space.find_vma(BASE + 2 * PAGE_SIZE) is not None
        # the split tail keeps correct backing offsets
        lo = space.find_vma(BASE)
        hi = space.find_vma(BASE + 2 * PAGE_SIZE)
        assert lo.end == BASE + PAGE_SIZE
        assert hi.start == BASE + 2 * PAGE_SIZE

    def test_munmap_preserves_file_offset_of_tail(self):
        memory = AddressSpace()
        memory.mmap(
            BASE, 3 * PAGE_SIZE, "r-x",
            backing=FileBacking("bin", 0x1000),
        )
        memory.munmap(BASE, PAGE_SIZE)
        tail = memory.find_vma(BASE + PAGE_SIZE)
        assert tail.backing.offset == 0x1000 + PAGE_SIZE

    def test_find_free_range_avoids_existing(self, space):
        addr = space.find_free_range(PAGE_SIZE, hint=BASE)
        assert space.find_vma(addr) is None
        assert addr >= BASE + 4 * PAGE_SIZE


class TestAccess:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 4 * PAGE_SIZE - 64), st.binary(min_size=1, max_size=64))
    def test_write_read_roundtrip(self, offset, data):
        memory = AddressSpace()
        memory.mmap(BASE, 4 * PAGE_SIZE, "rw-")
        memory.write(BASE + offset, data)
        assert memory.read(BASE + offset, len(data)) == data

    def test_cross_page_write(self, space):
        data = bytes(range(100))
        addr = BASE + PAGE_SIZE - 50
        space.write(addr, data)
        assert space.read(addr, 100) == data

    def test_read_requires_r(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "-w-")
        with pytest.raises(MemoryFault):
            memory.read(BASE, 1)

    def test_write_requires_w(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "r--")
        with pytest.raises(MemoryFault):
            memory.write(BASE, b"x")

    def test_fetch_requires_x(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "rw-")
        with pytest.raises(MemoryFault) as excinfo:
            memory.fetch(BASE, 1)
        assert excinfo.value.access == "exec"

    def test_fetch_from_exec_region(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "r-x")
        memory.write_raw(BASE, b"\x90")
        assert memory.fetch(BASE, 1) == b"\x90"

    def test_unmapped_access_faults_with_address(self, space):
        with pytest.raises(MemoryFault) as excinfo:
            space.read(0xDEAD000, 4)
        assert excinfo.value.address == 0xDEAD000

    def test_read_cstring(self, space):
        space.write(BASE, b"hello\x00world")
        assert space.read_cstring(BASE) == b"hello"

    def test_read_cstring_unterminated(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "rw-")
        memory.write_raw(BASE, b"\x01" * PAGE_SIZE)
        with pytest.raises(MemoryFault):
            memory.read_cstring(BASE, limit=PAGE_SIZE // 2)

    def test_read_cstring_ending_at_mapping_end(self):
        memory = AddressSpace()
        memory.mmap(0x10000, PAGE_SIZE, "rw-")
        memory.write(0x10FF8, b"hello\x00")
        assert memory.read_cstring(0x10FF8) == b"hello"

    def test_read_cstring_faults_at_first_unmapped_byte(self):
        memory = AddressSpace()
        memory.mmap(0x10000, PAGE_SIZE, "rw-")
        memory.write(0x10FF8, b"x" * 8)
        with pytest.raises(MemoryFault) as excinfo:
            memory.read_cstring(0x10FF8)
        assert (excinfo.value.address, excinfo.value.reason) == (0x11000, "unmapped")

    def test_raw_access_ignores_permissions(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "---")
        memory.write_raw(BASE, b"k")
        assert memory.read_raw(BASE, 1) == b"k"


class TestCodeEpoch:
    def test_write_to_exec_bumps_epoch(self):
        memory = AddressSpace()
        memory.mmap(BASE, PAGE_SIZE, "r-x")
        before = memory.code_epoch
        memory.write_raw(BASE, b"\xcc")
        assert memory.code_epoch > before

    def test_write_to_data_keeps_epoch(self, space):
        before = space.code_epoch
        space.write(BASE, b"x")
        assert space.code_epoch == before

    def test_mprotect_bumps_epoch(self, space):
        before = space.code_epoch
        space.mprotect(BASE, PAGE_SIZE, "r-x")
        assert space.code_epoch > before

    def test_mprotect_of_data_keeps_epoch(self, space):
        before = space.code_epoch
        space.mprotect(BASE, PAGE_SIZE, "r--")
        space.mprotect(BASE + 0x100000, PAGE_SIZE, "r-x")  # nothing mapped
        assert space.code_epoch == before

    def test_mprotect_away_from_exec_bumps_epoch(self):
        memory = AddressSpace()
        memory.mmap(BASE, 2 * PAGE_SIZE, "r-x")
        before = memory.code_epoch
        memory.mprotect(BASE + PAGE_SIZE, PAGE_SIZE, "r--")
        assert memory.code_epoch == before + 1

    def test_mprotect_changes_perms_mid_region(self, space):
        space.mprotect(BASE + PAGE_SIZE, PAGE_SIZE, "r--")
        assert space.find_vma(BASE).perms == "rw-"
        assert space.find_vma(BASE + PAGE_SIZE).perms == "r--"
        assert space.find_vma(BASE + 2 * PAGE_SIZE).perms == "rw-"


class TestClone:
    def test_clone_is_deep(self, space):
        space.write(BASE, b"orig")
        child = space.clone()
        child.write(BASE, b"chng")
        assert space.read(BASE, 4) == b"orig"
        assert child.read(BASE, 4) == b"chng"

    def test_clone_copies_vmas(self, space):
        child = space.clone()
        child.munmap(BASE, PAGE_SIZE)
        assert space.find_vma(BASE) is not None

    def test_describe_maps(self, space):
        listing = space.describe_maps()
        assert f"{BASE:#014x}" in listing
        assert "rw-" in listing


# ----------------------------------------------------------------------
# Differential test: AddressSpace (page table + single-page fast paths)
# against a linear-scan model that checks every byte on its own.


class LinearModel:
    """The reference: VMAs found by linear scan, accesses byte by byte.

    An access faults at its first byte that is unmapped or lacks the
    permission; a store touching any executable byte bumps the epoch (an
    empty store touches none); ``mprotect`` bumps it only when its range
    overlaps a VMA that is executable before or after the change.
    """

    def __init__(self):
        self.vmas: list[VMA] = []
        self.data: dict[int, int] = {}      # mapped address -> byte
        self.code_epoch = 0

    def clone(self):
        other = LinearModel()
        other.vmas = [replace(vma) for vma in self.vmas]
        other.data = dict(self.data)
        other.code_epoch = self.code_epoch
        return other

    def find_vma(self, address):
        for vma in self.vmas:
            if vma.start <= address < vma.end:
                return vma
        return None

    def _overlapping(self, start, end):
        return [vma for vma in self.vmas if vma.start < end and start < vma.end]

    def mmap(self, start, size, perms, backing=None):
        end = start + -(-size // PAGE_SIZE) * PAGE_SIZE
        if start % PAGE_SIZE:
            raise ValueError("unaligned")
        clash = self._overlapping(start, end)
        if clash:
            raise MemoryFault(start, "map", f"overlaps {clash[0].describe()}")
        self.vmas = sorted(
            self.vmas + [VMA(start, end, perms, backing)], key=lambda v: v.start
        )
        self.data.update(dict.fromkeys(range(start, end), 0))
        if "x" in perms:
            self.code_epoch += 1

    def _split(self, vma, start, end, middle_perms):
        pieces = []
        if vma.start < start:
            pieces.append(replace(vma, end=start))
        if middle_perms is not None:
            lo, hi = max(vma.start, start), min(vma.end, end)
            backing = vma.backing
            if backing is not None:
                backing = replace(backing, offset=backing.offset + lo - vma.start)
            pieces.append(VMA(lo, hi, middle_perms, backing, vma.tag))
        if vma.end > end:
            backing = vma.backing
            if backing is not None:
                backing = replace(backing, offset=backing.offset + end - vma.start)
            pieces.append(replace(vma, start=end, backing=backing))
        return pieces

    def munmap(self, start, size):
        end = start + -(-size // PAGE_SIZE) * PAGE_SIZE
        if start % PAGE_SIZE:
            raise ValueError("unaligned")
        hit = self._overlapping(start, end)
        kept = [vma for vma in self.vmas if vma not in hit]
        for vma in hit:
            kept += self._split(vma, start, end, None)
        self.vmas = sorted(kept, key=lambda v: v.start)
        for address in range(start, end):
            self.data.pop(address, None)
        if any(vma.executable for vma in hit):
            self.code_epoch += 1

    def mprotect(self, start, size, perms):
        end = start + -(-size // PAGE_SIZE) * PAGE_SIZE
        hit = self._overlapping(start, end)
        kept = [vma for vma in self.vmas if vma not in hit]
        for vma in hit:
            kept += self._split(vma, start, end, perms)
        self.vmas = sorted(kept, key=lambda v: v.start)
        if hit and ("x" in perms or any(vma.executable for vma in hit)):
            self.code_epoch += 1

    def _check(self, address, size, access, flag, denied):
        for cursor in range(address, address + size):
            vma = self.find_vma(cursor)
            if vma is None:
                raise MemoryFault(cursor, access, "unmapped")
            if flag not in vma.perms:
                raise MemoryFault(cursor, access, f"{denied} ({vma.perms})")

    def read(self, address, size):
        self._check(address, size, "read", "r", "permission")
        return bytes(self.data[a] for a in range(address, address + size))

    def fetch(self, address, size):
        # even an empty fetch needs its address executable
        self._check(address, max(size, 1), "exec", "x", "not executable")
        return bytes(self.data[a] for a in range(address, address + size))

    def write(self, address, data):
        self._check(address, len(data), "write", "w", "permission")
        self.write_raw(address, data)

    def read_raw(self, address, size):
        for cursor in range(address, address + size):
            if cursor not in self.data:
                raise MemoryFault(cursor, "read", "page not present")
        return bytes(self.data[a] for a in range(address, address + size))

    def write_raw(self, address, data):
        for cursor, byte in enumerate(data, address):
            if cursor not in self.data:
                raise MemoryFault(cursor, "write", "page not present")
            self.data[cursor] = byte
        if any(
            (vma := self.find_vma(a)) is not None and vma.executable
            for a in range(address, address + len(data))
        ):
            self.code_epoch += 1

    def read_cstring(self, address, limit):
        out = bytearray()
        for cursor in range(address, address + limit):
            byte = self.read(cursor, 1)[0]
            if byte == 0:
                return bytes(out)
            out.append(byte)
        raise MemoryFault(address, "read", "unterminated string")


DIFF_BASE = 0x10000
DIFF_PAGES = 8
PERMS = ("r--", "rw-", "r-x", "rwx", "---", "-w-", "--x")

_page = st.integers(0, DIFF_PAGES)
#: ``back`` bytes before the end of a page
_near_page_end = st.builds(
    lambda page, back: DIFF_BASE + (page + 1) * PAGE_SIZE - back,
    _page, st.integers(1, 16),
)
_address = st.one_of(
    _near_page_end,
    st.builds(
        lambda page, offset: DIFF_BASE + page * PAGE_SIZE + offset,
        _page, st.integers(0, PAGE_SIZE - 1),
    ),
)
_access = st.one_of(
    # ends exactly at a page end, or up to 3 bytes past it
    st.builds(
        lambda page, back, over: (DIFF_BASE + (page + 1) * PAGE_SIZE - back, back + over),
        _page, st.integers(1, 16), st.integers(0, 3),
    ),
    st.tuples(_address, st.one_of(st.integers(0, 17), st.integers(0, 2 * PAGE_SIZE))),
)
_span = st.tuples(_page, st.integers(1, 3))
_ops = st.one_of(
    st.tuples(st.just("mmap"), _span, st.sampled_from(PERMS), st.booleans()),
    st.tuples(st.just("munmap"), _span),
    st.tuples(st.just("mprotect"), _span, st.sampled_from(PERMS), st.booleans()),
    st.tuples(st.sampled_from(["read", "fetch", "read_raw"]), _access),
    st.tuples(
        st.sampled_from(["write", "write_raw"]),
        st.tuples(_address, st.binary(max_size=20)),
    ),
    st.tuples(
        st.just("read_cstring"), st.tuples(_address, st.integers(1, PAGE_SIZE + 300))
    ),
    st.tuples(st.just("clone")),
)


def _call(target, op):
    """Apply ``op``; return ("ok", value) or the fault/error it raised."""
    name = op[0]
    try:
        if name in ("mmap", "munmap", "mprotect"):
            page, count = op[1]
            start, size = DIFF_BASE + page * PAGE_SIZE, count * PAGE_SIZE - 5
            if name == "mmap":
                backing = FileBacking("bin", 0x3000) if op[3] else None
                target.mmap(start, size, op[2], backing=backing)
            elif name == "munmap":
                target.munmap(start, size)
            else:
                target.mprotect(start + (3 if op[3] else 0), size, op[2])
            return ("ok", None)
        return ("ok", getattr(target, name)(*op[1]))
    except MemoryFault as fault:
        return ("fault", fault.address, fault.access, fault.reason)
    except ValueError:
        return ("value-error",)


def _assert_same(space, model):
    assert space.vmas == model.vmas
    assert space.code_epoch == model.code_epoch
    for page in range(-1, DIFF_PAGES + 4):
        for address in (DIFF_BASE + page * PAGE_SIZE, DIFF_BASE + page * PAGE_SIZE + 77):
            assert space.find_vma(address) == model.find_vma(address)
    # the table points at the VMA objects of the list, page by page
    for vma in space.vmas:
        for address in range(vma.start, vma.end, PAGE_SIZE):
            assert space.find_vma(address) is vma


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ops, min_size=1, max_size=40))
    def test_fast_path_matches_linear_model(self, ops):
        space, model = AddressSpace(), LinearModel()
        # pages 1-2 data, 3 text, 5 rwx; gaps at 0, 4 and 6 on
        for first, count, perms in ((1, 2, "rw-"), (3, 1, "r-x"), (5, 1, "rwx")):
            for target in (space, model):
                target.mmap(DIFF_BASE + first * PAGE_SIZE, count * PAGE_SIZE, perms)
        pairs = [(space, model)]
        for op in ops:
            if op[0] == "clone":
                child = space.clone()
                for vma in space.vmas:
                    for address in range(vma.start, vma.end, PAGE_SIZE):
                        assert child.find_vma(address) is not space.find_vma(address)
                        index = address // PAGE_SIZE
                        assert child.pages[index] is not space.pages[index]
                space, model = child, model.clone()
                pairs.append((space, model))
                continue
            assert _call(space, op) == _call(model, op), op
            _assert_same(space, model)
        # every earlier space kept its own state while later clones changed
        for old_space, old_model in pairs:
            _assert_same(old_space, old_model)
            for vma in old_space.vmas:
                assert old_space.read_raw(vma.start, vma.size) == old_model.read_raw(
                    vma.start, vma.size
                )
