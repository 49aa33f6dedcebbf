"""x86-64-style radix page tables with BypassD's File Table Entries.

The tree has four levels (PGD, PUD, PMD, PT), 512 entries each, mapping
48-bit virtual addresses at 4 KB granularity.  Entries are bit-packed
64-bit integers so that the FTE format of the paper's Figure 3 —
DevID | FT | Logical Block Address | ... | R/W — is represented
faithfully and round-trips through encode/decode.

Bit layout (leaf entries):

    bit  0       PRESENT
    bit  1       WRITABLE (R/W)
    bit  2       USER
    bits 12..51  PFN (regular PTE) or LBA (file table entry)
    bits 52..57  DevID (FTEs only; software-available bits)
    bit  58      FT — distinguishes an FTE from a regular PTE

Interior entries carry PRESENT/WRITABLE/USER only; the child node is a
Python object reference.  Effective writability is the AND of the
writable bits along the walk, which is exactly how BypassD grants
per-process read-only views of shared, maximally-permissive file
tables (Section 4.1, Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "ENTRIES_PER_NODE",
    "LEVEL_PT",
    "LEVEL_PMD",
    "LEVEL_PUD",
    "LEVEL_PGD",
    "PMD_SPAN",
    "PUD_SPAN",
    "pte_encode",
    "fte_encode",
    "pte_present",
    "pte_writable",
    "pte_user",
    "pte_is_fte",
    "pte_pfn",
    "fte_lba",
    "fte_devid",
    "PageTableNode",
    "WalkResult",
    "PageTable",
    "level_span",
]

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
INDEX_BITS = 9
ENTRIES_PER_NODE = 1 << INDEX_BITS

LEVEL_PT = 1
LEVEL_PMD = 2
LEVEL_PUD = 3
LEVEL_PGD = 4

PMD_SPAN = ENTRIES_PER_NODE * PAGE_SIZE          # 2 MiB
PUD_SPAN = ENTRIES_PER_NODE * PMD_SPAN           # 1 GiB
VA_BITS = PAGE_SHIFT + 4 * INDEX_BITS            # 48
VA_LIMIT = 1 << VA_BITS

_PRESENT = 1 << 0
_WRITABLE = 1 << 1
_USER = 1 << 2
_FT = 1 << 58
_FRAME_SHIFT = 12
_FRAME_MASK = ((1 << 40) - 1) << _FRAME_SHIFT
_DEVID_SHIFT = 52
_DEVID_MASK = 0x3F << _DEVID_SHIFT


def level_span(level: int) -> int:
    """Bytes of VA space covered by one entry at ``level``."""
    if not LEVEL_PT <= level <= LEVEL_PGD:
        raise ValueError(f"bad page-table level {level}")
    return PAGE_SIZE << (INDEX_BITS * (level - 1))


def _index(va: int, level: int) -> int:
    return (va >> (PAGE_SHIFT + INDEX_BITS * (level - 1))) & (ENTRIES_PER_NODE - 1)


def _pmd_runs(va: int, count: int) -> Iterator[Tuple[int, int, int]]:
    """Split ``count`` PMD entries from ``va`` by PMD node.

    Yields (VA of the run's first entry, index of that entry in the
    batch, entries in the run): one run per 1 GiB of VA touched.
    """
    first = 0
    while first < count:
        run_va = va + first * PMD_SPAN
        n = min(ENTRIES_PER_NODE - _index(run_va, LEVEL_PMD), count - first)
        yield run_va, first, n
        first += n


def pte_encode(pfn: int, writable: bool = True, user: bool = True,
               present: bool = True) -> int:
    """Encode a regular page table entry."""
    if pfn < 0 or pfn >= (1 << 40):
        raise ValueError(f"PFN out of range: {pfn}")
    entry = (pfn << _FRAME_SHIFT) & _FRAME_MASK
    if present:
        entry |= _PRESENT
    if writable:
        entry |= _WRITABLE
    if user:
        entry |= _USER
    return entry


def fte_encode(lba: int, devid: int, writable: bool = True,
               present: bool = True) -> int:
    """Encode a File Table Entry (paper Figure 3)."""
    if devid < 0 or devid > 0x3F:
        raise ValueError(f"DevID out of range: {devid}")
    entry = pte_encode(lba, writable=writable, user=True, present=present)
    entry |= _FT
    entry |= (devid << _DEVID_SHIFT) & _DEVID_MASK
    return entry


def pte_present(entry: int) -> bool:
    return bool(entry & _PRESENT)


def pte_writable(entry: int) -> bool:
    return bool(entry & _WRITABLE)


def pte_user(entry: int) -> bool:
    return bool(entry & _USER)


def pte_is_fte(entry: int) -> bool:
    return bool(entry & _FT)


def pte_pfn(entry: int) -> int:
    return (entry & _FRAME_MASK) >> _FRAME_SHIFT


def fte_lba(entry: int) -> int:
    """FTEs store an LBA where a PTE stores a PFN."""
    return pte_pfn(entry)


def fte_devid(entry: int) -> int:
    return (entry & _DEVID_MASK) >> _DEVID_SHIFT


class PageTableNode:
    """One 512-entry node.  Interior nodes also hold child references."""

    __slots__ = ("level", "entries", "children")

    def __init__(self, level: int):
        if not LEVEL_PT <= level <= LEVEL_PGD:
            raise ValueError(f"bad node level {level}")
        self.level = level
        self.entries: List[int] = [0] * ENTRIES_PER_NODE
        self.children: Optional[List[Optional["PageTableNode"]]] = (
            None if level == LEVEL_PT else [None] * ENTRIES_PER_NODE
        )

    def present_count(self) -> int:
        return sum(1 for e in self.entries if pte_present(e))

    def iter_present(self) -> Iterator[Tuple[int, int]]:
        for idx, entry in enumerate(self.entries):
            if pte_present(entry):
                yield idx, entry

    def node_count(self) -> int:
        """Nodes in this subtree (memory-overhead accounting)."""
        total = 1
        if self.children is not None:
            for child in self.children:
                if child is not None:
                    total += child.node_count()
        return total


@dataclass
class WalkResult:
    """Outcome of a software/hardware page walk."""

    entry: int                       # leaf entry (0 if not present)
    level: int                       # level at which the walk ended
    path: List[Tuple[int, int]]      # (level, interior entry flags) visited
    effective_writable: bool

    @property
    def present(self) -> bool:
        return pte_present(self.entry)

    @property
    def is_fte(self) -> bool:
        return self.present and pte_is_fte(self.entry)


class PageTable:
    """A process page-table tree (one per address space / PASID)."""

    def __init__(self):
        self.root = PageTableNode(LEVEL_PGD)

    # -- regular mappings ------------------------------------------------

    def map_page(self, va: int, pfn: int, writable: bool = True) -> None:
        self._set_leaf(va, pte_encode(pfn, writable=writable))

    def map_file_page(self, va: int, lba: int, devid: int,
                      writable: bool = True) -> None:
        self._set_leaf(va, fte_encode(lba, devid, writable=writable))

    def unmap_page(self, va: int) -> None:
        node = self._leaf_node(va, create=False)
        if node is not None:
            node.entries[_index(va, LEVEL_PT)] = 0

    def _set_leaf(self, va: int, entry: int) -> None:
        node = self._leaf_node(va, create=True)
        assert node is not None
        node.entries[_index(va, LEVEL_PT)] = entry

    def _leaf_node(self, va: int, create: bool) -> Optional[PageTableNode]:
        self._check_va(va)
        node = self.root
        for level in (LEVEL_PGD, LEVEL_PUD, LEVEL_PMD):
            idx = _index(va, level)
            assert node.children is not None
            child = node.children[idx]
            if child is None:
                if not create:
                    return None
                child = PageTableNode(level - 1)
                node.children[idx] = child
                node.entries[idx] = _PRESENT | _WRITABLE | _USER
            node = child
        return node

    # -- subtree attach/detach (warm fmap) ---------------------------------

    def attach_subtree(self, va: int, subtree: PageTableNode,
                       writable: bool) -> None:
        """Link a shared subtree at the entry covering ``va``.

        ``va`` must be aligned to the subtree's span.  The attach
        entry's R/W bit carries this process's open permission while the
        shared entries below keep maximum rights (Section 4.1).
        """
        span = level_span(subtree.level + 1)
        if va % span:
            raise ValueError(
                f"attach VA {va:#x} not aligned to {span:#x} for "
                f"level-{subtree.level} subtree"
            )
        parent = self._interior_node(va, subtree.level + 1, create=True)
        idx = _index(va, subtree.level + 1)
        assert parent.children is not None
        if parent.children[idx] is not None:
            raise ValueError(f"VA {va:#x} already mapped")
        parent.children[idx] = subtree
        flags = _PRESENT | _USER | (_WRITABLE if writable else 0)
        parent.entries[idx] = flags

    def detach_subtree(self, va: int, subtree_level: int) -> Optional[PageTableNode]:
        """Unlink (and return) the subtree attached at ``va``."""
        parent = self._interior_node(va, subtree_level + 1, create=False)
        if parent is None:
            return None
        idx = _index(va, subtree_level + 1)
        assert parent.children is not None
        child = parent.children[idx]
        parent.children[idx] = None
        parent.entries[idx] = 0
        return child

    def attach_leaves(self, va: int, leaves: Sequence[Optional[PageTableNode]],
                      writable: bool) -> List[int]:
        """Link shared PT leaves at consecutive PMD entries from ``va``.

        ``leaves[i]`` goes to the entry covering ``va + i * PMD_SPAN``;
        ``None`` is a hole and leaves its entry alone.  Returns the
        indices linked.  Every target is checked before the first write,
        so a batch that hits a mapped entry raises and changes nothing.
        Each PMD node on the way is walked to once, not once per leaf.
        """
        self._check_batch(va, len(leaves))
        runs = []
        for run_va, first, n in _pmd_runs(va, len(leaves)):
            batch = leaves[first:first + n]
            holes = batch.count(None)
            if holes == n:
                continue
            slot = _index(run_va, LEVEL_PMD)
            node = self._interior_node(run_va, LEVEL_PMD, create=False)
            if node is not None:
                assert node.children is not None
                occupied = node.children[slot:slot + n]
                if any(occupied):
                    for k, child in enumerate(occupied):
                        if child is not None and batch[k] is not None:
                            raise ValueError(
                                f"VA {run_va + k * PMD_SPAN:#x} "
                                f"already mapped")
            runs.append((run_va, first, slot, batch, holes))
        flags = _PRESENT | _USER | (_WRITABLE if writable else 0)
        linked: List[int] = []
        for run_va, first, slot, batch, holes in runs:
            node = self._interior_node(run_va, LEVEL_PMD, create=True)
            assert node is not None and node.children is not None
            n = len(batch)
            if not holes:
                node.children[slot:slot + n] = batch
                node.entries[slot:slot + n] = [flags] * n
                linked.extend(range(first, first + n))
                continue
            for k, leaf in enumerate(batch):
                if leaf is not None:
                    node.children[slot + k] = leaf
                    node.entries[slot + k] = flags
                    linked.append(first + k)
        return linked

    def detach_leaves(self, va: int, indices: Iterable[int]) -> None:
        """Unlink the PT leaves at ``va + i * PMD_SPAN`` for each index.

        Each PMD node on the way is walked to once, and each contiguous
        run of indices within it is cleared with one slice.
        """
        self._check_batch(va, 0)
        ordered = sorted(indices)
        if not ordered:
            return
        if ordered[0] < 0:
            raise ValueError(f"negative leaf index {ordered[0]}")
        lo = 0
        for run_va, first, n in _pmd_runs(va, ordered[-1] + 1):
            hi = bisect_left(ordered, first + n, lo)
            if hi == lo:
                continue
            node = self._interior_node(run_va, LEVEL_PMD, create=False)
            if node is not None:
                assert node.children is not None
                base = _index(run_va, LEVEL_PMD) - first
                start, stop = base + ordered[lo], base + ordered[hi - 1] + 1
                if stop - start == hi - lo:
                    node.children[start:stop] = [None] * (hi - lo)
                    node.entries[start:stop] = [0] * (hi - lo)
                else:
                    for idx in ordered[lo:hi]:
                        node.children[base + idx] = None
                        node.entries[base + idx] = 0
            lo = hi

    def _check_batch(self, va: int, count: int) -> None:
        if va % PMD_SPAN:
            raise ValueError(
                f"batch VA {va:#x} not aligned to {PMD_SPAN:#x}")
        self._check_va(va)
        if count:
            self._check_va(va + count * PMD_SPAN - 1)

    def _interior_node(self, va: int, entry_level: int,
                       create: bool) -> Optional[PageTableNode]:
        """Node holding the entry at ``entry_level`` covering ``va``."""
        self._check_va(va)
        node = self.root
        level = LEVEL_PGD
        while level > entry_level:
            idx = _index(va, level)
            assert node.children is not None
            child = node.children[idx]
            if child is None:
                if not create:
                    return None
                child = PageTableNode(level - 1)
                node.children[idx] = child
                node.entries[idx] = _PRESENT | _WRITABLE | _USER
            node = child
            level -= 1
        return node

    # -- walking ---------------------------------------------------------

    def walk(self, va: int) -> WalkResult:
        """Resolve ``va`` recording the interior entries visited.

        Runs once per translation, so the index and flag arithmetic of
        ``_index``, ``pte_present`` and ``pte_writable`` is inlined.
        """
        self._check_va(va)
        node = self.root
        path: List[Tuple[int, int]] = []
        writable = True
        shift = PAGE_SHIFT + INDEX_BITS * (LEVEL_PGD - 1)
        for level in (LEVEL_PGD, LEVEL_PUD, LEVEL_PMD):
            idx = (va >> shift) & (ENTRIES_PER_NODE - 1)
            entry = node.entries[idx]
            path.append((level, entry))
            if not entry & _PRESENT:
                return WalkResult(0, level, path, False)
            writable = writable and bool(entry & _WRITABLE)
            assert node.children is not None
            child = node.children[idx]
            if child is None:
                return WalkResult(0, level, path, False)
            node = child
            shift -= INDEX_BITS
        leaf = node.entries[(va >> PAGE_SHIFT) & (ENTRIES_PER_NODE - 1)]
        if not leaf & _PRESENT:
            return WalkResult(0, LEVEL_PT, path, False)
        writable = writable and bool(leaf & _WRITABLE)
        return WalkResult(leaf, LEVEL_PT, path, writable)

    # -- accounting ---------------------------------------------------------

    def node_count(self) -> int:
        return self.root.node_count()

    def memory_bytes(self) -> int:
        """Page-table memory, one 4 KB page per node (as on x86-64)."""
        return self.node_count() * PAGE_SIZE

    @staticmethod
    def _check_va(va: int) -> None:
        if va < 0 or va >= VA_LIMIT:
            raise ValueError(f"VA out of 48-bit range: {va:#x}")
