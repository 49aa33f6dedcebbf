"""File tables: the pre-populated, shared FTE subtrees (Section 4.1).

A file table is a sequence of page-table *leaf* nodes whose entries are
File Table Entries — LBA-in-place-of-PFN, FT bit set, DevID recorded
(Figure 3).  The kernel builds them bottom-up from the file's extent
tree, caches them in the VFS inode, and attaches them to a process's
page table at PMD granularity with plain pointer updates, which makes
the *warm* fmap nearly constant-time per 2 MB of file.

Entries live at the exact leaf slot of their logical file page, so
sparse files (holes punched by out-of-order writes) work: a hole is an
absent entry, which the IOMMU turns into a translation fault and
UserLib into a kernel-path retry.  Filling a hole or growing the tail
updates the shared leaves in place — visible to every attached process
at once; only brand-new leaves need (re-)attachment.

A leaf filled from one extent keeps that run as three numbers until a
walk, or an extent that does not continue the run, builds its 512
entries (``PageTableNode``), so a cold fmap costs the host O(extents)
memory.  The counts and the density check read the run as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..hw.pagetable import (
    ENTRIES_PER_NODE,
    LEVEL_PT,
    PAGE_SHIFT,
    PMD_SPAN,
    PageTableNode,
    fte_encode,
    pte_present,
)
from ..hw.params import HardwareParams

__all__ = ["FileTable", "build_file_table", "PAGES_PER_LEAF"]

PAGES_PER_LEAF = ENTRIES_PER_NODE  # 512 pages -> one leaf spans 2 MiB
PAGE = 4096
_FTE_STEP = 1 << PAGE_SHIFT  # consecutive LBAs differ by this in an FTE

Mapping = Tuple[int, int, int]  # (logical page, device page, count)


@dataclass
class FileTable:
    """The cached file-table subtree for one inode."""

    devid: int
    leaves: List[PageTableNode] = field(default_factory=list)
    pages: int = 0          # one past the highest mapped page
    build_cost_ns: int = 0

    @property
    def span_bytes(self) -> int:
        return len(self.leaves) * PMD_SPAN

    def memory_bytes(self) -> int:
        """FTE memory overhead: one 4 KB page per leaf (Section 6.3)."""
        return sum(1 for leaf in self.leaves
                   if leaf is not None) * PAGE

    # -- construction / growth -----------------------------------------------

    def set_range(self, logical: int, device_page: int, count: int,
                  params: HardwareParams) -> Tuple[List[int], int]:
        """Install FTEs for ``count`` pages starting at ``logical``.

        Returns (indices of leaves newly created, cost_ns).  Existing
        leaves are updated in place (shared-table visibility).  A
        rejected range leaves the table untouched.
        """
        if count <= 0:
            raise ValueError("empty range")
        if logical < 0:
            raise ValueError(f"negative logical page: {logical}")
        # Shared entries carry maximum rights; the per-process R/W bit
        # lives at the private attach point (Figure 4).  An FTE is its
        # LBA shifted into the frame field plus constant flag bits, so
        # when the first and last LBA encode, the run between them is
        # one arithmetic progression with a step of one page.
        base = fte_encode(device_page, self.devid, writable=True)
        fte_encode(device_page + count - 1, self.devid, writable=True)
        leaves = self.leaves
        end = logical + count
        missing = -(-end // PAGES_PER_LEAF) - len(leaves)
        if missing > 0:
            leaves.extend([None] * missing)
        new_leaves: List[int] = []
        page = logical
        while page < end:
            leaf_idx, slot = divmod(page, PAGES_PER_LEAF)
            n = min(PAGES_PER_LEAF - slot, end - page)
            leaf = leaves[leaf_idx]
            if leaf is None:
                leaf = leaves[leaf_idx] = PageTableNode(LEVEL_PT)
                new_leaves.append(leaf_idx)
            leaf.fill(slot, n, base)
            base += n * _FTE_STEP
            page += n
        self.pages = max(self.pages, end)
        cost = count * params.fte_write_ns
        self.build_cost_ns += cost
        return new_leaves, cost

    def populate(self, mappings: List[Mapping],
                 params: HardwareParams) -> int:
        """Cold build from the extent tree's (logical, phys, count)."""
        for logical, device_page, count in mappings:
            self.set_range(logical, device_page, count, params)
        return self.pages

    # -- shrink ------------------------------------------------------------

    def truncate_pages(self, keep_pages: int) -> List[int]:
        """Clear entries at/after ``keep_pages``.

        Returns indices of leaves dropped entirely (callers detach
        those from every attached address space).
        """
        if keep_pages < 0:
            raise ValueError("negative page count")
        if keep_pages >= self.pages:
            return []
        first_dead_leaf = -(-keep_pages // PAGES_PER_LEAF)
        # The pages cleared in place all sit in the leaf holding
        # ``keep_pages``; nothing at or past ``self.pages`` is present.
        slot = keep_pages % PAGES_PER_LEAF
        if slot:
            leaf = self.leaves[keep_pages // PAGES_PER_LEAF]
            if leaf is not None:
                leaf.clear_from(slot)
        dead = [idx for idx in range(first_dead_leaf, len(self.leaves))
                if self.leaves[idx] is not None]
        del self.leaves[first_dead_leaf:]
        self.pages = keep_pages
        return dead

    # -- introspection -----------------------------------------------------

    def entry_count(self) -> int:
        return sum(leaf.present_count() for leaf in self.leaves
                   if leaf is not None)

    def has_entry(self, page: int) -> bool:
        leaf_idx, slot = divmod(page, PAGES_PER_LEAF)
        if leaf_idx >= len(self.leaves) or self.leaves[leaf_idx] is None:
            return False
        return pte_present(self.leaves[leaf_idx].entry(slot))

    def check_dense(self) -> None:
        """For hole-free files: entries dense in [0, pages)."""
        seen = 0
        for leaf in self.leaves:
            want = min(ENTRIES_PER_NODE, max(0, self.pages - seen))
            expected = b"\x01" * want + bytes(ENTRIES_PER_NODE - want)
            present = (bytes(ENTRIES_PER_NODE) if leaf is None
                       else leaf.present_map())
            if present != expected:
                slot = next(slot for slot in range(ENTRIES_PER_NODE)
                            if present[slot] != expected[slot])
                raise AssertionError(
                    f"file table density broken at page {seen + slot}"
                )
            seen += ENTRIES_PER_NODE
        if seen < self.pages:
            raise AssertionError("file table shorter than page count")


def build_file_table(mappings: List[Mapping], devid: int,
                     params: HardwareParams) -> FileTable:
    """Cold build: create and populate a file table from mappings."""
    table = FileTable(devid=devid)
    table.populate(mappings, params)
    return table
