"""Unit + property tests for page tables and FTE encoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.pagetable import (
    ENTRIES_PER_NODE,
    LEVEL_PGD,
    LEVEL_PMD,
    LEVEL_PT,
    LEVEL_PUD,
    PMD_SPAN,
    PUD_SPAN,
    PAGE_SIZE,
    PageTable,
    PageTableNode,
    fte_devid,
    fte_encode,
    fte_lba,
    level_span,
    pte_encode,
    pte_is_fte,
    pte_pfn,
    pte_present,
    pte_user,
    pte_writable,
)


class TestEntryEncoding:
    @given(pfn=st.integers(min_value=0, max_value=(1 << 40) - 1),
           writable=st.booleans(), user=st.booleans(),
           present=st.booleans())
    def test_pte_roundtrip(self, pfn, writable, user, present):
        e = pte_encode(pfn, writable=writable, user=user, present=present)
        assert pte_pfn(e) == pfn
        assert pte_writable(e) == writable
        assert pte_user(e) == user
        assert pte_present(e) == present
        assert not pte_is_fte(e)

    @given(lba=st.integers(min_value=0, max_value=(1 << 40) - 1),
           devid=st.integers(min_value=0, max_value=63),
           writable=st.booleans())
    def test_fte_roundtrip(self, lba, devid, writable):
        e = fte_encode(lba, devid, writable=writable)
        assert fte_lba(e) == lba
        assert fte_devid(e) == devid
        assert pte_writable(e) == writable
        assert pte_is_fte(e)
        assert pte_present(e)

    def test_fte_and_pte_distinguishable(self):
        pte = pte_encode(1234)
        fte = fte_encode(1234, devid=1)
        assert not pte_is_fte(pte)
        assert pte_is_fte(fte)
        # Same frame field, different interpretation.
        assert pte_pfn(pte) == fte_lba(fte)

    def test_pfn_out_of_range(self):
        with pytest.raises(ValueError):
            pte_encode(1 << 40)

    def test_devid_out_of_range(self):
        with pytest.raises(ValueError):
            fte_encode(0, devid=64)

    def test_fits_in_64_bits(self):
        e = fte_encode((1 << 40) - 1, devid=63, writable=True)
        assert e < (1 << 64)


class TestLevelGeometry:
    def test_spans(self):
        assert level_span(LEVEL_PT) == PAGE_SIZE
        assert level_span(LEVEL_PMD) == PMD_SPAN == 2 * 1024 * 1024
        assert level_span(LEVEL_PUD) == PUD_SPAN == 1 << 30
        assert level_span(LEVEL_PGD) == 512 << 30

    def test_bad_level(self):
        with pytest.raises(ValueError):
            level_span(5)


class TestPageTable:
    def test_map_and_walk(self):
        pt = PageTable()
        pt.map_page(0x7000_0000_0000, pfn=42, writable=True)
        result = pt.walk(0x7000_0000_0000)
        assert result.present
        assert pte_pfn(result.entry) == 42
        assert result.effective_writable
        assert not result.is_fte

    def test_unmapped_walk(self):
        pt = PageTable()
        result = pt.walk(0x1234_5000)
        assert not result.present
        assert result.entry == 0

    def test_map_file_page_walk(self):
        pt = PageTable()
        pt.map_file_page(0x5000_0000_0000, lba=777, devid=3,
                         writable=False)
        result = pt.walk(0x5000_0000_0000)
        assert result.is_fte
        assert fte_lba(result.entry) == 777
        assert fte_devid(result.entry) == 3
        assert not result.effective_writable

    def test_unmap(self):
        pt = PageTable()
        va = 0x4000_0000_0000
        pt.map_page(va, pfn=1)
        pt.unmap_page(va)
        assert not pt.walk(va).present

    def test_neighbouring_pages_distinct(self):
        pt = PageTable()
        base = 0x10_0000_0000
        for i in range(8):
            pt.map_page(base + i * PAGE_SIZE, pfn=100 + i)
        for i in range(8):
            assert pte_pfn(pt.walk(base + i * PAGE_SIZE).entry) == 100 + i

    def test_va_out_of_range(self):
        pt = PageTable()
        with pytest.raises(ValueError):
            pt.walk(1 << 48)

    @given(vas=st.lists(
        st.integers(min_value=0, max_value=(1 << 48) - PAGE_SIZE)
        .map(lambda v: v & ~(PAGE_SIZE - 1)),
        min_size=1, max_size=40, unique=True))
    def test_many_mappings_roundtrip(self, vas):
        pt = PageTable()
        for i, va in enumerate(vas):
            pt.map_page(va, pfn=i + 1)
        for i, va in enumerate(vas):
            result = pt.walk(va)
            assert result.present
            assert pte_pfn(result.entry) == i + 1


class TestSubtreeAttach:
    def _leaf_with_ftes(self, count, devid=1):
        leaf = PageTableNode(LEVEL_PT)
        for i in range(count):
            leaf.entries[i] = fte_encode(1000 + i, devid)
        return leaf

    def test_attach_and_walk(self):
        pt = PageTable()
        leaf = self._leaf_with_ftes(10)
        va = 0x5000_0000_0000  # 2 MiB aligned
        pt.attach_subtree(va, leaf, writable=True)
        for i in range(10):
            result = pt.walk(va + i * PAGE_SIZE)
            assert result.is_fte
            assert fte_lba(result.entry) == 1000 + i

    def test_attach_readonly_masks_shared_rw(self):
        """Figure 4: shared FTEs are max-permission; the private
        attach entry downgrades to read-only."""
        pt = PageTable()
        leaf = self._leaf_with_ftes(1)
        va = 0x5000_0000_0000
        pt.attach_subtree(va, leaf, writable=False)
        result = pt.walk(va)
        assert pte_writable(result.entry)         # shared entry is RW
        assert not result.effective_writable      # but the path is RO

    def test_shared_leaf_two_tables_different_perms(self):
        leaf = self._leaf_with_ftes(4)
        pt_a, pt_b = PageTable(), PageTable()
        va = 0x5000_0000_0000
        pt_a.attach_subtree(va, leaf, writable=True)
        pt_b.attach_subtree(va, leaf, writable=False)
        assert pt_a.walk(va).effective_writable
        assert not pt_b.walk(va).effective_writable

    def test_unaligned_attach_rejected(self):
        pt = PageTable()
        leaf = self._leaf_with_ftes(1)
        with pytest.raises(ValueError):
            pt.attach_subtree(0x5000_0000_1000, leaf, writable=True)

    def test_double_attach_rejected(self):
        pt = PageTable()
        va = 0x5000_0000_0000
        pt.attach_subtree(va, self._leaf_with_ftes(1), writable=True)
        with pytest.raises(ValueError):
            pt.attach_subtree(va, self._leaf_with_ftes(1), writable=True)

    def test_detach_removes_mapping(self):
        pt = PageTable()
        va = 0x5000_0000_0000
        leaf = self._leaf_with_ftes(3)
        pt.attach_subtree(va, leaf, writable=True)
        detached = pt.detach_subtree(va, subtree_level=LEVEL_PT)
        assert detached is leaf
        assert not pt.walk(va).present

    def test_detach_missing_returns_none(self):
        pt = PageTable()
        assert pt.detach_subtree(0x5000_0000_0000, LEVEL_PT) is None

    def test_attach_extension_visible_in_place(self):
        """Filling a shared leaf's free slots needs no re-attach."""
        pt = PageTable()
        va = 0x5000_0000_0000
        leaf = self._leaf_with_ftes(2)
        pt.attach_subtree(va, leaf, writable=True)
        leaf.entries[2] = fte_encode(5555, 1)
        result = pt.walk(va + 2 * PAGE_SIZE)
        assert result.is_fte
        assert fte_lba(result.entry) == 5555


def _leaves(pattern):
    """PT leaves for a hole pattern: leaf ``i`` (or ``None``) holds one
    FTE whose LBA names its index."""
    out = []
    for i, present in enumerate(pattern):
        leaf = None
        if present:
            leaf = PageTableNode(LEVEL_PT)
            leaf.entries[0] = fte_encode(7000 + i, 1)
        out.append(leaf)
    return out


def _view(pt, va, count):
    """What each of ``count`` PMD entries from ``va`` resolves to."""
    return [(r.entry, r.effective_writable)
            for r in (pt.walk(va + i * PMD_SPAN) for i in range(count))]


# 2 MiB aligned, two PMD entries short of a 1 GiB (PMD node) boundary
_NEAR_PUD_END = 0x5000_0000_0000 + PUD_SPAN - 2 * PMD_SPAN


class TestBatchAttach:
    def test_holes_are_skipped(self):
        pt = PageTable()
        va = 0x5000_0000_0000
        leaves = _leaves([1, 0, 1, 1, 0])
        assert pt.attach_leaves(va, leaves, writable=True) == [0, 2, 3]
        for i, leaf in enumerate(leaves):
            result = pt.walk(va + i * PMD_SPAN)
            assert result.present == (leaf is not None)
            if leaf is not None:
                assert fte_lba(result.entry) == 7000 + i

    def test_batch_crosses_pmd_node_boundary(self):
        pt = PageTable()
        leaves = _leaves([1] * 5)
        assert pt.attach_leaves(_NEAR_PUD_END, leaves,
                                writable=False) == [0, 1, 2, 3, 4]
        for i in range(5):
            result = pt.walk(_NEAR_PUD_END + i * PMD_SPAN)
            assert fte_lba(result.entry) == 7000 + i
            assert not result.effective_writable
        # PGD + PUD + one PMD node on each side of the boundary
        assert pt.node_count() == 4 + 5

    def test_all_hole_node_is_not_created(self):
        pt = PageTable()
        assert pt.attach_leaves(_NEAR_PUD_END, _leaves([1, 1, 0, 0]),
                                writable=True) == [0, 1]
        assert pt.node_count() == 3 + 2

    @pytest.mark.parametrize("va", [0x5000_0000_1000,
                                    0x5000_0000_0000 + PMD_SPAN // 2])
    def test_unaligned_va_rejected(self, va):
        pt = PageTable()
        with pytest.raises(ValueError):
            pt.attach_leaves(va, _leaves([1]), writable=True)
        with pytest.raises(ValueError):
            pt.detach_leaves(va, [0])
        assert pt.node_count() == 1

    @pytest.mark.parametrize("taken", [0, 1, 3])
    def test_conflict_changes_nothing(self, taken):
        """Every target is checked before the first write: a batch that
        hits a mapped entry, here in its first or second PMD node,
        raises and leaves the page table as it was."""
        pt = PageTable()
        pt.attach_subtree(_NEAR_PUD_END + taken * PMD_SPAN,
                          _leaves([1])[0], writable=True)
        before = (_view(pt, _NEAR_PUD_END, 5), pt.node_count())
        with pytest.raises(ValueError, match="already mapped"):
            pt.attach_leaves(_NEAR_PUD_END, _leaves([1] * 5),
                             writable=False)
        assert (_view(pt, _NEAR_PUD_END, 5), pt.node_count()) == before

    def test_hole_over_mapped_entry_is_no_conflict(self):
        pt = PageTable()
        kept = _leaves([1])[0]
        pt.attach_subtree(_NEAR_PUD_END + PMD_SPAN, kept, writable=True)
        assert pt.attach_leaves(_NEAR_PUD_END, _leaves([1, 0, 1]),
                                writable=True) == [0, 2]
        assert pt.detach_subtree(_NEAR_PUD_END + PMD_SPAN,
                                 LEVEL_PT) is kept

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.lists(st.booleans(), max_size=12),
           st.booleans())
    def test_same_as_per_leaf_attach(self, back, pattern, writable):
        """Property: a batch attach walks exactly like one
        ``attach_subtree`` per leaf, and detaching every linked index
        leaves nothing reachable."""
        va = _NEAR_PUD_END - back * PMD_SPAN
        leaves = _leaves(pattern)
        batched, single = PageTable(), PageTable()
        linked = batched.attach_leaves(va, leaves, writable=writable)
        for i, leaf in enumerate(leaves):
            if leaf is not None:
                single.attach_subtree(va + i * PMD_SPAN, leaf,
                                      writable=writable)
        assert linked == [i for i, leaf in enumerate(leaves) if leaf]
        assert _view(batched, va, len(leaves)) == \
            _view(single, va, len(leaves))
        assert batched.node_count() == single.node_count()
        batched.detach_leaves(va, linked)
        assert not any(batched.walk(va + i * PMD_SPAN).present
                       for i in range(len(leaves)))

    @pytest.mark.parametrize("indices, kept", [
        ([1, 2], [0, 3, 4, 5]),              # contiguous, across nodes
        ({4, 0, 2}, [1, 3, 5]),              # unordered, with gaps
        ([], [0, 1, 2, 3, 4, 5]),
    ])
    def test_detach_leaves_only_the_given_indices(self, indices, kept):
        pt = PageTable()
        pt.attach_leaves(_NEAR_PUD_END, _leaves([1] * 6), writable=True)
        pt.detach_leaves(_NEAR_PUD_END, indices)
        assert [i for i in range(6)
                if pt.walk(_NEAR_PUD_END + i * PMD_SPAN).present] == kept

    def test_detach_negative_index_rejected(self):
        pt = PageTable()
        pt.attach_leaves(_NEAR_PUD_END, _leaves([1]), writable=True)
        with pytest.raises(ValueError):
            pt.detach_leaves(_NEAR_PUD_END + PMD_SPAN, [-1])
        assert pt.walk(_NEAR_PUD_END).present


class TestAccounting:
    def test_node_count_and_memory(self):
        pt = PageTable()
        assert pt.node_count() == 1  # just the PGD
        pt.map_page(0, pfn=1)
        # PGD + PUD + PMD + PT
        assert pt.node_count() == 4
        assert pt.memory_bytes() == 4 * PAGE_SIZE

    def test_present_count(self):
        node = PageTableNode(LEVEL_PT)
        node.entries[0] = pte_encode(1)
        node.entries[5] = pte_encode(2)
        assert node.present_count() == 2
        assert [i for i, _ in node.iter_present()] == [0, 5]
