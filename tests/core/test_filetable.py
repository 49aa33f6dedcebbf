"""Unit + property tests for file tables (FTE subtrees)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.filetable import PAGES_PER_LEAF, FileTable, build_file_table
from repro.hw.pagetable import (
    fte_devid, fte_encode, fte_lba, pte_present, pte_writable)
from repro.hw.params import DEFAULT_PARAMS


def entries(table):
    """All present (page-index, device-page) pairs."""
    out = []
    for leaf_idx, leaf in enumerate(table.leaves):
        if leaf is None:
            continue
        for slot, entry in leaf.iter_present():
            out.append((leaf_idx * PAGES_PER_LEAF + slot,
                        fte_lba(entry)))
    return out


class TestBuild:
    def test_single_run(self):
        t = build_file_table([(0, 1000, 10)], devid=1,
                             params=DEFAULT_PARAMS)
        assert t.pages == 10
        assert len(t.leaves) == 1
        assert entries(t) == [(i, 1000 + i) for i in range(10)]

    def test_multiple_runs(self):
        t = build_file_table([(0, 100, 3), (3, 900, 2)], devid=1,
                             params=DEFAULT_PARAMS)
        assert entries(t) == [(0, 100), (1, 101), (2, 102),
                              (3, 900), (4, 901)]

    def test_sparse_file_with_hole(self):
        """Extents need not start at page 0 (hole at the front)."""
        t = build_file_table([(4, 700, 2)], devid=1,
                             params=DEFAULT_PARAMS)
        assert t.pages == 6
        assert not t.has_entry(0)
        assert not t.has_entry(3)
        assert t.has_entry(4)
        assert entries(t) == [(4, 700), (5, 701)]

    def test_spans_leaves(self):
        t = build_file_table([(0, 0, PAGES_PER_LEAF + 5)], devid=1,
                             params=DEFAULT_PARAMS)
        assert len(t.leaves) == 2
        assert t.pages == PAGES_PER_LEAF + 5

    def test_hole_spanning_whole_leaf_leaves_it_unallocated(self):
        t = build_file_table(
            [(0, 10, 1), (2 * PAGES_PER_LEAF, 900, 1)], devid=1,
            params=DEFAULT_PARAMS)
        assert t.leaves[1] is None  # entirely a hole: no memory spent
        assert t.memory_bytes() == 2 * 4096

    def test_devid_stamped(self):
        t = build_file_table([(0, 7, 1)], devid=5, params=DEFAULT_PARAMS)
        assert fte_devid(t.leaves[0].entries[0]) == 5

    def test_entries_max_permission(self):
        """Shared FTEs carry R/W; the private attach point narrows."""
        t = build_file_table([(0, 7, 1)], devid=1, params=DEFAULT_PARAMS)
        assert pte_writable(t.leaves[0].entries[0])

    def test_build_cost_linear(self):
        small = build_file_table([(0, 0, 16)], 1, DEFAULT_PARAMS)
        large = build_file_table([(0, 0, 1600)], 1, DEFAULT_PARAMS)
        assert large.build_cost_ns == 100 * small.build_cost_ns


class TestSetRange:
    def test_tail_growth_in_place(self):
        t = build_file_table([(0, 0, 10)], 1, DEFAULT_PARAMS)
        new_leaves, _ = t.set_range(10, 500, 5, DEFAULT_PARAMS)
        assert new_leaves == []
        assert t.pages == 15
        assert entries(t)[-1] == (14, 504)

    def test_growth_allocates_leaf_on_overflow(self):
        t = build_file_table([(0, 0, PAGES_PER_LEAF - 2)], 1,
                             DEFAULT_PARAMS)
        new_leaves, _ = t.set_range(PAGES_PER_LEAF - 2, 900, 5,
                                    DEFAULT_PARAMS)
        assert new_leaves == [1]
        assert len(t.leaves) == 2

    def test_hole_fill_in_place(self):
        """Filling a hole inside an existing leaf needs no attach."""
        t = build_file_table([(0, 10, 1), (4, 20, 1)], 1,
                             DEFAULT_PARAMS)
        new_leaves, _ = t.set_range(2, 777, 1, DEFAULT_PARAMS)
        assert new_leaves == []
        assert t.has_entry(2)
        assert dict(entries(t))[2] == 777

    def test_empty_table_growth(self):
        t = FileTable(devid=1)
        new_leaves, _ = t.set_range(0, 10, 3, DEFAULT_PARAMS)
        assert new_leaves == [0]
        assert t.pages == 3

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            FileTable(devid=1).set_range(0, 0, 0, DEFAULT_PARAMS)

    def test_overwrite_remap_updates_entry(self):
        t = build_file_table([(0, 10, 1)], 1, DEFAULT_PARAMS)
        t.set_range(0, 99, 1, DEFAULT_PARAMS)
        assert dict(entries(t))[0] == 99


class TestTruncate:
    def test_truncate_clears_entries(self):
        t = build_file_table([(0, 0, 10)], 1, DEFAULT_PARAMS)
        dead = t.truncate_pages(4)
        assert dead == []
        assert t.pages == 4
        assert not t.has_entry(4)
        assert t.has_entry(3)

    def test_truncate_drops_leaves(self):
        t = build_file_table([(0, 0, 2 * PAGES_PER_LEAF)], 1,
                             DEFAULT_PARAMS)
        dead = t.truncate_pages(10)
        assert dead == [1]
        assert len(t.leaves) == 1

    def test_truncate_to_zero(self):
        t = build_file_table([(0, 0, 5)], 1, DEFAULT_PARAMS)
        dead = t.truncate_pages(0)
        assert dead == [0]
        assert t.pages == 0
        assert t.leaves == []

    def test_truncate_noop_beyond_size(self):
        t = build_file_table([(0, 0, 5)], 1, DEFAULT_PARAMS)
        assert t.truncate_pages(10) == []
        assert t.pages == 5

    def test_truncate_skips_hole_leaves(self):
        t = build_file_table(
            [(0, 10, 1), (2 * PAGES_PER_LEAF, 900, 1)], devid=1,
            params=DEFAULT_PARAMS)
        dead = t.truncate_pages(1)
        assert dead == [2]  # the hole leaf (index 1) was never real

    def test_negative_rejected(self):
        t = FileTable(devid=1)
        with pytest.raises(ValueError):
            t.truncate_pages(-1)


class TestDensityInvariant:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["extend", "truncate"]),
                              st.integers(1, 700)), max_size=20))
    def test_grow_shrink_keeps_density(self, ops):
        """Property: tail-only grow/shrink keeps entries dense in
        [0, pages) — the paper's common-case growth pattern."""
        t = FileTable(devid=1)
        phys = 0
        for op, n in ops:
            if op == "extend":
                t.set_range(t.pages, phys, n, DEFAULT_PARAMS)
                phys += n
            else:
                t.truncate_pages(max(0, t.pages - n))
            t.check_dense()
            assert t.entry_count() == t.pages

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1200), st.integers(1, 64)),
                    max_size=16))
    def test_sparse_writes_match_dict_model(self, ranges):
        """Property: arbitrary-order range installs behave like a dict
        of page -> device page."""
        t = FileTable(devid=1)
        model = {}
        phys = 1
        for logical, count in ranges:
            t.set_range(logical, phys, count, DEFAULT_PARAMS)
            for i in range(count):
                model[logical + i] = phys + i
            phys += count + 3
        assert dict(entries(t)) == model
        assert t.entry_count() == len(model)


class TestRejectedRange:
    """A range whose DevID or LBAs do not encode changes nothing."""

    def snapshot(self, t):
        return ([None if leaf is None else list(leaf.entries)
                 for leaf in t.leaves], t.pages, t.build_cost_ns)

    def test_bad_devid_on_empty_table(self):
        t = FileTable(devid=64)
        with pytest.raises(ValueError):
            t.set_range(1000, 5, 3, DEFAULT_PARAMS)
        assert t.leaves == []
        assert (t.pages, t.build_cost_ns) == (0, 0)

    def test_last_lba_out_of_range(self):
        t = FileTable(devid=1)
        with pytest.raises(ValueError):
            t.set_range(0, 2 ** 40 - 2, 600, DEFAULT_PARAMS)
        assert t.leaves == []
        assert (t.pages, t.build_cost_ns) == (0, 0)

    @pytest.mark.parametrize("logical, device_page, count", [
        (0, 2 ** 40 - 2, 600),             # runs past the last LBA
        (3 * PAGES_PER_LEAF, -1, 4),       # negative LBA, new leaves
        (PAGES_PER_LEAF - 1, 2 ** 40, 2),  # first LBA already too big
        (-1, 10, 4),                       # negative logical page
    ])
    def test_populated_table_unchanged(self, logical, device_page, count):
        t = build_file_table([(0, 50, 10), (PAGES_PER_LEAF, 900, 4)],
                             devid=1, params=DEFAULT_PARAMS)
        before = self.snapshot(t)
        with pytest.raises(ValueError):
            t.set_range(logical, device_page, count, DEFAULT_PARAMS)
        assert self.snapshot(t) == before

    def test_max_lba_is_last_entry_of_a_run(self):
        t = FileTable(devid=3)
        t.set_range(PAGES_PER_LEAF - 2, 2 ** 40 - 4, 4, DEFAULT_PARAMS)
        assert entries(t)[-1] == (PAGES_PER_LEAF + 1, 2 ** 40 - 1)
        assert t.leaves[1].entries[1] == fte_encode(2 ** 40 - 1, 3)


class ReferenceTable:
    """Page-at-a-time model of a file table: every FTE is encoded on
    its own through ``fte_encode``, and a range that fails to encode is
    rejected before anything changes."""

    def __init__(self, devid):
        self.devid = devid
        self.leaves = []
        self.pages = 0
        self.build_cost_ns = 0

    def set_range(self, logical, device_page, count, params):
        if logical < 0:
            raise ValueError("negative logical page")
        encoded = [fte_encode(device_page + i, self.devid, writable=True)
                   for i in range(count)]
        new_leaves = []
        for i, entry in enumerate(encoded):
            leaf_idx, slot = divmod(logical + i, PAGES_PER_LEAF)
            while len(self.leaves) <= leaf_idx:
                self.leaves.append(None)
            if self.leaves[leaf_idx] is None:
                self.leaves[leaf_idx] = [0] * PAGES_PER_LEAF
                new_leaves.append(leaf_idx)
            self.leaves[leaf_idx][slot] = entry
        self.pages = max(self.pages, logical + count)
        cost = count * params.fte_write_ns
        self.build_cost_ns += cost
        return new_leaves, cost

    def truncate_pages(self, keep_pages):
        if keep_pages >= self.pages:
            return []
        for page in range(keep_pages, self.pages):
            leaf_idx, slot = divmod(page, PAGES_PER_LEAF)
            if self.leaves[leaf_idx] is not None:
                self.leaves[leaf_idx][slot] = 0
        first_dead = -(-keep_pages // PAGES_PER_LEAF)
        dead = [idx for idx in range(first_dead, len(self.leaves))
                if self.leaves[idx] is not None]
        del self.leaves[first_dead:]
        self.pages = keep_pages
        return dead


_RUN = st.tuples(
    st.just("set"),
    st.integers(0, 3 * PAGES_PER_LEAF),                  # logical page
    st.one_of(st.integers(0, 1 << 20),                   # device page
              st.integers(2 ** 40 - 2 * PAGES_PER_LEAF, 2 ** 40)),
    st.integers(1, PAGES_PER_LEAF + 64))                 # page count
_TRUNCATE = st.tuples(st.just("truncate"),
                      st.integers(0, 4 * PAGES_PER_LEAF))


class TestSliceFillMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 0x3F),
           st.lists(st.one_of(_RUN, _TRUNCATE), max_size=12))
    def test_entry_by_entry(self, devid, ops):
        """Property: runs straddling leaves, sparse runs, overwrites
        and interleaved truncates leave the slice-filled table equal,
        entry by entry, to one filled a page at a time."""
        t, ref = FileTable(devid=devid), ReferenceTable(devid)
        for op in ops:
            if op[0] == "truncate":
                assert t.truncate_pages(op[1]) == ref.truncate_pages(op[1])
            else:
                _, logical, device_page, count = op
                try:
                    expected = ref.set_range(logical, device_page, count,
                                             DEFAULT_PARAMS)
                except ValueError:
                    with pytest.raises(ValueError):
                        t.set_range(logical, device_page, count,
                                    DEFAULT_PARAMS)
                else:
                    assert t.set_range(logical, device_page, count,
                                       DEFAULT_PARAMS) == expected
            assert [None if leaf is None else list(leaf.entries)
                    for leaf in t.leaves] == ref.leaves
            assert (t.pages, t.build_cost_ns) == (ref.pages,
                                                  ref.build_cost_ns)


_APPEND = st.tuples(st.just("append"), st.integers(1, PAGES_PER_LEAF + 64))


def _pending_view(t):
    """Every leaf's entries, read without building any leaf's array."""
    return [None if leaf is None
            else [leaf.entry(slot) for slot in range(PAGES_PER_LEAF)]
            for leaf in t.leaves]


class TestStorageFormsMatchReference:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 0x3F),
           st.lists(st.one_of(_RUN, _TRUNCATE, _APPEND), max_size=12))
    def test_pending_packed_and_reference_agree(self, devid, ops):
        """Property: the same set_range/truncate_pages sequence gives
        the same entries, counts and build cost whether the leaves stay
        pending (never walked), are packed after every step, or are
        filled a page at a time.  Appends continue the last run on the
        device, so a pending leaf also grows in place."""
        pending, packed = FileTable(devid=devid), FileTable(devid=devid)
        ref = ReferenceTable(devid)
        next_device_page = 0
        for op in ops:
            if op[0] == "truncate":
                dead = ref.truncate_pages(op[1])
                assert pending.truncate_pages(op[1]) == dead
                assert packed.truncate_pages(op[1]) == dead
            else:
                if op[0] == "append":
                    logical, device_page, count = (
                        ref.pages, next_device_page, op[1])
                else:
                    _, logical, device_page, count = op
                try:
                    expected = ref.set_range(logical, device_page, count,
                                             DEFAULT_PARAMS)
                except ValueError:
                    for t in (pending, packed):
                        with pytest.raises(ValueError):
                            t.set_range(logical, device_page, count,
                                        DEFAULT_PARAMS)
                    continue
                for t in (pending, packed):
                    assert t.set_range(logical, device_page, count,
                                       DEFAULT_PARAMS) == expected
                next_device_page = device_page + count
            for leaf in packed.leaves:
                if leaf is not None:
                    leaf.materialise()
            count = sum(1 for leaf in ref.leaves if leaf is not None
                        for entry in leaf if pte_present(entry))
            for t in (pending, packed):
                assert _pending_view(t) == ref.leaves
                assert t.entry_count() == count
                assert (t.pages, t.build_cost_ns) == (ref.pages,
                                                      ref.build_cost_ns)
        assert [None if leaf is None else list(leaf.entries)
                for leaf in pending.leaves] == ref.leaves

    def test_one_run_per_leaf_stays_pending(self):
        """Leaf-sized extents, a tail append that continues the last
        one and a truncate build no leaf array; a walk builds one."""
        t = build_file_table([(0, 4096, 2 * PAGES_PER_LEAF),
                              (2 * PAGES_PER_LEAF, 100, 7)],
                             devid=1, params=DEFAULT_PARAMS)
        t.set_range(2 * PAGES_PER_LEAF + 7, 107, 3, DEFAULT_PARAMS)
        t.truncate_pages(2 * PAGES_PER_LEAF + 5)
        t.check_dense()
        assert t.entry_count() == t.pages
        assert [leaf.materialised for leaf in t.leaves] == [False] * 3
        assert fte_lba(t.leaves[2].entries[4]) == 104
        assert [leaf.materialised for leaf in t.leaves] == [
            False, False, True]
