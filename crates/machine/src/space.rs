//! Per-domain address spaces: page tables mapping virtual pages to frames
//! or MMIO regions.

use crate::mem::PAGE_SIZE;

/// Identifier of an address space (one per domain).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpaceId(pub usize);

/// What a mapped page refers to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PageKind {
    /// Ordinary RAM (the entry's `pfn` is a physical frame).
    Ram,
    /// Memory-mapped I/O owned by device `id`; loads/stores are routed to
    /// [`crate::Env::mmio_read`] / [`crate::Env::mmio_write`].
    Mmio(u32),
}

/// A page table entry.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PageEntry {
    /// Physical frame number (for [`PageKind::Ram`]) or device-relative
    /// page index (for [`PageKind::Mmio`]).
    pub pfn: u64,
    /// Whether stores are permitted.
    pub writable: bool,
    /// RAM or MMIO.
    pub kind: PageKind,
}

impl PageEntry {
    /// A RAM entry.
    pub fn ram(pfn: u64, writable: bool) -> PageEntry {
        PageEntry {
            pfn,
            writable,
            kind: PageKind::Ram,
        }
    }

    /// An MMIO entry for device `dev`, page `page` of its register window.
    pub fn mmio(dev: u32, page: u64) -> PageEntry {
        PageEntry {
            pfn: page,
            writable: true,
            kind: PageKind::Mmio(dev),
        }
    }
}

/// Result of a successful translation.
#[derive(Copy, Clone, Debug)]
pub struct Translation {
    /// The page entry.
    pub entry: PageEntry,
    /// Offset within the page.
    pub offset: u64,
}

/// Virtual page numbers one leaf of a [`PageTable`] covers (4 MiB).
const LEAF_PAGES: u64 = 1024;

/// Leaves a [`PageTable`] directory holds: together they cover the modelled
/// machine's 32-bit virtual address space (2^20 pages).
const DIR_LEAVES: usize = 1024;

/// One leaf: the entries of [`LEAF_PAGES`] consecutive virtual pages.
type Leaf = Box<[Option<PageEntry>]>;

/// A two-level page table over the 20-bit virtual page number, like the
/// modelled x86-32 MMU's: a directory of 1024 leaves, each allocated on
/// the first mapping inside its 4 MiB. A lookup is two indexed loads.
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    /// Empty until the first mapping, then [`DIR_LEAVES`] long.
    dir: Vec<Option<Leaf>>,
    mapped: usize,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Maps the page containing `vaddr` (which is rounded down).
    /// Returns the previous entry, if any.
    ///
    /// # Panics
    ///
    /// Panics if `vaddr` lies outside the 32-bit virtual address space
    /// (a simulator bug: every modelled address is 32-bit).
    pub fn map(&mut self, vaddr: u64, entry: PageEntry) -> Option<PageEntry> {
        let vpn = vaddr / PAGE_SIZE;
        let leaf = (vpn / LEAF_PAGES) as usize;
        assert!(
            leaf < DIR_LEAVES,
            "{vaddr:#x} is outside the 32-bit virtual address space"
        );
        if self.dir.is_empty() {
            self.dir.resize_with(DIR_LEAVES, || None);
        }
        let leaf = self.dir[leaf].get_or_insert_with(|| vec![None; LEAF_PAGES as usize].into());
        let prev = leaf[(vpn % LEAF_PAGES) as usize].replace(entry);
        if prev.is_none() {
            self.mapped += 1;
        }
        prev
    }

    /// Removes the mapping for the page containing `vaddr`.
    pub fn unmap(&mut self, vaddr: u64) -> Option<PageEntry> {
        let vpn = vaddr / PAGE_SIZE;
        let leaf = self.dir.get_mut((vpn / LEAF_PAGES) as usize)?.as_mut()?;
        let prev = leaf[(vpn % LEAF_PAGES) as usize].take();
        if prev.is_some() {
            self.mapped -= 1;
        }
        prev
    }

    /// Looks up the entry for the page containing `vaddr`.
    #[inline]
    pub fn lookup(&self, vaddr: u64) -> Option<PageEntry> {
        let vpn = vaddr / PAGE_SIZE;
        let leaf = self.dir.get((vpn / LEAF_PAGES) as usize)?.as_ref()?;
        leaf[(vpn % LEAF_PAGES) as usize]
    }

    /// Whether the page containing `vaddr` is mapped.
    pub fn is_mapped(&self, vaddr: u64) -> bool {
        self.lookup(vaddr).is_some()
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Iterates over `(virtual page base address, entry)` pairs in
    /// ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, PageEntry)> + '_ {
        self.dir.iter().enumerate().flat_map(|(l, leaf)| {
            leaf.iter().flat_map(move |leaf| {
                leaf.iter().enumerate().filter_map(move |(i, e)| {
                    e.map(|e| ((l as u64 * LEAF_PAGES + i as u64) * PAGE_SIZE, e))
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_lookup_unmap() {
        let mut t = PageTable::new();
        assert!(t.lookup(0x1000).is_none());
        t.map(0x1234, PageEntry::ram(7, true));
        // Same page, any offset.
        assert_eq!(t.lookup(0x1000).unwrap().pfn, 7);
        assert_eq!(t.lookup(0x1fff).unwrap().pfn, 7);
        assert!(t.lookup(0x2000).is_none());
        assert!(t.unmap(0x1800).is_some());
        assert!(t.lookup(0x1000).is_none());
    }

    #[test]
    fn remap_returns_previous() {
        let mut t = PageTable::new();
        assert!(t.map(0x1000, PageEntry::ram(1, true)).is_none());
        let prev = t.map(0x1000, PageEntry::ram(2, false)).unwrap();
        assert_eq!(prev.pfn, 1);
        let cur = t.lookup(0x1000).unwrap();
        assert_eq!(cur.pfn, 2);
        assert!(!cur.writable);
    }

    #[test]
    fn mmio_entries() {
        let mut t = PageTable::new();
        t.map(0xE000_0000, PageEntry::mmio(3, 0));
        let e = t.lookup(0xE000_0000).unwrap();
        assert_eq!(e.kind, PageKind::Mmio(3));
    }

    #[test]
    fn iter_counts() {
        let mut t = PageTable::new();
        t.map(0x1000, PageEntry::ram(1, true));
        t.map(0x3000, PageEntry::ram(2, true));
        assert_eq!(t.mapped_pages(), 2);
        let mut bases: Vec<u64> = t.iter().map(|(b, _)| b).collect();
        bases.sort_unstable();
        assert_eq!(bases, vec![0x1000, 0x3000]);
    }

    #[test]
    fn addresses_past_32_bits_are_unmapped() {
        let mut t = PageTable::new();
        t.map(0xFFFF_F000, PageEntry::ram(1, true));
        assert!(t.lookup(0xFFFF_FFFF).is_some());
        assert!(t.lookup(0x1_0000_0000).is_none());
        assert!(t.unmap(0x1_0000_0000).is_none());
        assert_eq!(t.mapped_pages(), 1);
        assert_eq!(t.iter().next().map(|(b, _)| b), Some(0xFFFF_F000));
    }

    #[test]
    #[should_panic(expected = "outside the 32-bit")]
    fn mapping_past_32_bits_panics() {
        PageTable::new().map(0x1_0000_0000, PageEntry::ram(1, true));
    }
}
