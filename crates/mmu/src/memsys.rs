//! The accelerator-facing memory system: functional data access through
//! the IOMMU plus end-to-end latency accounting.
//!
//! Every typed accessor performs the *real* load/store against simulated
//! physical memory at the validated physical address, and returns the
//! access's total latency: `validation + data fetch` serialized, or
//! `max(validation, data fetch)` when the IOMMU allowed a DVM-PE+ preload
//! to overlap (paper Figure 4).

use crate::iommu::{Iommu, Validation};
use crate::memo::TranslationMemo;
use crate::scheme::{dispatch, SchemeDispatch};
use core::ops::Range;
use dvm_mem::{Dram, PhysMem};
use dvm_pagetable::{PageTable, PermBitmap};
use dvm_sim::Cycles;
use dvm_types::{AccessKind, Fault, PageSize, Permission, PhysAddr, VirtAddr, PAGE_SIZE};

/// A borrow-bundle tying one IOMMU to one process's address space for the
/// duration of an accelerator run.
#[derive(Debug)]
pub struct MemSystem<'a> {
    /// The IOMMU validating accesses.
    pub iommu: &'a mut Iommu,
    /// Page table of the process that offloaded the computation.
    pub pt: &'a PageTable,
    /// DVM-BM permission bitmap, when the configuration needs one.
    pub bitmap: Option<&'a PermBitmap>,
    /// Simulated physical memory.
    pub mem: &'a mut PhysMem,
    /// DRAM timing model.
    pub dram: &'a mut Dram,
    /// Memo for [`untimed_translate`](Self::untimed_translate); replace
    /// with [`TranslationMemo::disabled`] to force full walks.
    pub memo: TranslationMemo,
}

impl<'a> MemSystem<'a> {
    /// Bundle the borrows for one accelerator run, with translation
    /// memoization enabled.
    pub fn new(
        iommu: &'a mut Iommu,
        pt: &'a PageTable,
        bitmap: Option<&'a PermBitmap>,
        mem: &'a mut PhysMem,
        dram: &'a mut Dram,
    ) -> Self {
        Self {
            iommu,
            pt,
            bitmap,
            mem,
            dram,
            memo: TranslationMemo::new(),
        }
    }

    /// Translate `va` functionally — no cycles charged, no IOMMU state
    /// touched — memoizing the result per 4 KiB page. Equivalent to
    /// `self.pt.translate(self.mem, va)`: any page-table mutation bumps
    /// [`PhysMem::pt_gen`] and invalidates the memo.
    ///
    /// # Panics
    ///
    /// Panics if `va` is outside the canonical range (as `translate`).
    #[inline]
    pub fn untimed_translate(&self, va: VirtAddr) -> Option<(PhysAddr, Permission)> {
        let tag = (self.mem.pt_gen(), self.pt.root_frame());
        if let Some(hit) = self.memo.lookup(tag, va) {
            return Some(hit);
        }
        let (pa, perms) = self.pt.translate(self.mem, va)?;
        self.memo.store(tag, va, pa, perms);
        Some((pa, perms))
    }

    /// Validate an access and charge the data-fetch timing, without
    /// touching data (trace-driven mode).
    ///
    /// # Errors
    ///
    /// Propagates the IOMMU's [`Fault`].
    pub fn access(&mut self, va: VirtAddr, kind: AccessKind) -> Result<Cycles, Fault> {
        self.access_via::<dispatch::Dyn>(va, kind)
    }

    /// [`access`](Self::access) with a compile-time dispatch token (see
    /// [`SchemeDispatch`]); `D` must match the IOMMU's configured scheme.
    ///
    /// # Errors
    ///
    /// Propagates the IOMMU's [`Fault`].
    #[inline]
    pub fn access_via<D: SchemeDispatch>(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<Cycles, Fault> {
        let v = self.validate::<D>(va, kind)?;
        Ok(self.finish(va, kind, v))
    }

    #[inline]
    fn validate<D: SchemeDispatch>(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<Validation, Fault> {
        self.iommu
            .access_via::<D>(va, kind, self.pt, self.bitmap, self.mem, self.dram)
    }

    /// Load the row of `out.len()` `f32` lanes stored back to back at
    /// `va`; returns the latency. The row is one DRAM burst: lane 0 is
    /// validated and timed exactly as a 4-byte load by
    /// [`read_u32_via`](Self::read_u32_via), and every lane then moves
    /// from the validated PA, translated again (untimed) where the row
    /// crosses into the next 4 KiB page.
    ///
    /// # Errors
    ///
    /// Propagates the IOMMU's [`Fault`] for lane 0; nothing is read then.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 4-byte aligned or the row runs into an
    /// unmapped page.
    #[inline]
    pub fn read_row_f32_via<D: SchemeDispatch>(
        &mut self,
        va: VirtAddr,
        out: &mut [f32],
    ) -> Result<Cycles, Fault> {
        let v = self.validate::<D>(va, AccessKind::Read)?;
        let latency = self.finish(va, AccessKind::Read, v);
        self.row_pieces(va, v.pa, out.len(), |mem, pa, lanes| {
            mem.read_f32s(pa, &mut out[lanes]);
        });
        Ok(latency)
    }

    /// Store `values` as a row of `f32` lanes back to back at `va`;
    /// returns the latency. Lane 0 is validated and timed exactly as a
    /// 4-byte store by [`write_u32_via`](Self::write_u32_via); the rest
    /// moves as in [`read_row_f32_via`](Self::read_row_f32_via).
    ///
    /// # Errors
    ///
    /// Propagates the IOMMU's [`Fault`] for lane 0; nothing is written
    /// then.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 4-byte aligned or the row runs into an
    /// unmapped page.
    #[inline]
    pub fn write_row_f32_via<D: SchemeDispatch>(
        &mut self,
        va: VirtAddr,
        values: &[f32],
    ) -> Result<Cycles, Fault> {
        let v = self.validate::<D>(va, AccessKind::Write)?;
        let latency = self.finish(va, AccessKind::Write, v);
        self.row_pieces(va, v.pa, values.len(), |mem, pa, lanes| {
            mem.write_f32s(pa, &values[lanes]);
        });
        Ok(latency)
    }

    /// Call `piece(mem, pa, lanes)` for each page-contained run of the
    /// `len`-lane `f32` row at `va`, whose first page is at `pa`; later
    /// pages are translated untimed.
    #[inline]
    fn row_pieces(
        &mut self,
        va: VirtAddr,
        mut pa: PhysAddr,
        len: usize,
        mut piece: impl FnMut(&mut PhysMem, PhysAddr, Range<usize>),
    ) {
        assert!(va.raw().is_multiple_of(4), "f32 row at unaligned {va}");
        let (mut at, mut lane) = (va, 0);
        loop {
            let in_page = (PAGE_SIZE - at.page_offset(PageSize::Size4K)) / 4;
            let n = (len - lane).min(in_page as usize);
            piece(self.mem, pa, lane..lane + n);
            lane += n;
            if lane == len {
                return;
            }
            at = va + lane as u64 * 4;
            (pa, _) = self
                .untimed_translate(at)
                .unwrap_or_else(|| panic!("f32 row runs into unmapped {at}"));
        }
    }

    #[inline]
    fn finish(&mut self, va: VirtAddr, kind: AccessKind, v: Validation) -> Cycles {
        if v.squashed_preload {
            // The mispredicted preload consumed a DRAM transaction at the
            // predicted (identity) address before being discarded.
            let _ = self.dram.access(va.to_identity_pa(), AccessKind::Read);
        }
        let data_latency = self.dram.occupancy_access(v.pa, kind);
        if v.overlap {
            v.latency.max(data_latency)
        } else {
            v.latency + data_latency
        }
    }
}

macro_rules! typed {
    ($read:ident, $read_via:ident, $write:ident, $write_via:ident, $ty:ty,
     $mem_read:ident, $mem_write:ident) => {
        impl<'a> MemSystem<'a> {
            /// Load a value through the IOMMU; returns `(value, latency)`.
            ///
            /// # Errors
            ///
            /// Propagates the IOMMU's [`Fault`].
            pub fn $read(&mut self, va: VirtAddr) -> Result<($ty, Cycles), Fault> {
                self.$read_via::<dispatch::Dyn>(va)
            }

            /// Statically dispatched load (see [`SchemeDispatch`]).
            ///
            /// # Errors
            ///
            /// Propagates the IOMMU's [`Fault`].
            #[inline]
            pub fn $read_via<D: SchemeDispatch>(
                &mut self,
                va: VirtAddr,
            ) -> Result<($ty, Cycles), Fault> {
                let v = self.validate::<D>(va, AccessKind::Read)?;
                let latency = self.finish(va, AccessKind::Read, v);
                Ok((self.mem.$mem_read(v.pa), latency))
            }

            /// Store a value through the IOMMU; returns the latency.
            ///
            /// # Errors
            ///
            /// Propagates the IOMMU's [`Fault`].
            pub fn $write(&mut self, va: VirtAddr, value: $ty) -> Result<Cycles, Fault> {
                self.$write_via::<dispatch::Dyn>(va, value)
            }

            /// Statically dispatched store (see [`SchemeDispatch`]).
            ///
            /// # Errors
            ///
            /// Propagates the IOMMU's [`Fault`].
            #[inline]
            pub fn $write_via<D: SchemeDispatch>(
                &mut self,
                va: VirtAddr,
                value: $ty,
            ) -> Result<Cycles, Fault> {
                let v = self.validate::<D>(va, AccessKind::Write)?;
                let latency = self.finish(va, AccessKind::Write, v);
                self.mem.$mem_write(v.pa, value);
                Ok(latency)
            }
        }
    };
}

typed!(
    read_u32,
    read_u32_via,
    write_u32,
    write_u32_via,
    u32,
    read_u32,
    write_u32
);
typed!(
    read_u64,
    read_u64_via,
    write_u64,
    write_u64_via,
    u64,
    read_u64,
    write_u64
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeId;
    use dvm_energy::EnergyParams;
    use dvm_mem::{BuddyAllocator, Dram, DramConfig, PhysMem};
    use dvm_pagetable::PageTable;
    use dvm_types::{Permission, VirtAddr};

    fn harness() -> (PhysMem, BuddyAllocator, PageTable, Dram) {
        let mut mem = PhysMem::new(1 << 16);
        let mut alloc = BuddyAllocator::new(1 << 16);
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        // Reserve and identity-map a 2 MiB arena at 16 MiB.
        // (Frames are already free; we only need the mapping here.)
        pt.map_identity_pe(
            &mut mem,
            &mut alloc,
            VirtAddr::new(16 << 20),
            2 << 20,
            Permission::ReadWrite,
        )
        .unwrap();
        (mem, alloc, pt, Dram::new(DramConfig::default()))
    }

    #[test]
    fn functional_roundtrip_all_configs() {
        for config in SchemeId::PAPER_SET {
            if config == SchemeId::DVM_BM {
                continue; // exercised in the bitmap test below
            }
            let (mut mem, _alloc, pt, mut dram) = harness();
            let mut iommu = Iommu::new(config, EnergyParams::default());
            let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
            let va = VirtAddr::new((16 << 20) + 0x100);
            sys.write_u64(va, 0xfeed_f00d).unwrap();
            let (v, _) = sys.read_u64(va).unwrap();
            assert_eq!(v, 0xfeed_f00d, "config {config}");
        }
    }

    #[test]
    fn conventional_4k_uses_tables_with_leaves() {
        // The harness maps with PEs; for the conventional config we remap
        // with 4K leaves to honour the OS layout invariant.
        let mut mem = PhysMem::new(1 << 16);
        let mut alloc = BuddyAllocator::new(1 << 16);
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        pt.map_identity_leaves(
            &mut mem,
            &mut alloc,
            VirtAddr::new(16 << 20),
            1 << 20,
            Permission::ReadWrite,
            dvm_types::PageSize::Size4K,
        )
        .unwrap();
        let mut dram = Dram::new(DramConfig::default());
        let mut iommu = Iommu::new(SchemeId::CONV_4K, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        let va = VirtAddr::new(16 << 20);
        // First access: TLB miss + walk (4 steps, at least one DRAM ref).
        let lat1 = sys.access(va, AccessKind::Read).unwrap();
        // Second access same page: TLB hit -> 1 + pipelined data access.
        let lat2 = sys.access(va, AccessKind::Read).unwrap();
        assert!(lat1 > lat2, "walk must cost more than a TLB hit");
        assert_eq!(lat2, 1 + sys.dram.config().occupancy_cycles);
        assert_eq!(sys.iommu.tlb_stats().unwrap().misses(), 1);
        assert_eq!(sys.iommu.tlb_stats().unwrap().hits(), 1);
    }

    #[test]
    fn dvm_pe_plus_overlaps_reads_but_not_writes() {
        let (mut mem, _alloc, pt, mut dram) = harness();
        let mut iommu = Iommu::new(SchemeId::DVM_PE_PLUS, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        let va = VirtAddr::new((16 << 20) + 64);
        let data = sys.dram.config().occupancy_cycles;
        // Warm the AVC.
        let _ = sys.access(va, AccessKind::Read).unwrap();
        let read_lat = sys.access(va, AccessKind::Read).unwrap();
        let write_lat = sys.access(va, AccessKind::Write).unwrap();
        // Read: max(1-cycle pipelined DAV, data) == data. Write: 1 + data
        // (stores must validate before updating memory - paper Figure 4).
        assert_eq!(read_lat, data);
        assert_eq!(write_lat, 1 + data);
        assert!(sys.iommu.stats.preload_overlaps.get() >= 2);
        assert_eq!(sys.iommu.stats.preload_squashes.get(), 0);
    }

    #[test]
    fn dvm_bitmap_validates_and_falls_back() {
        let mut mem = PhysMem::new(1 << 16);
        let mut alloc = BuddyAllocator::new(1 << 16);
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        let bitmap = PermBitmap::new(&mut mem, &mut alloc, 1 << 30).unwrap();
        // Identity arena, recorded in the bitmap.
        pt.map_identity_pe(
            &mut mem,
            &mut alloc,
            VirtAddr::new(16 << 20),
            1 << 20,
            Permission::ReadWrite,
        )
        .unwrap();
        bitmap.set_bytes(
            &mut mem,
            VirtAddr::new(16 << 20),
            1 << 20,
            Permission::ReadWrite,
        );
        // A non-identity 4K page NOT in the bitmap (00 -> fallback).
        let alien_va = VirtAddr::new(64 << 20);
        let alien_pa = dvm_types::PhysAddr::new(32 << 20);
        pt.map_page(
            &mut mem,
            &mut alloc,
            alien_va,
            alien_pa,
            dvm_types::PageSize::Size4K,
            Permission::ReadWrite,
        )
        .unwrap();
        let mut dram = Dram::new(DramConfig::default());
        let mut iommu = Iommu::new(SchemeId::DVM_BM, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, Some(&bitmap), &mut mem, &mut dram);
        // Identity access validates via the bitmap.
        sys.write_u32(VirtAddr::new(16 << 20), 7).unwrap();
        assert_eq!(sys.iommu.stats.identity_validations.get(), 1);
        // Alien access falls back to translation and still works.
        sys.write_u32(alien_va, 9).unwrap();
        assert_eq!(sys.iommu.stats.fallback_translations.get(), 1);
        let (v, _) = sys.read_u32(alien_va).unwrap();
        assert_eq!(v, 9);
        // The data really landed at the alien PA.
        assert_eq!(sys.mem.read_u32(alien_pa), 9);
    }

    #[test]
    fn protection_fault_on_write_to_readonly() {
        let mut mem = PhysMem::new(1 << 16);
        let mut alloc = BuddyAllocator::new(1 << 16);
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        pt.map_identity_pe(
            &mut mem,
            &mut alloc,
            VirtAddr::new(16 << 20),
            128 * 1024,
            Permission::ReadOnly,
        )
        .unwrap();
        let mut dram = Dram::new(DramConfig::default());
        let mut iommu = Iommu::new(SchemeId::DVM_PE_PLUS, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        let va = VirtAddr::new(16 << 20);
        assert!(sys.read_u32(va).is_ok());
        let fault = sys.write_u32(va, 1).unwrap_err();
        assert_eq!(fault.kind, dvm_types::FaultKind::Protection);
        assert_eq!(sys.iommu.stats.faults.get(), 1);
        // Unmapped access faults as NotMapped (and squashes the preload).
        let fault = sys.read_u32(VirtAddr::new(900 << 20)).unwrap_err();
        assert_eq!(fault.kind, dvm_types::FaultKind::NotMapped);
        assert_eq!(sys.iommu.stats.preload_squashes.get(), 1);
    }

    #[test]
    fn rows_time_lane_zero_and_follow_the_page_table_across_pages() {
        // Two consecutive 4K virtual pages on physically distant frames.
        let (va, pa_lo, pa_hi) = (
            VirtAddr::new(64 << 20),
            dvm_types::PhysAddr::new(32 << 20),
            dvm_types::PhysAddr::new(40 << 20),
        );
        let observe = |row: bool| {
            let mut mem = PhysMem::new(1 << 16);
            let mut alloc = BuddyAllocator::new(1 << 16);
            let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
            for (page_va, pa) in [(va, pa_lo), (va + 4096, pa_hi)] {
                pt.map_page(
                    &mut mem,
                    &mut alloc,
                    page_va,
                    pa,
                    dvm_types::PageSize::Size4K,
                    Permission::ReadWrite,
                )
                .unwrap();
            }
            let mut dram = Dram::new(DramConfig::default());
            let mut iommu = Iommu::new(SchemeId::CONV_4K, EnergyParams::default());
            let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
            // Three lanes in the first page, five in the second.
            let start = va + (4096 - 12);
            let values: Vec<f32> = (1..=8).map(|i| i as f32 / 3.0).collect();
            let mut back = [0.0f32; 8];
            let lat = if row {
                let w = sys.write_row_f32_via::<dispatch::Dyn>(start, &values);
                let r = sys.read_row_f32_via::<dispatch::Dyn>(start, &mut back);
                (w.unwrap(), r.unwrap())
            } else {
                let w = sys.write_u32(start, values[0].to_bits());
                let r = sys.read_u32(start);
                back[0] = f32::from_bits(r.as_ref().unwrap().0);
                (w.unwrap(), r.unwrap().1)
            };
            let lanes: Vec<f32> = (0..3)
                .map(|i| sys.mem.read_f32(pa_lo + 4084 + i * 4))
                .chain((0..5).map(|i| sys.mem.read_f32(pa_hi + i * 4)))
                .collect();
            let stats = format!(
                "{:?} {:?} {:?} {} {}",
                sys.iommu.stats,
                sys.iommu.tlb_stats(),
                sys.iommu.energy,
                sys.dram.reads(),
                sys.dram.writes()
            );
            (lat, back, lanes, stats, values)
        };
        let (row_lat, row_back, row_lanes, row_stats, values) = observe(true);
        let (lane_lat, lane_back, _, lane_stats, _) = observe(false);
        assert_eq!(row_lat, lane_lat, "a row costs one timed lane-0 access");
        assert_eq!(row_stats, lane_stats, "and records the same events");
        assert_eq!(row_back[0], lane_back[0]);
        assert_eq!(row_lanes, values, "lanes land at the page table's PAs");
        assert_eq!(row_back.to_vec(), values);
    }

    #[test]
    fn ideal_has_zero_translation_latency() {
        let (mut mem, _alloc, pt, mut dram) = harness();
        let mut iommu = Iommu::new(SchemeId::IDEAL, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        let lat = sys
            .access(VirtAddr::new(16 << 20), AccessKind::Read)
            .unwrap();
        assert_eq!(lat, sys.dram.config().occupancy_cycles);
        assert_eq!(sys.iommu.energy.total_pj(), 0.0);
    }
}
