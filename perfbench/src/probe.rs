//! Zero-dependency microprobes, one per layer: each times a fixed,
//! seeded stream of calls into one public entry point, in batches, and
//! reports the per-call median with min/max over the batches.

use crate::host::Summary;
use crate::units::{by_scheme, scheme_key, XLATE_SCHEMES};
use dvm_core::{flavor_for, MapFlavor, Os, OsConfig, SchemeId};
use dvm_energy::EnergyParams;
use dvm_mem::{BuddyAllocator, Dram, DramConfig, MachineConfig};
use dvm_mmu::{Iommu, MemSystem, SchemeDispatch};
use dvm_sim::DetRng;
use dvm_types::{AccessKind, DvmError, PageSize, Permission, PhysAddr};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe; the median is over these.
const BATCHES: usize = 11;
/// Accesses per batch of the memory-path probes.
const STREAM: usize = 100_000;
/// Bytes the access stream spans: past the 4K TLB's reach, inside the
/// 2M TLB's.
const REGION_BYTES: u64 = 64 << 20;
const MACHINE_BYTES: u64 = 1 << 30;

/// One probe's figure: metric name, unit and per-call summary.
pub struct Probe {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Time `BATCHES` runs of `batch`, which returns how many calls it
/// timed and their total seconds; report per-call figures in `scale`
/// units per second (1e9 for ns, 1e6 for us).
fn batches(mut batch: impl FnMut() -> (usize, f64), scale: f64) -> Summary {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (calls, secs) = batch();
            secs * scale / calls as f64
        })
        .collect();
    Summary::of(&samples)
}

/// A seeded stream of `(offset, kind)`: 8-byte aligned, uniform over
/// `bytes`, one write in four.
fn access_stream(rng: &mut DetRng, bytes: u64) -> Vec<(u64, AccessKind)> {
    (0..STREAM)
        .map(|_| {
            let kind = if rng.below(4) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (rng.below(bytes / 8) * 8, kind)
        })
        .collect()
}

fn machine(flavor: MapFlavor, bitmap: bool, mem_bytes: u64) -> Os {
    Os::new(OsConfig {
        machine: MachineConfig { mem_bytes },
        flavor,
        maintain_bitmap: bitmap,
        ..OsConfig::default()
    })
}

/// `MemSystem::access_via` under `scheme` over one mapped region.
fn mmu_access<D: SchemeDispatch>(
    scheme: SchemeId,
    stream: &[(u64, AccessKind)],
) -> Result<Summary, DvmError> {
    let mut os = machine(flavor_for(scheme), scheme.needs_bitmap(), MACHINE_BYTES);
    let pid = os.spawn()?;
    let base = os.mmap(pid, REGION_BYTES, Permission::ReadWrite)?;
    let pt = os.process(pid)?.page_table;
    let bitmap = os.bitmap;
    let mut iommu = Iommu::new(scheme, EnergyParams::default());
    let mut dram = Dram::new(DramConfig::default());
    let mut sys = MemSystem::new(
        &mut iommu,
        &pt,
        bitmap.as_ref(),
        &mut os.machine.mem,
        &mut dram,
    );
    let mut fault = None;
    let summary = batches(
        || {
            let start = Instant::now();
            for &(offset, kind) in stream {
                if let Err(f) = black_box(sys.access_via::<D>(base + black_box(offset), kind)) {
                    fault = Some(f);
                }
            }
            (stream.len(), start.elapsed().as_secs_f64())
        },
        1e9,
    );
    match fault {
        Some(f) => Err(f.into()),
        None => Ok(summary),
    }
}

/// `PageTable::walk` over a 4 KiB-paged region (four-level walks).
fn walk(stream: &[(u64, AccessKind)]) -> Result<Summary, DvmError> {
    let mut os = machine(MapFlavor::Paged(PageSize::Size4K), false, MACHINE_BYTES);
    let pid = os.spawn()?;
    let base = os.mmap(pid, REGION_BYTES, Permission::ReadWrite)?;
    let pt = os.process(pid)?.page_table;
    Ok(batches(
        || {
            let start = Instant::now();
            for &(offset, _) in stream {
                black_box(pt.walk(&os.machine.mem, base + black_box(offset)));
            }
            (stream.len(), start.elapsed().as_secs_f64())
        },
        1e9,
    ))
}

fn dram_access(stream: &[(u64, AccessKind)]) -> Summary {
    let mut dram = Dram::new(DramConfig::default());
    batches(
        || {
            let start = Instant::now();
            for &(offset, kind) in stream {
                black_box(dram.access(PhysAddr::new(black_box(offset)), kind));
            }
            (stream.len(), start.elapsed().as_secs_f64())
        },
        1e9,
    )
}

/// `alloc_frames` of 1..=8 frames, then `free_frames` of every range.
fn buddy(rng: &mut DetRng) -> (Summary, Summary) {
    const OPS: usize = 20_000;
    let sizes: Vec<u64> = (0..OPS).map(|_| rng.range(1, 9)).collect();
    let mut buddy = BuddyAllocator::new(MACHINE_BYTES >> 12);
    let mut free_samples = Vec::new();
    let alloc = batches(
        || {
            let start = Instant::now();
            let ranges: Vec<_> = sizes
                .iter()
                .map(|&n| {
                    buddy
                        .alloc_frames(black_box(n))
                        .expect("probe fits the machine")
                })
                .collect();
            let alloc_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            for range in ranges {
                buddy.free_frames(black_box(range));
            }
            free_samples.push(start.elapsed().as_secs_f64() * 1e9 / OPS as f64);
            (OPS, alloc_s)
        },
        1e9,
    );
    (alloc, Summary::of(&free_samples))
}

/// `Os::fork` and `Os::exit` of a CoW child of a process with four
/// 1 MiB regions, and `Os::mmap` of 64 KiB..1 MiB regions.
fn os_calls(rng: &mut DetRng) -> Result<(Summary, Summary, Summary), DvmError> {
    const FORKS: usize = 20;
    const MMAPS: usize = 50;
    let mut os = machine(MapFlavor::DvmPe, false, 512 << 20);
    let parent = os.spawn()?;
    for _ in 0..4 {
        os.mmap(parent, 1 << 20, Permission::ReadWrite)?;
    }
    let mut error = None;
    let mut exit_samples = Vec::new();
    let fork = batches(
        || {
            let (mut fork_s, mut exit_s) = (0.0, 0.0);
            for _ in 0..FORKS {
                let start = Instant::now();
                let child = os.fork(black_box(parent));
                fork_s += start.elapsed().as_secs_f64();
                let start = Instant::now();
                if let Err(e) = child.and_then(|c| os.exit(black_box(c))) {
                    error = Some(e);
                }
                exit_s += start.elapsed().as_secs_f64();
            }
            exit_samples.push(exit_s * 1e6 / FORKS as f64);
            (FORKS, fork_s)
        },
        1e6,
    );
    let sizes: Vec<u64> = (0..MMAPS).map(|_| rng.range(16, 257) << 12).collect();
    let mmap = batches(
        || {
            let pid = os.spawn();
            let start = Instant::now();
            let mapped = pid.and_then(|pid| {
                for &len in &sizes {
                    black_box(os.mmap(pid, black_box(len), Permission::ReadWrite)?);
                }
                Ok(pid)
            });
            let secs = start.elapsed().as_secs_f64();
            if let Err(e) = mapped.and_then(|pid| os.exit(pid)) {
                error = Some(e);
            }
            (MMAPS, secs)
        },
        1e6,
    );
    match error {
        Some(e) => Err(e),
        None => Ok((fork, Summary::of(&exit_samples), mmap)),
    }
}

/// Run every probe with streams drawn from `seed`.
pub fn run_all(seed: u64) -> Result<Vec<Probe>, DvmError> {
    let mut rng = DetRng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let stream = access_stream(&mut rng, REGION_BYTES);
    let mut probes = Vec::new();
    let mut push = |name: String, unit, summary| {
        probes.push(Probe {
            name,
            unit,
            summary,
        })
    };
    for scheme in XLATE_SCHEMES {
        let summary = by_scheme!(scheme, D => mmu_access::<D>(scheme, &stream))?;
        push(
            format!("mmu.access_ns.{}", scheme_key(scheme)),
            "ns",
            summary,
        );
    }
    let dram_stream = access_stream(&mut rng, MACHINE_BYTES);
    push("mem.dram_access_ns".into(), "ns", dram_access(&dram_stream));
    let (alloc, free) = buddy(&mut rng);
    push("mem.buddy_alloc_ns".into(), "ns", alloc);
    push("mem.buddy_free_ns".into(), "ns", free);
    push("pagetable.walk_ns".into(), "ns", walk(&stream)?);
    let (fork, exit, mmap) = os_calls(&mut rng)?;
    push("os.fork_us".into(), "us", fork);
    push("os.exit_us".into(), "us", exit);
    push("os.mmap_us".into(), "us", mmap);
    Ok(probes)
}
