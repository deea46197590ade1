//! Operations that run out of memory part-way must give back what they
//! took: an out-of-memory `fork` exits its half-built child, a
//! demand-paged `mmap` that cannot map its chunks frees them, and a CoW
//! copy that cannot be mapped frees the copy. The churn drain then ends
//! with the allocator at its boot state.

use dvm_mem::MachineConfig;
use dvm_os::{churn, ChurnConfig, MapFlavor, Os, OsConfig};
use dvm_types::{DvmError, Permission};

/// DVM-PE churn schedules that hit those failures: seed 45 has two
/// failed forks, and seeds 44, 45 and 54 each have a demand-paged
/// `mmap` that runs out of table frames.
const OOM_SEEDS: [u64; 3] = [44, 45, 54];

#[test]
fn oom_churn_schedules_leak_no_frames() {
    for seed in OOM_SEEDS {
        let result = churn::run(&ChurnConfig {
            seed,
            flavor: MapFlavor::DvmPe,
            ..Default::default()
        })
        .expect("churn runs to completion");
        assert_eq!(result.leaked_frames, 0, "seed {seed}");
    }
}

#[test]
fn cow_copy_that_cannot_be_mapped_is_freed() {
    let mut os = Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: 64 << 20,
        },
        ..OsConfig::default()
    });
    let parent = os.spawn().unwrap();
    let va = os.mmap(parent, 2 << 20, Permission::ReadWrite).unwrap();
    let child = os.fork(parent).unwrap();
    // One free frame: enough for the copy, not for the L1 table that
    // demoting the region's Permission Entry needs.
    while os.machine.allocator.free_frames_count() > 1 {
        os.machine.allocator.alloc_frame().unwrap();
    }
    let write = os.write_u64(child, va, 7);
    assert!(
        matches!(write, Err(DvmError::OutOfMemory { .. })),
        "{write:?}"
    );
    assert_eq!(os.machine.allocator.free_frames_count(), 1);
    assert_eq!(os.read_u64(child, va).unwrap(), 0);
}
