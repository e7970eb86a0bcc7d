//! # imre-bench
//!
//! Shared plumbing for the experiment benches. Each `benches/<target>.rs`
//! regenerates one table or figure of the paper and prints the same
//! rows/series the paper reports; see `DESIGN.md` §4 for the full index.
//!
//! Run everything with `cargo bench --workspace`, or a single experiment
//! with e.g. `cargo bench -p imre-bench --bench table4_performance`.
//!
//! Besides the paper benches the crate holds `micro_ops` (criterion rows for
//! the hot substrate operations) and the [`CountingAllocator`] behind the
//! `zero_alloc_*` tests. It keeps no performance record: how fast the system
//! serves, trains and publishes is measured by the repo benchmark
//! (`BENCHMARK.json`, `benchmark/README.md`), and two revisions are compared
//! with `scripts/ab.sh`.
//!
//! ## Environment knobs
//!
//! | Variable | Default | Effect |
//! |---|---|---|
//! | `IMRE_SEEDS` | 1 | seeds averaged per system (paper uses 5) |
//! | `IMRE_EPOCHS` | preset | training epochs override |
//! | `IMRE_FAST` | unset | set to any value for a quick smoke-scale run |

use imre_core::HyperParams;
use imre_corpus::DatasetConfig;
use imre_eval::Pipeline;

/// Number of seeds to average, from `IMRE_SEEDS` (default 1).
pub fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("IMRE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    (0..n.max(1)).map(|i| 100 + i * 37).collect()
}

/// Whether `IMRE_FAST` requests smoke-scale experiments.
pub fn fast_mode() -> bool {
    std::env::var("IMRE_FAST").is_ok()
}

/// The hyperparameters used by all experiment benches: the paper's scaled
/// settings, with an `IMRE_EPOCHS` override.
pub fn bench_hp() -> HyperParams {
    let mut hp = HyperParams::scaled();
    if let Some(e) = std::env::var("IMRE_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        hp.epochs = e;
    }
    hp
}

/// The two evaluation datasets (NYT-sim, GDS-sim) — or smoke-scale stand-ins
/// under `IMRE_FAST`.
pub fn dataset_configs() -> Vec<DatasetConfig> {
    if fast_mode() {
        let mut a = imre_eval::smoke_config(1);
        a.name = "NYT-sim(fast)".into();
        let mut b = imre_eval::smoke_config(2);
        b.name = "GDS-sim(fast)".into();
        vec![a, b]
    } else {
        vec![imre_corpus::nyt_sim(1), imre_corpus::gds_sim(2)]
    }
}

/// Builds the pipeline for one dataset config with the bench hyperparams.
pub fn build_pipeline(config: &DatasetConfig) -> Pipeline {
    Pipeline::build(config, bench_hp())
}

/// Prints the standard bench header.
pub fn header(experiment: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{experiment}  (reproduces {paper_ref})");
    println!("================================================================");
}

/// A `std::alloc::System` wrapper that counts heap allocations, for
/// install as a test binary's `#[global_allocator]`.
///
/// `alloc`, `alloc_zeroed`, and growth `realloc` each count as one
/// allocation; `dealloc` is free. The zero-allocation inference test
/// (`tests/zero_alloc_inference.rs`) uses the delta of
/// [`CountingAllocator::allocations`] across a warm forward pass to pin the
/// steady-state allocation budget of the tape hot path to exactly zero —
/// a stricter, process-global check than the pool-miss counters the serve
/// metrics report.
pub use alloc_counter::CountingAllocator;

mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// See the re-export docs on [`crate::CountingAllocator`].
    pub struct CountingAllocator;

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    impl CountingAllocator {
        /// Total heap allocations since process start.
        pub fn allocations() -> u64 {
            ALLOCATIONS.load(Ordering::Relaxed)
        }
    }

    // SAFETY: pure delegation to `System`; the counter is a relaxed atomic
    // and never allocates, so the impl upholds `GlobalAlloc`'s contract
    // wherever `System` does.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_default_and_positive() {
        let s = seeds();
        assert!(!s.is_empty());
    }

    #[test]
    fn dataset_configs_named() {
        // note: reads env; both branches produce two configs
        let cfgs = dataset_configs();
        assert_eq!(cfgs.len(), 2);
    }
}
