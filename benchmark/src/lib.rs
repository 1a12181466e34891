//! The flowzip performance ledger: see `benchmark/README.md`.

pub mod alloc;
pub mod battery;
pub mod child;
pub mod cli;
pub mod compare;
pub mod e2e;
pub mod fidelity;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod span;
pub mod stats;
pub mod workloads;

/// A scratch directory for one unit test, under the package's ignored
/// `out/` so tests write nowhere else.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}
