//! Carrier crate for the extended (networked) test suite.
//!
//! The real content lives in `tests/` (proptest property suites moved out
//! of the individual crates). See `Cargo.toml` for why this package sits
//! outside the workspace.
