//! The repo's benchmark: four wire-level workloads measured end to end, and
//! an outside-in per-layer trace of the same requests. See `README.md`.

pub mod load;
pub mod report;
pub mod spec;
pub mod stack;
pub mod trace;
