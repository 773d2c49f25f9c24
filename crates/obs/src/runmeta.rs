//! A shared run-metadata block stamped into every `results/*.json` writer.
//!
//! Bench trajectory files are only comparable across runs when each file
//! records the environment it was measured in (a number that depends on
//! threads means nothing without the host's core count). One helper, one
//! schema, every writer: [`run_meta`] returns the block, writers
//! `set("meta", ...)` it.

use crate::json::Json;

/// Version of the `results/*.json` envelope. Bump when the shape of the
/// shared metadata (or the conventions around it) changes incompatibly.
pub const RESULTS_SCHEMA_VERSION: i64 = 2;

/// The shared metadata block for a named bench run: schema version, bench
/// name, host parallelism and platform.
pub fn run_meta(bench: &str) -> Json {
    let host_cores = std::thread::available_parallelism().map(|n| n.get() as i64).unwrap_or(1);
    Json::obj()
        .set("schema_version", RESULTS_SCHEMA_VERSION)
        .set("bench", bench)
        .set("host_cores", host_cores)
        .set("os", std::env::consts::OS)
        .set("arch", std::env::consts::ARCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_block_has_the_shared_schema() {
        let m = run_meta("macro_load");
        assert_eq!(m.get("schema_version").unwrap().as_i64(), Some(RESULTS_SCHEMA_VERSION));
        assert_eq!(m.get("bench").unwrap().as_str(), Some("macro_load"));
        assert!(m.get("host_cores").unwrap().as_i64().unwrap() >= 1);
        assert!(m.get("os").unwrap().as_str().is_some());
        assert!(m.get("arch").unwrap().as_str().is_some());
    }
}
