//! A zero-dependency failpoint registry for fault injection.
//!
//! Named sites in storage/engine/service call [`fire`]`("site.name")`; when a
//! failpoint is configured for that site the call injects a fault — an error
//! message for the caller to surface as its layer's typed error, a panic, or
//! a delay. With nothing configured, `fire` is a single relaxed atomic load,
//! cheap enough to leave in hot paths permanently.
//!
//! # Spec grammar
//!
//! Each site takes a spec of the form `[pct%][cnt*]kind[(arg)]`:
//!
//! - `error(msg)` — `fire` returns `Some(msg)`; the caller turns it into its
//!   layer's error type. `error` alone uses the site name as the message.
//! - `panic(msg)` — `fire` panics (exercises `catch_unwind` isolation).
//! - `delay(ms)` — `fire` sleeps `ms` milliseconds, then returns `None`
//!   (exercises deadline enforcement). `delay` alone sleeps 10 ms.
//! - `off` — removes the site.
//! - `25%error` — fires probabilistically, driven by the in-tree
//!   deterministic xoshiro RNG ([`set_seed`], `PQP_FAILPOINT_SEED`).
//! - `2*panic` — fires on the first 2 calls, then stays off.
//! - `50%3*delay(20)` — combinations compose: each call draws, at most 3 fire.
//!
//! # Configuration
//!
//! Programmatic: [`configure`]`("site", "spec")`, [`remove`], [`clear`].
//! From the environment: `PQP_FAILPOINTS="site=spec;site2=spec2"`, applied by
//! [`init_from_env`] (a binary calls it first thing in `main`).
//!
//! Site names follow a `<layer>.<site>` scheme (`storage.scan`,
//! `join.build`, `shard.lock`, `select.pref`, `select.budget`, `plan.cache`,
//! `service.query`) — see DESIGN.md §12 for the registry of meanings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::rng::{Rng, SmallRng};

#[derive(Debug, Clone, PartialEq)]
enum Action {
    Error(String),
    Panic(String),
    Delay(u64),
}

#[derive(Debug, Clone, PartialEq)]
struct Failpoint {
    /// Fire with this probability (1.0 = always).
    pct: f64,
    /// Remaining fires, `None` = unlimited.
    remaining: Option<u64>,
    action: Action,
}

/// Fast path: true iff at least one failpoint is registered. Keeps `fire`
/// at a single atomic load on unconfigured processes.
static ACTIVE: AtomicBool = AtomicBool::new(false);

struct State {
    sites: HashMap<String, Failpoint>,
    rng: SmallRng,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(State { sites: HashMap::new(), rng: SmallRng::seed_from_u64(DEFAULT_SEED) })
    })
}

const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

fn lock_state() -> std::sync::MutexGuard<'static, State> {
    // The registry must stay usable after a panic() action fired while the
    // lock was held mid-`fire` — recover the poison like storage's sync.
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// Re-seed the probability RNG (also `PQP_FAILPOINT_SEED` via
/// [`init_from_env`]). Same seed + same fire sequence = same draws.
pub fn set_seed(seed: u64) {
    lock_state().rng = SmallRng::seed_from_u64(seed);
}

/// Configure one site from a spec string (see module docs for the grammar).
/// `off` removes the site. Returns a description of the problem for an
/// unparsable spec.
pub fn configure(site: &str, spec: &str) -> Result<(), String> {
    let site = site.trim();
    if site.is_empty() {
        return Err("empty failpoint site name".into());
    }
    let spec = spec.trim();
    if spec == "off" {
        remove(site);
        return Ok(());
    }
    let parsed = parse_spec(site, spec)?;
    let mut st = lock_state();
    st.sites.insert(site.to_string(), parsed);
    ACTIVE.store(true, Ordering::Relaxed);
    Ok(())
}

/// Configure many sites at once from `site=spec;site2=spec2` (the
/// `PQP_FAILPOINTS` format). Empty segments are ignored.
pub fn configure_many(pairs: &str) -> Result<(), String> {
    for part in pairs.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, spec) = part
            .split_once('=')
            .ok_or_else(|| format!("failpoint segment without '=': {part:?}"))?;
        configure(site, spec)?;
    }
    Ok(())
}

/// Remove one site.
pub fn remove(site: &str) {
    let mut st = lock_state();
    st.sites.remove(site.trim());
    if st.sites.is_empty() {
        ACTIVE.store(false, Ordering::Relaxed);
    }
}

/// Remove every configured failpoint (chaos tests call this between cases).
pub fn clear() {
    let mut st = lock_state();
    st.sites.clear();
    ACTIVE.store(false, Ordering::Relaxed);
}

/// Currently configured site names (diagnostics).
pub fn active_sites() -> Vec<String> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Vec::new();
    }
    let mut names: Vec<String> = lock_state().sites.keys().cloned().collect();
    names.sort();
    names
}

/// Apply `PQP_FAILPOINTS` / `PQP_FAILPOINT_SEED` from the environment, once
/// per process (later calls are no-ops). Unparsable specs are ignored — a
/// bad env var must never take the service down.
pub fn init_from_env() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        if let Ok(seed) = std::env::var("PQP_FAILPOINT_SEED") {
            if let Ok(seed) = seed.trim().parse() {
                set_seed(seed);
            }
        }
        if let Ok(spec) = std::env::var("PQP_FAILPOINTS") {
            let _ = configure_many(&spec);
        }
    });
}

/// Evaluate the failpoint at `site`.
///
/// Returns `Some(message)` when an `error` action fires (the caller wraps it
/// in its layer's typed error), `None` otherwise. A `panic` action panics
/// here; a `delay` action sleeps here. With no failpoint configured anywhere
/// this is a single atomic load.
pub fn fire(site: &str) -> Option<String> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let action = {
        let mut st = lock_state();
        let (pct, remaining) = match st.sites.get(site) {
            Some(fp) => (fp.pct, fp.remaining),
            None => return None,
        };
        if remaining == Some(0) {
            return None;
        }
        if pct < 1.0 && st.rng.gen_f64() >= pct {
            return None;
        }
        let fp = st.sites.get_mut(site)?;
        if let Some(n) = fp.remaining.as_mut() {
            *n -= 1;
        }
        fp.action.clone()
    };
    crate::metrics::counter_add(&format!("failpoint.{site}"), 1);
    match action {
        Action::Error(msg) => Some(msg),
        Action::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        Action::Panic(msg) => panic!("failpoint {site}: {msg}"),
    }
}

fn parse_spec(site: &str, spec: &str) -> Result<Failpoint, String> {
    let mut rest = spec;
    let mut pct = 1.0f64;
    let mut remaining = None;
    if let Some((head, tail)) = rest.split_once('%') {
        pct = head
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("bad percentage in failpoint spec {spec:?}"))?
            / 100.0;
        if !(0.0..=1.0).contains(&pct) {
            return Err(format!("percentage out of range in failpoint spec {spec:?}"));
        }
        rest = tail;
    }
    if let Some((head, tail)) = rest.split_once('*') {
        remaining = Some(
            head.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad count in failpoint spec {spec:?}"))?,
        );
        rest = tail;
    }
    let rest = rest.trim();
    let (kind, arg) = match rest.split_once('(') {
        Some((kind, tail)) => {
            let arg = tail
                .strip_suffix(')')
                .ok_or_else(|| format!("unclosed '(' in failpoint spec {spec:?}"))?;
            (kind.trim(), Some(arg.trim()))
        }
        None => (rest, None),
    };
    let action = match kind {
        "error" => Action::Error(arg.unwrap_or(site).to_string()),
        "panic" => Action::Panic(arg.unwrap_or(site).to_string()),
        "delay" => {
            let ms = match arg {
                None | Some("") => 10,
                Some(a) => a
                    .parse()
                    .map_err(|_| format!("bad delay milliseconds in failpoint spec {spec:?}"))?,
            };
            Action::Delay(ms)
        }
        other => return Err(format!("unknown failpoint kind {other:?} in spec {spec:?}")),
    };
    Ok(Failpoint { pct, remaining, action })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The registry is process-global; serialize tests touching it.
    static GUARD: StdMutex<()> = StdMutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn inactive_site_is_silent() {
        let _g = exclusive();
        clear();
        assert_eq!(fire("storage.scan"), None);
        assert!(active_sites().is_empty());
    }

    #[test]
    fn error_action_returns_message_and_off_removes() {
        let _g = exclusive();
        clear();
        configure("storage.scan", "error(disk gremlin)").unwrap();
        assert_eq!(fire("storage.scan").as_deref(), Some("disk gremlin"));
        assert_eq!(fire("other.site"), None);
        configure("storage.scan", "off").unwrap();
        assert_eq!(fire("storage.scan"), None);
        clear();
    }

    #[test]
    fn error_without_arg_uses_site_name() {
        let _g = exclusive();
        clear();
        configure("join.build", "error").unwrap();
        assert_eq!(fire("join.build").as_deref(), Some("join.build"));
        clear();
    }

    #[test]
    fn count_limits_fires() {
        let _g = exclusive();
        clear();
        configure("plan.cache", "2*error(x)").unwrap();
        assert!(fire("plan.cache").is_some());
        assert!(fire("plan.cache").is_some());
        assert!(fire("plan.cache").is_none());
        assert!(fire("plan.cache").is_none());
        clear();
    }

    #[test]
    fn percentage_is_deterministic_for_a_seed() {
        let _g = exclusive();
        clear();
        set_seed(42);
        configure("select.pref", "30%error(p)").unwrap();
        let first: Vec<bool> = (0..64).map(|_| fire("select.pref").is_some()).collect();
        let hits = first.iter().filter(|h| **h).count();
        assert!(hits > 0 && hits < 64, "30% of 64 draws should be partial: {hits}");
        set_seed(42);
        let second: Vec<bool> = (0..64).map(|_| fire("select.pref").is_some()).collect();
        assert_eq!(first, second);
        clear();
    }

    #[test]
    fn delay_sleeps_at_least_requested() {
        let _g = exclusive();
        clear();
        configure("shard.lock", "delay(20)").unwrap();
        let t = std::time::Instant::now();
        assert_eq!(fire("shard.lock"), None);
        assert!(t.elapsed() >= Duration::from_millis(20));
        clear();
    }

    #[test]
    fn panic_action_panics_and_registry_survives() {
        let _g = exclusive();
        clear();
        configure("service.query", "1*panic(boom)").unwrap();
        let caught = std::panic::catch_unwind(|| fire("service.query"));
        assert!(caught.is_err());
        // Count was consumed; registry still works after the panic.
        assert_eq!(fire("service.query"), None);
        configure("service.query", "error(ok)").unwrap();
        assert_eq!(fire("service.query").as_deref(), Some("ok"));
        clear();
    }

    #[test]
    fn configure_many_parses_env_format() {
        let _g = exclusive();
        clear();
        configure_many("a.x=error(one); b.y=50%2*delay(5) ;; c.z=panic").unwrap();
        let mut sites = active_sites();
        sites.sort();
        assert_eq!(sites, ["a.x", "b.y", "c.z"]);
        assert_eq!(fire("a.x").as_deref(), Some("one"));
        clear();
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _g = exclusive();
        clear();
        assert!(configure("s", "explode").is_err());
        assert!(configure("s", "12x%error").is_err());
        assert!(configure("s", "101%error").is_err());
        assert!(configure("s", "q*error").is_err());
        assert!(configure("s", "error(unclosed").is_err());
        assert!(configure("s", "delay(abc)").is_err());
        assert!(configure("", "error").is_err());
        assert!(configure_many("no-equals-here").is_err());
        assert!(active_sites().is_empty());
        clear();
    }
}
