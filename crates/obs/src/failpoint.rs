//! A zero-dependency failpoint registry for fault injection, one per node.
//!
//! A [`Failpoints`] handle is cheap to clone (an `Arc`) and every clone
//! sees the same sites. Each `pqp_storage::Catalog` owns one, so every
//! layer serving from that catalog — executor, service, server, replication
//! — fires its sites on the same registry, and two services in one process
//! never see each other's faults. Named sites call
//! [`Failpoints::fire`]`("site.name")`; when a failpoint is configured for
//! that site the call injects a fault — an error message for the caller to
//! surface as its layer's typed error, a panic, or a delay. With nothing
//! configured, `fire` is a single relaxed atomic load, cheap enough to
//! leave in hot paths permanently.
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
//!   deterministic xoshiro RNG ([`Failpoints::set_seed`]).
//! - `2*panic` — fires on the first 2 calls, then stays off.
//! - `50%3*delay(20)` — combinations compose: each call draws, at most 3 fire.
//!
//! # Configuration
//!
//! [`Failpoints::configure`], [`Failpoints::remove`], [`Failpoints::clear`],
//! and [`Failpoints::configure_many`] for a `site=spec;site2=spec2` list (the
//! `PQP_FAILPOINTS` format `pqp-server` reads). A multi-site spec arms all of
//! its sites or none.
//!
//! Site names follow a `<layer>.<site>` scheme (`storage.scan`,
//! `join.build`, `shard.lock`, `select.pref`, `select.budget`, `plan.cache`,
//! `service.query`) — see DESIGN.md §12 for the registry of meanings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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

/// A failpoint registry: the sites armed on one node, their fire counts and
/// the RNG behind probabilistic specs. Clones share the registry.
#[derive(Clone, Default)]
pub struct Failpoints {
    inner: Arc<Registry>,
}

struct Registry {
    /// Fast path: true iff at least one site is armed. Keeps `fire` at a
    /// single atomic load on an unconfigured node.
    active: AtomicBool,
    state: Mutex<State>,
}

struct State {
    sites: HashMap<String, Failpoint>,
    /// How often each site has fired, kept across `remove` and `clear`.
    fired: HashMap<String, u64>,
    rng: SmallRng,
}

const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl Default for Registry {
    fn default() -> Registry {
        let rng = SmallRng::seed_from_u64(DEFAULT_SEED);
        let state = State { sites: HashMap::new(), fired: HashMap::new(), rng };
        Registry { active: AtomicBool::new(false), state: Mutex::new(state) }
    }
}

/// A parsed `site=spec` pair; `None` is `off`.
type Setting = (String, Option<Failpoint>);

impl Failpoints {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update is a single map insert or remove, so the state is
        // valid after any panic: recover the poison like storage's sync.
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Re-seed the probability RNG. Same seed + same fire sequence = same
    /// draws.
    pub fn set_seed(&self, seed: u64) {
        self.lock().rng = SmallRng::seed_from_u64(seed);
    }

    /// Configure one site from a spec string (see module docs for the
    /// grammar). `off` removes the site. Returns a description of the
    /// problem for an unparsable spec.
    pub fn configure(&self, site: &str, spec: &str) -> Result<(), String> {
        let setting = parse_setting(site, spec)?;
        self.apply([setting]);
        Ok(())
    }

    /// Configure many sites at once from `site=spec;site2=spec2` (the
    /// `PQP_FAILPOINTS` format). Empty segments are ignored. Every segment
    /// is parsed before any is armed: on an error nothing changes.
    pub fn configure_many(&self, pairs: &str) -> Result<(), String> {
        let settings = pairs
            .split(';')
            .map(str::trim)
            .filter(|part| !part.is_empty())
            .map(|part| {
                let (site, spec) = part
                    .split_once('=')
                    .ok_or_else(|| format!("failpoint segment without '=': {part:?}"))?;
                parse_setting(site, spec)
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.apply(settings);
        Ok(())
    }

    fn apply(&self, settings: impl IntoIterator<Item = Setting>) {
        let mut st = self.lock();
        for (site, failpoint) in settings {
            match failpoint {
                Some(fp) => st.sites.insert(site, fp),
                None => st.sites.remove(&site),
            };
        }
        self.inner.active.store(!st.sites.is_empty(), Ordering::Relaxed);
    }

    /// Remove one site.
    pub fn remove(&self, site: &str) {
        self.apply([(site.trim().to_string(), None)]);
    }

    /// Remove every configured failpoint.
    pub fn clear(&self) {
        let mut st = self.lock();
        st.sites.clear();
        self.inner.active.store(false, Ordering::Relaxed);
    }

    /// Currently configured site names, sorted (diagnostics).
    pub fn active_sites(&self) -> Vec<String> {
        if !self.inner.active.load(Ordering::Relaxed) {
            return Vec::new();
        }
        let mut names: Vec<String> = self.lock().sites.keys().cloned().collect();
        names.sort();
        names
    }

    /// How often `site` has fired on this registry (an `error`, `panic` or
    /// `delay` taken, not a call that drew no fault).
    pub fn fired(&self, site: &str) -> u64 {
        self.lock().fired.get(site).copied().unwrap_or(0)
    }

    /// Evaluate the failpoint at `site`.
    ///
    /// Returns `Some(message)` when an `error` action fires (the caller
    /// wraps it in its layer's typed error), `None` otherwise. A `panic`
    /// action panics here; a `delay` action sleeps here. With no failpoint
    /// configured on this registry this is a single atomic load. Every fire
    /// also bumps the process-wide `failpoint.<site>` metrics counter.
    pub fn fire(&self, site: &str) -> Option<String> {
        if !self.inner.active.load(Ordering::Relaxed) {
            return None;
        }
        let action = {
            let mut st = self.lock();
            let State { sites, fired, rng } = &mut *st;
            let fp = sites.get_mut(site)?;
            if fp.remaining == Some(0) || (fp.pct < 1.0 && rng.gen_f64() >= fp.pct) {
                return None;
            }
            if let Some(n) = fp.remaining.as_mut() {
                *n -= 1;
            }
            *fired.entry(site.to_string()).or_default() += 1;
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
}

fn parse_setting(site: &str, spec: &str) -> Result<Setting, String> {
    let site = site.trim();
    if site.is_empty() {
        return Err("empty failpoint site name".into());
    }
    let spec = spec.trim();
    let failpoint = if spec == "off" { None } else { Some(parse_spec(site, spec)?) };
    Ok((site.to_string(), failpoint))
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

    #[test]
    fn inactive_site_is_silent() {
        let fp = Failpoints::default();
        assert_eq!(fp.fire("storage.scan"), None);
        assert!(fp.active_sites().is_empty());
        assert_eq!(fp.fired("storage.scan"), 0);
    }

    #[test]
    fn error_action_returns_message_and_off_removes() {
        let fp = Failpoints::default();
        fp.configure("storage.scan", "error(disk gremlin)").unwrap();
        assert_eq!(fp.fire("storage.scan").as_deref(), Some("disk gremlin"));
        assert_eq!(fp.fire("other.site"), None);
        fp.configure("storage.scan", "off").unwrap();
        assert_eq!(fp.fire("storage.scan"), None);
        assert_eq!(fp.fired("storage.scan"), 1, "the count outlives the site");
    }

    #[test]
    fn error_without_arg_uses_site_name() {
        let fp = Failpoints::default();
        fp.configure("join.build", "error").unwrap();
        assert_eq!(fp.fire("join.build").as_deref(), Some("join.build"));
    }

    #[test]
    fn count_limits_fires() {
        let fp = Failpoints::default();
        fp.configure("plan.cache", "2*error(x)").unwrap();
        assert!(fp.fire("plan.cache").is_some());
        assert!(fp.fire("plan.cache").is_some());
        assert!(fp.fire("plan.cache").is_none());
        assert!(fp.fire("plan.cache").is_none());
        assert_eq!(fp.fired("plan.cache"), 2);
    }

    #[test]
    fn percentage_is_deterministic_for_a_seed() {
        let fp = Failpoints::default();
        fp.set_seed(42);
        fp.configure("select.pref", "30%error(p)").unwrap();
        let first: Vec<bool> = (0..64).map(|_| fp.fire("select.pref").is_some()).collect();
        let hits = first.iter().filter(|h| **h).count();
        assert!(hits > 0 && hits < 64, "30% of 64 draws should be partial: {hits}");
        fp.set_seed(42);
        let second: Vec<bool> = (0..64).map(|_| fp.fire("select.pref").is_some()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn delay_sleeps_at_least_requested() {
        let fp = Failpoints::default();
        fp.configure("shard.lock", "delay(20)").unwrap();
        let t = std::time::Instant::now();
        assert_eq!(fp.fire("shard.lock"), None);
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn panic_action_panics_and_registry_survives() {
        let fp = Failpoints::default();
        fp.configure("service.query", "1*panic(boom)").unwrap();
        let caught = std::panic::catch_unwind(|| fp.fire("service.query"));
        assert!(caught.is_err());
        // Count was consumed; registry still works after the panic.
        assert_eq!(fp.fire("service.query"), None);
        fp.configure("service.query", "error(ok)").unwrap();
        assert_eq!(fp.fire("service.query").as_deref(), Some("ok"));
    }

    #[test]
    fn configure_many_parses_env_format() {
        let fp = Failpoints::default();
        fp.configure_many("a.x=error(one); b.y=50%2*delay(5) ;; c.z=panic").unwrap();
        assert_eq!(fp.active_sites(), ["a.x", "b.y", "c.z"]);
        assert_eq!(fp.fire("a.x").as_deref(), Some("one"));
    }

    #[test]
    fn bad_specs_are_rejected() {
        let fp = Failpoints::default();
        assert!(fp.configure("s", "explode").is_err());
        assert!(fp.configure("s", "12x%error").is_err());
        assert!(fp.configure("s", "101%error").is_err());
        assert!(fp.configure("s", "q*error").is_err());
        assert!(fp.configure("s", "error(unclosed").is_err());
        assert!(fp.configure("s", "delay(abc)").is_err());
        assert!(fp.configure("", "error").is_err());
        assert!(fp.configure_many("no-equals-here").is_err());
        // All or nothing: a typo anywhere in the spec arms no site.
        assert!(fp.configure_many("a.x=error; nope").is_err());
        assert!(fp.configure_many("a.x=error; b.y=explode").is_err());
        assert!(fp.active_sites().is_empty());
    }
}
