//! Synthetic user-profile generation over the movies schema.
//!
//! Matches the paper's experimental setup: profiles of a given *size*
//! (number of atomic selections) produced by a profile generator, plus join
//! preferences over the schema graph so queries on one relation can pull in
//! preferences on others.

use crate::movies::ValuePools;
use pqp_core::Profile;
use pqp_obs::rng::{Rng, SmallRng};
use pqp_storage::Value;

/// Configuration for profile generation.
#[derive(Debug, Clone)]
pub struct ProfileGenConfig {
    /// Number of atomic selection preferences (the paper's profile size).
    pub selections: usize,
    /// Probability that a schema join gets a preference (both directions
    /// always share the event; degrees differ).
    pub join_coverage: f64,
    pub seed: u64,
}

impl Default for ProfileGenConfig {
    fn default() -> ProfileGenConfig {
        ProfileGenConfig { selections: 30, join_coverage: 1.0, seed: 0xBEEF }
    }
}

/// The attributes on which selection preferences can be expressed, paired
/// with their value pool.
type Targets = Vec<(&'static str, &'static str, Vec<Value>)>;

/// Build the [`Targets`] once per batch of profiles: each string value is
/// allocated here, once, and every profile that draws it shares it.
fn selection_targets(pools: &ValuePools) -> Targets {
    let strs = |pool: &[String]| pool.iter().map(|s| Value::str(s.as_str())).collect();
    vec![
        ("GENRE", "genre", strs(&pools.genres)),
        ("ACTOR", "name", strs(&pools.actor_names)),
        ("DIRECTOR", "name", strs(&pools.director_names)),
        ("THEATRE", "region", strs(&pools.regions)),
        ("MOVIE", "year", pools.years.iter().map(|y| Value::Int(*y)).collect()),
    ]
}

/// Generate a profile of the requested size for `user`.
///
/// Selections are drawn without replacement across (attribute, value) pairs;
/// if the pools cannot supply the requested size, the profile is as large as
/// possible (callers can check [`Profile::size`]).
pub fn generate_profile(user: &str, pools: &ValuePools, config: &ProfileGenConfig) -> Profile {
    profile_from(user, &selection_targets(pools), config)
}

/// [`generate_profile`] over targets built by the caller.
fn profile_from(user: &str, targets: &Targets, config: &ProfileGenConfig) -> Profile {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut p = Profile::new(user);

    // Join preferences over the schema graph, both directions, independent
    // degrees in [0.5, 1] (low-degree joins would starve transitive
    // preferences, which matches the paper's example profile where joins
    // carry high degrees).
    let schema_joins: &[(&str, &str, &str, &str)] = &[
        ("THEATRE", "tid", "PLAY", "tid"),
        ("PLAY", "tid", "THEATRE", "tid"),
        ("PLAY", "mid", "MOVIE", "mid"),
        ("MOVIE", "mid", "PLAY", "mid"),
        ("MOVIE", "mid", "GENRE", "mid"),
        ("GENRE", "mid", "MOVIE", "mid"),
        ("MOVIE", "mid", "CAST", "mid"),
        ("CAST", "mid", "MOVIE", "mid"),
        ("CAST", "aid", "ACTOR", "aid"),
        ("ACTOR", "aid", "CAST", "aid"),
        ("MOVIE", "mid", "DIRECTED", "mid"),
        ("DIRECTED", "mid", "MOVIE", "mid"),
        ("DIRECTED", "did", "DIRECTOR", "did"),
        ("DIRECTOR", "did", "DIRECTED", "did"),
    ];
    for (ft, fc, tt, tc) in schema_joins {
        if rng.gen_bool(config.join_coverage.clamp(0.0, 1.0)) {
            let doi = 0.5 + rng.gen_f64() * 0.5;
            p.add_join(ft, fc, tt, tc, doi).expect("valid degree");
        }
    }

    // Selection preferences, skewed toward interesting degrees.
    let mut attempts = 0;
    while p.size() < config.selections && attempts < config.selections * 20 {
        attempts += 1;
        let (table, column, values) = &targets[rng.gen_range(0..targets.len())];
        if values.is_empty() {
            continue;
        }
        let value = values[rng.gen_range(0..values.len())].clone();
        // Degrees in (0, 1]: mostly moderate, occasionally must-have.
        let doi = if rng.gen_bool(0.1) { 1.0 } else { 0.1 + rng.gen_f64() * 0.85 };
        let before = p.size();
        p.add_selection(table, column, value, doi).expect("valid degree");
        if p.size() == before {
            // Duplicate (attribute, value): replaced the degree instead of
            // growing; try again.
            continue;
        }
    }
    // The population stays alive while the services built from it are, so
    // its lists carry no growth slack.
    p.shrink_to_fit();
    p
}

/// Generate `count` profiles of a given size with derived seeds. The
/// selection targets are built once for the whole batch.
pub fn generate_profiles(
    prefix: &str,
    count: usize,
    pools: &ValuePools,
    base: &ProfileGenConfig,
) -> Vec<Profile> {
    let targets = selection_targets(pools);
    (0..count)
        .map(|i| {
            let cfg =
                ProfileGenConfig { seed: base.seed.wrapping_add(i as u64 * 7919), ..base.clone() };
            profile_from(&format!("{prefix}{i}"), &targets, &cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movies::{generate, MovieDbConfig};

    fn pools() -> ValuePools {
        generate(MovieDbConfig::tiny()).pools
    }

    #[test]
    fn profile_reaches_requested_size() {
        let p = generate_profile(
            "u",
            &pools(),
            &ProfileGenConfig { selections: 25, ..Default::default() },
        );
        assert_eq!(p.size(), 25);
        assert!(p.joins().count() > 0);
    }

    #[test]
    fn profiles_validate_against_schema() {
        let m = generate(MovieDbConfig::tiny());
        let p = generate_profile("u", &m.pools, &ProfileGenConfig::default());
        assert!(p.validate(m.db.catalog()).is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let pools = pools();
        let cfg = ProfileGenConfig { selections: 10, seed: 5, ..Default::default() };
        let a = generate_profile("u", &pools, &cfg);
        let b = generate_profile("u", &pools, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn batch_generation_varies_seeds() {
        let pools = pools();
        let ps = generate_profiles("user", 3, &pools, &ProfileGenConfig::default());
        assert_eq!(ps.len(), 3);
        assert_ne!(ps[0].preferences(), ps[1].preferences());
        assert_eq!(ps[0].user, "user0");
    }

    #[test]
    fn degrees_are_valid() {
        let p = generate_profile(
            "u",
            &pools(),
            &ProfileGenConfig { selections: 40, ..Default::default() },
        );
        for pref in p.preferences() {
            let d = pref.doi().value();
            assert!((0.0..=1.0).contains(&d));
            assert!(d > 0.0, "zero-degree preferences are never stored");
        }
    }
}
