//! Shared experimental setup: scales, workloads and helpers.

use pqp_core::prelude::*;
use pqp_core::Personalized;
use pqp_datagen::{
    generate, generate_profile, generate_queries, movies_catalog, MovieDb, MovieDbConfig,
    ProfileGenConfig, QueryGenConfig,
};
use pqp_engine::Database;
use pqp_sql::Query;

/// Experiment scale. `smoke` keeps every figure under a second or two (used
/// by tests); `default` reproduces the curves in minutes on a laptop;
/// `paper` approaches the paper's population sizes (slow).
#[derive(Debug, Clone)]
pub struct Scale {
    pub name: &'static str,
    pub movies: usize,
    pub theatres: usize,
    /// Profile sizes swept by Figure 6.
    pub fig6_sizes: Vec<usize>,
    /// Profiles per size and queries, Figure 6.
    pub fig6_profiles: usize,
    pub fig6_queries: usize,
    /// (profiles × queries) pairs for Figures 7–10.
    pub pairs_profiles: usize,
    pub pairs_queries: usize,
    /// Size of the profiles used for the K sweeps (must exceed max K).
    pub sweep_profile_size: usize,
    pub fig7a_ks: Vec<usize>,
    pub fig7b_ls: Vec<usize>,
    pub fig7c_ls: Vec<usize>,
    pub fig7c_k: usize,
    pub fig8_ks: Vec<usize>,
    pub fig9_ls: Vec<usize>,
}

impl Scale {
    pub fn smoke() -> Scale {
        Scale {
            name: "smoke",
            movies: 300,
            theatres: 8,
            fig6_sizes: vec![10, 30, 50],
            fig6_profiles: 3,
            fig6_queries: 5,
            pairs_profiles: 2,
            pairs_queries: 3,
            sweep_profile_size: 70,
            fig7a_ks: vec![10, 30, 50],
            fig7b_ls: vec![1, 3, 5],
            fig7c_ls: vec![1, 10, 25],
            fig7c_k: 60,
            fig8_ks: vec![0, 10, 30, 60],
            fig9_ls: vec![1, 3, 5],
        }
    }

    pub fn default_scale() -> Scale {
        Scale {
            name: "default",
            movies: 2_000,
            theatres: 40,
            fig6_sizes: (1..=10).map(|i| i * 10).collect(),
            fig6_profiles: 15,
            fig6_queries: 30,
            pairs_profiles: 6,
            pairs_queries: 6,
            sweep_profile_size: 80,
            fig7a_ks: vec![10, 20, 30, 40, 50],
            fig7b_ls: (1..=10).collect(),
            fig7c_ls: vec![1, 5, 10, 15, 20, 25],
            fig7c_k: 60,
            fig8_ks: vec![0, 5, 10, 20, 30, 40, 50, 60],
            fig9_ls: (1..=10).collect(),
        }
    }

    /// Approaches the paper's populations (100 queries, 100/200 profiles,
    /// larger catalog). Expect a long run.
    pub fn paper() -> Scale {
        Scale {
            name: "paper",
            movies: 20_000,
            theatres: 80,
            fig6_sizes: (1..=10).map(|i| i * 10).collect(),
            fig6_profiles: 100,
            fig6_queries: 100,
            pairs_profiles: 14,
            pairs_queries: 14,
            sweep_profile_size: 80,
            fig7a_ks: vec![10, 20, 30, 40, 50],
            fig7b_ls: (1..=10).collect(),
            fig7c_ls: vec![1, 5, 10, 15, 20, 25],
            fig7c_k: 60,
            fig8_ks: vec![0, 5, 10, 20, 30, 40, 50, 60],
            fig9_ls: (1..=10).collect(),
        }
    }

    pub fn by_name(name: &str) -> Option<Scale> {
        match name {
            "smoke" => Some(Scale::smoke()),
            "default" => Some(Scale::default_scale()),
            "paper" => Some(Scale::paper()),
            _ => None,
        }
    }
}

/// The shared workload of Figures 7–10: one database, a query set, and a
/// set of large profiles for the K sweeps.
pub struct Workload {
    pub scale: Scale,
    pub movie_db: MovieDb,
    pub queries: Vec<Query>,
    /// Broad (selection-free) queries used by Figure 10: their execution
    /// cost is dominated by result size, the regime the paper's Figure 10
    /// measures.
    pub broad_queries: Vec<Query>,
    pub profiles: Vec<Profile>,
    pub graphs: Vec<InMemoryGraph>,
}

impl Workload {
    /// Build the workload for a scale (deterministic).
    pub fn build(scale: Scale) -> Workload {
        let movie_db = generate(MovieDbConfig {
            movies: scale.movies,
            theatres: scale.theatres,
            ..Default::default()
        });
        let queries =
            generate_queries(scale.pairs_queries, &movie_db.pools, &QueryGenConfig::default());
        let broad_queries =
            generate_queries(scale.pairs_queries, &movie_db.pools, &QueryGenConfig::broad());
        let profiles: Vec<Profile> = (0..scale.pairs_profiles)
            .map(|i| {
                generate_profile(
                    &format!("sweep{i}"),
                    &movie_db.pools,
                    &ProfileGenConfig {
                        selections: scale.sweep_profile_size,
                        seed: 0xA5A5 + i as u64 * 101,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let graphs = profiles
            .iter()
            .map(|p| InMemoryGraph::build(p, movie_db.db.catalog()).expect("valid profile"))
            .collect();
        Workload { scale, movie_db, queries, broad_queries, profiles, graphs }
    }

    /// Personalize one (query, profile) pair at the given K/L.
    pub fn personalize(
        &self,
        query_idx: usize,
        profile_idx: usize,
        k: usize,
        l: usize,
        rank: bool,
    ) -> Personalized<'_> {
        let opts = if rank {
            PersonalizeOptions::builder().k(k).l(l).build().ranked()
        } else {
            PersonalizeOptions::builder().k(k).l(l).build()
        };
        personalize(
            &self.queries[query_idx],
            &self.graphs[profile_idx],
            self.movie_db.db.catalog(),
            opts,
        )
        .expect("personalization of generated workloads cannot fail")
    }

    /// All (query, profile) index pairs.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for q in 0..self.queries.len() {
            for p in 0..self.profiles.len() {
                out.push((q, p));
            }
        }
        out
    }

    pub fn db(&self) -> &Database {
        &self.movie_db.db
    }
}

/// A schema-only database used to host stored profiles for Figure 6 (the
/// data tables stay empty; only the profile side tables are populated, so
/// per-profile isolation is cheap).
pub fn schema_only_db() -> Database {
    Database::new(movies_catalog())
}
