//! # pqp-datagen
//!
//! Synthetic data for the reproduction: the paper's movies schema with an
//! IMDb-like Zipf-skewed instance generator, plus the experimental
//! apparatus — a profile generator ("synthetic user profiles ... produced
//! with the use of a profile generator") and a random conjunctive-query
//! generator ("a set of 100 randomly created queries").

pub mod movies;
pub mod names;
pub mod profilegen;
pub mod querygen;
pub mod zipf;

pub use movies::{generate, movies_catalog, MovieDb, MovieDbConfig, ValuePools, GENRES, REGIONS};
pub use profilegen::{generate_profile, generate_profiles, ProfileGenConfig};
pub use querygen::{generate_queries, generate_query, QueryGenConfig};
pub use zipf::Zipf;
