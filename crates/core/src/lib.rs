//! # pqp-core — Personalization of Queries in Database Systems
//!
//! A from-scratch implementation of Koutrika & Ioannidis (ICDE 2004): query
//! personalization for relational databases based on structured user
//! profiles.
//!
//! ## Model
//!
//! A [`Profile`] stores *atomic preferences*
//! ([`pref::AtomicPreference`]): degrees of interest ([`doi::Doi`]) in
//! atomic selection and (directed) join conditions. Over a schema, they form
//! the **personalization graph** ([`graph::InMemoryGraph`]); composing
//! adjacent edges yields *transitive preferences*
//! ([`path::PreferencePath`]), whose degree is the product of the edge
//! degrees. Degrees combine under conjunction (`1 − ∏(1−d)`) and disjunction
//! (average) — see [`doi`].
//!
//! ## Pipeline
//!
//! ```text
//! query ─┬─► QueryGraph ──► select_preferences (best-first, §5) ──► P_K
//!        │                                                           │
//!        └────────────────► integrate_sq / integrate_mq (§6) ◄───────┘
//!                                    │
//!                personalized SQL (ranked via DEGREE_OF_CONJUNCTION)
//! ```
//!
//! The one-call facade is [`personalize::personalize`]:
//!
//! ```
//! use pqp_core::prelude::*;
//! use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema};
//!
//! let mut catalog = Catalog::new();
//! catalog.create_table(TableSchema::new("MOVIE", vec![
//!     ColumnDef::new("mid", DataType::Int),
//!     ColumnDef::new("title", DataType::Str),
//! ]).with_primary_key(&["mid"])).unwrap();
//! catalog.create_table(TableSchema::new("GENRE", vec![
//!     ColumnDef::new("mid", DataType::Int),
//!     ColumnDef::new("genre", DataType::Str),
//! ])).unwrap();
//!
//! let mut julie = Profile::new("julie");
//! julie.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
//! julie.add_selection("GENRE", "genre", "comedy", 0.9).unwrap();
//!
//! let graph = InMemoryGraph::build(&julie, &catalog).unwrap();
//! let query = pqp_sql::parse_query("select MV.title from MOVIE MV").unwrap();
//! let p = personalize(&query, &graph, &catalog, PersonalizeOptions::builder().k(3).l(1).build())
//!     .unwrap();
//! assert_eq!(p.k(), 1);
//! let personalized_sql = p.mq().unwrap().to_string();
//! assert!(personalized_sql.contains("comedy"));
//! ```

pub mod conflict;
pub mod criteria;
pub mod doi;
pub mod error;
pub mod graph;
pub mod integrate;
pub mod path;
pub mod personalize;
pub mod pref;
pub mod profile;
pub mod query_graph;
pub mod select;
pub mod strategy;
pub mod vars;

pub use criteria::InterestCriterion;
pub use doi::{Combinator, Doi, MinMaxCombinator, PaperCombinator};
pub use error::{PrefError, Result};
pub use graph::{GraphAccess, InMemoryGraph, StoredProfileGraph};
pub use integrate::{integrate_mq, integrate_native, integrate_sq, MatchSpec};
pub use path::PreferencePath;
pub use personalize::{
    personalize, personalize_prepared, personalize_prepared_ctx, MandatorySpec, PersonalizeOptions,
    PersonalizeOptionsBuilder, Personalized, Rewrite,
};
pub use pref::{AtomicPreference, AttrRef};
pub use profile::Profile;
pub use query_graph::QueryGraph;
pub use select::{
    select_preferences, select_preferences_ctx, select_preferences_with, SelectStats,
    SelectionOutcome,
};
pub use strategy::{build_execution, CandidateCost, StrategyChoice};

/// Convenience prelude.
pub mod prelude {
    pub use crate::criteria::InterestCriterion;
    pub use crate::doi::Doi;
    pub use crate::graph::{GraphAccess, InMemoryGraph, StoredProfileGraph};
    pub use crate::integrate::MatchSpec;
    pub use crate::personalize::{
        personalize, personalize_prepared, MandatorySpec, PersonalizeOptions,
        PersonalizeOptionsBuilder, Personalized, Rewrite,
    };
    pub use crate::profile::Profile;
    pub use crate::strategy::{build_execution, CandidateCost, StrategyChoice};
}
