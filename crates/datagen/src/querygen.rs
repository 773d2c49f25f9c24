//! Random conjunctive SPJ query generation over the movies schema (the
//! paper's "100 randomly created queries").
//!
//! A query is a random connected walk over the schema graph (1–3 relations),
//! one equality selection drawn from the value pools (so results are
//! non-trivial), and a plain-column projection (as MQ integration requires).

use crate::movies::ValuePools;
use pqp_obs::rng::{Rng, SmallRng};
use pqp_sql::ast::Query;
use pqp_sql::builder as b;
use pqp_sql::Select;

/// Configuration for query generation.
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Maximum number of relations in the FROM clause.
    pub max_tables: usize,
    /// Probability that the query carries an equality selection. 1.0 gives
    /// the selective queries of Figures 6–9; 0.0 gives *broad* queries whose
    /// execution cost is dominated by result size (the regime where
    /// personalization pays for itself — Figure 10).
    pub selection_probability: f64,
    pub seed: u64,
}

impl Default for QueryGenConfig {
    fn default() -> QueryGenConfig {
        QueryGenConfig { max_tables: 3, selection_probability: 1.0, seed: 0xDEAD }
    }
}

impl QueryGenConfig {
    /// Broad (selection-free) queries.
    pub fn broad() -> QueryGenConfig {
        QueryGenConfig { selection_probability: 0.0, ..Default::default() }
    }
}

/// Undirected schema-graph edges as (table, column, table, column).
const EDGES: &[(&str, &str, &str, &str)] = &[
    ("THEATRE", "tid", "PLAY", "tid"),
    ("PLAY", "mid", "MOVIE", "mid"),
    ("MOVIE", "mid", "GENRE", "mid"),
    ("MOVIE", "mid", "CAST", "mid"),
    ("CAST", "aid", "ACTOR", "aid"),
    ("MOVIE", "mid", "DIRECTED", "mid"),
    ("DIRECTED", "did", "DIRECTOR", "did"),
];

/// Default projection column per table (a human-meaningful attribute).
fn projection_of(table: &str) -> (&'static str, &'static str) {
    match table {
        "THEATRE" => ("THEATRE", "name"),
        "PLAY" => ("PLAY", "date"),
        "MOVIE" => ("MOVIE", "title"),
        "GENRE" => ("GENRE", "genre"),
        "CAST" => ("CAST", "mid"),
        "ACTOR" => ("ACTOR", "name"),
        "DIRECTED" => ("DIRECTED", "mid"),
        "DIRECTOR" => ("DIRECTOR", "name"),
        _ => unreachable!("unknown table {table}"),
    }
}

/// Selection candidates per table from the pools.
fn selection_of(
    table: &str,
    pools: &ValuePools,
    rng: &mut impl Rng,
) -> Option<(&'static str, pqp_storage::Value)> {
    use pqp_storage::Value;
    let pick = |v: &[String], rng: &mut dyn Rng| -> Option<Value> {
        if v.is_empty() {
            None
        } else {
            Some(Value::str(v[(rng.next_u32() as usize) % v.len()].as_str()))
        }
    };
    match table {
        "PLAY" => Some(("date", pick(&pools.dates, rng)?)),
        "GENRE" => Some(("genre", pick(&pools.genres, rng)?)),
        "THEATRE" => Some(("region", pick(&pools.regions, rng)?)),
        "ACTOR" => Some(("name", pick(&pools.actor_names, rng)?)),
        "DIRECTOR" => Some(("name", pick(&pools.director_names, rng)?)),
        "MOVIE" => {
            if pools.years.is_empty() {
                None
            } else {
                Some(("year", Value::Int(pools.years[rng.gen_range(0..pools.years.len())])))
            }
        }
        _ => None,
    }
}

/// Short alias for a table (MV, PL, GN, ...).
fn alias_of(table: &str, taken: &mut Vec<String>) -> String {
    let base: String = table.chars().filter(|c| c.is_ascii_alphabetic()).take(2).collect();
    let mut name = base.to_ascii_uppercase();
    let mut i = 1;
    while taken.iter().any(|t| t.eq_ignore_ascii_case(&name)) {
        i += 1;
        name = format!("{}{}", base.to_ascii_uppercase(), i);
    }
    taken.push(name.clone());
    name
}

/// Tables carrying a selectable attribute (pure link tables do not).
fn supports_selection(table: &str) -> bool {
    !matches!(table, "CAST" | "DIRECTED")
}

/// Generate one random conjunctive SPJ query.
pub fn generate_query(pools: &ValuePools, rng: &mut SmallRng, config: &QueryGenConfig) -> Query {
    // Random connected walk over the schema graph. Keep growing past the
    // target until at least one selection-capable table is present, so every
    // generated query carries an equality selection (as the experiments
    // assume).
    let start = EDGES[rng.gen_range(0..EDGES.len())].0;
    let mut tables: Vec<&str> = vec![start];
    let target = 1 + rng.gen_range(0..config.max_tables.max(1));
    loop {
        let done = tables.len() >= target && tables.iter().any(|t| supports_selection(t));
        if done {
            break;
        }
        let candidates: Vec<&(&str, &str, &str, &str)> = EDGES
            .iter()
            .filter(|(a, _, c, _)| {
                (tables.contains(a) && !tables.contains(c))
                    || (tables.contains(c) && !tables.contains(a))
            })
            .collect();
        if candidates.is_empty() {
            break;
        }
        let e = candidates[rng.gen_range(0..candidates.len())];
        if tables.contains(&e.0) {
            tables.push(e.2);
        } else {
            tables.push(e.0);
        }
    }

    // Aliases.
    let mut taken = Vec::new();
    let aliases: Vec<(String, &str)> =
        tables.iter().map(|t| (alias_of(t, &mut taken), *t)).collect();
    let alias_for = |table: &str| -> &str {
        &aliases.iter().find(|(_, t)| *t == table).expect("table present").0
    };

    // Join conjuncts for every schema edge fully inside the chosen set.
    let mut conjuncts = Vec::new();
    for (a, ac, c, cc) in EDGES {
        if tables.contains(a) && tables.contains(c) {
            conjuncts.push(b::eq(b::col(alias_for(a), *ac), b::col(alias_for(c), *cc)));
        }
    }

    // One equality selection on a random participating table (unless this
    // is a broad query).
    if rng.gen_bool(config.selection_probability.clamp(0.0, 1.0)) {
        let mut order: Vec<&str> = tables.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for t in order {
            if let Some((col, value)) = selection_of(t, pools, rng) {
                conjuncts.push(b::eq(b::col(alias_for(t), col), pqp_sql::Expr::Literal(value)));
                break;
            }
        }
    }

    // Projection: the start table's display column.
    let (pt, pc) = projection_of(start);
    let projection = vec![b::item(b::col(alias_for(pt), pc))];

    Query::from_select(Select {
        distinct: false,
        projection,
        from: aliases.iter().map(|(a, t)| b::table(*t, a.clone())).collect(),
        selection: b::and_all(conjuncts),
        group_by: Vec::new(),
        having: None,
    })
}

/// Generate `count` queries with a shared RNG stream.
pub fn generate_queries(count: usize, pools: &ValuePools, config: &QueryGenConfig) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    (0..count).map(|_| generate_query(pools, &mut rng, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movies::{generate, MovieDbConfig};
    use pqp_core::QueryGraph;

    #[test]
    fn queries_parse_print_and_run() {
        let m = generate(MovieDbConfig::tiny());
        let queries = generate_queries(50, &m.pools, &QueryGenConfig::default());
        assert_eq!(queries.len(), 50);
        for q in &queries {
            let text = q.to_string();
            pqp_sql::parse_query(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
            m.db.run_query(q).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        }
    }

    #[test]
    fn queries_map_onto_the_personalization_graph() {
        let m = generate(MovieDbConfig::tiny());
        let queries = generate_queries(30, &m.pools, &QueryGenConfig::default());
        for q in &queries {
            let s = q.as_select().unwrap();
            let g = QueryGraph::from_select(s, m.db.catalog()).unwrap();
            assert!(g.is_connected(), "disconnected query: {q}");
            assert!(!g.selections.is_empty(), "query without selection: {q}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let m = generate(MovieDbConfig::tiny());
        let a = generate_queries(5, &m.pools, &QueryGenConfig::default());
        let c = generate_queries(5, &m.pools, &QueryGenConfig::default());
        assert_eq!(a, c);
    }

    #[test]
    fn respects_max_tables() {
        let m = generate(MovieDbConfig::tiny());
        let qs =
            generate_queries(30, &m.pools, &QueryGenConfig { max_tables: 2, ..Default::default() });
        for q in qs {
            assert!(q.as_select().unwrap().from.len() <= 2, "{q}");
        }
    }
}
