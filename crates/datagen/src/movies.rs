//! The paper's movies schema and a synthetic IMDb-like database generator.
//!
//! Schema (primary keys underlined in the paper):
//!
//! ```text
//! THEATRE(tid, name, phone, region)
//! PLAY(tid, mid, date)      MOVIE(mid, title, year)
//! CAST(mid, aid, award, role)   ACTOR(aid, name)
//! DIRECTED(mid, did)        DIRECTOR(did, name)
//! GENRE(mid, genre)
//! ```
//!
//! Popularity (which movies play, which actors are cast, which genres occur)
//! is Zipf-skewed, standing in for the IMDb snapshot the paper used.

use crate::names;
use crate::zipf::Zipf;
use pqp_engine::Database;
use pqp_obs::rng::{Rng, SmallRng};
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};

/// Genres used by the generator (superset of the paper's examples).
pub const GENRES: &[&str] = &[
    "comedy",
    "thriller",
    "sci-fi",
    "adventure",
    "drama",
    "horror",
    "romance",
    "documentary",
    "animation",
    "noir",
    "western",
    "musical",
    "fantasy",
    "crime",
    "war",
    "mystery",
    "biography",
    "family",
    "sport",
    "history",
];

/// Theatre regions.
pub const REGIONS: &[&str] = &["downtown", "uptown", "suburbs", "waterfront", "old-town"];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct MovieDbConfig {
    pub movies: usize,
    pub theatres: usize,
    /// Distinct play dates (the paper's queries filter on a date).
    pub days: usize,
    /// Movies scheduled per theatre per day.
    pub plays_per_day: usize,
    /// Zipf exponent for popularity skew.
    pub skew: f64,
    pub seed: u64,
}

impl Default for MovieDbConfig {
    fn default() -> MovieDbConfig {
        MovieDbConfig {
            movies: 2_000,
            theatres: 40,
            days: 14,
            plays_per_day: 6,
            skew: 0.8,
            seed: 0xC0FFEE,
        }
    }
}

impl MovieDbConfig {
    /// A small instance for unit tests.
    pub fn tiny() -> MovieDbConfig {
        MovieDbConfig { movies: 60, theatres: 5, days: 4, plays_per_day: 3, ..Default::default() }
    }
}

/// Value pools: the literals actually present in a generated database, used
/// by the profile and query generators so preferences/selections hit data.
#[derive(Debug, Clone, Default)]
pub struct ValuePools {
    pub genres: Vec<String>,
    pub regions: Vec<String>,
    pub actor_names: Vec<String>,
    pub director_names: Vec<String>,
    pub dates: Vec<String>,
    pub years: Vec<i64>,
    pub titles: Vec<String>,
}

/// A generated movies database plus its value pools.
pub struct MovieDb {
    pub db: Database,
    pub pools: ValuePools,
    pub config: MovieDbConfig,
}

/// Create the (empty) movies catalog with keys and foreign keys.
pub fn movies_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.create_table(
        TableSchema::new(
            "THEATRE",
            vec![
                ColumnDef::new("tid", DataType::Int),
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("phone", DataType::Str),
                ColumnDef::new("region", DataType::Str),
            ],
        )
        .with_primary_key(&["tid"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "MOVIE",
            vec![
                ColumnDef::new("mid", DataType::Int),
                ColumnDef::new("title", DataType::Str),
                ColumnDef::new("year", DataType::Int),
            ],
        )
        .with_primary_key(&["mid"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "PLAY",
            vec![
                ColumnDef::new("tid", DataType::Int),
                ColumnDef::new("mid", DataType::Int),
                ColumnDef::new("date", DataType::Str),
            ],
        )
        .with_foreign_key(&["tid"], "THEATRE", &["tid"])
        .with_foreign_key(&["mid"], "MOVIE", &["mid"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "ACTOR",
            vec![ColumnDef::new("aid", DataType::Int), ColumnDef::new("name", DataType::Str)],
        )
        .with_primary_key(&["aid"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "CAST",
            vec![
                ColumnDef::new("mid", DataType::Int),
                ColumnDef::new("aid", DataType::Int),
                ColumnDef::nullable("award", DataType::Str),
                ColumnDef::nullable("role", DataType::Str),
            ],
        )
        .with_foreign_key(&["mid"], "MOVIE", &["mid"])
        .with_foreign_key(&["aid"], "ACTOR", &["aid"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "DIRECTOR",
            vec![ColumnDef::new("did", DataType::Int), ColumnDef::new("name", DataType::Str)],
        )
        .with_primary_key(&["did"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "DIRECTED",
            vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("did", DataType::Int)],
        )
        .with_foreign_key(&["mid"], "MOVIE", &["mid"])
        .with_foreign_key(&["did"], "DIRECTOR", &["did"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "GENRE",
            vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("genre", DataType::Str)],
        )
        .with_foreign_key(&["mid"], "MOVIE", &["mid"]),
    )
    .unwrap();
    c.validate_foreign_keys().unwrap();
    c
}

/// Generate a full database instance.
pub fn generate(config: MovieDbConfig) -> MovieDb {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let catalog = movies_catalog();
    let mut pools = ValuePools::default();

    let n_actors = (config.movies / 2).max(20);
    let n_directors = (config.movies / 8).max(5);

    // ACTOR.
    {
        let t = catalog.table("ACTOR").unwrap();
        let mut t = t.write();
        for aid in 0..n_actors {
            let name = names::person_name(&mut rng, aid);
            t.insert(vec![Value::Int(aid as i64), Value::str(name.as_str())]).unwrap();
            pools.actor_names.push(name);
        }
    }
    // DIRECTOR.
    {
        let t = catalog.table("DIRECTOR").unwrap();
        let mut t = t.write();
        for did in 0..n_directors {
            let name = names::person_name(&mut rng, did + 100_000);
            t.insert(vec![Value::Int(did as i64), Value::str(name.as_str())]).unwrap();
            pools.director_names.push(name);
        }
    }
    // MOVIE + GENRE + CAST + DIRECTED.
    let genre_zipf = Zipf::new(GENRES.len(), config.skew);
    let actor_zipf = Zipf::new(n_actors, config.skew);
    let director_zipf = Zipf::new(n_directors, config.skew);
    {
        let movies = catalog.table("MOVIE").unwrap();
        let genres = catalog.table("GENRE").unwrap();
        let casts = catalog.table("CAST").unwrap();
        let directed = catalog.table("DIRECTED").unwrap();
        let mut movies = movies.write();
        let mut genres = genres.write();
        let mut casts = casts.write();
        let mut directed = directed.write();
        for mid in 0..config.movies {
            let title = names::movie_title(&mut rng, mid);
            let year = 1950 + rng.gen_range(0..75i64);
            if !pools.years.contains(&year) {
                pools.years.push(year);
            }
            movies
                .insert(vec![Value::Int(mid as i64), Value::str(title.as_str()), Value::Int(year)])
                .unwrap();
            pools.titles.push(title);
            // 1–3 distinct genres.
            let n_genres = 1 + rng.gen_range(0..3usize);
            let mut seen = Vec::new();
            for _ in 0..n_genres {
                let g = GENRES[genre_zipf.sample(&mut rng)];
                if !seen.contains(&g) {
                    seen.push(g);
                    genres.insert(vec![Value::Int(mid as i64), Value::str(g)]).unwrap();
                }
            }
            // 2–7 distinct cast members.
            let cast_size = 2 + rng.gen_range(0..6usize);
            let mut aids = Vec::new();
            for _ in 0..cast_size {
                let aid = actor_zipf.sample(&mut rng);
                if !aids.contains(&aid) {
                    aids.push(aid);
                    let award = if rng.gen_bool(0.05) { Value::str("oscar") } else { Value::Null };
                    let role = if rng.gen_bool(0.4) { Value::str("lead") } else { Value::Null };
                    casts
                        .insert(vec![Value::Int(mid as i64), Value::Int(aid as i64), award, role])
                        .unwrap();
                }
            }
            // Exactly one director.
            let did = director_zipf.sample(&mut rng);
            directed.insert(vec![Value::Int(mid as i64), Value::Int(did as i64)]).unwrap();
        }
    }
    pools.genres = GENRES.iter().map(|s| s.to_string()).collect();
    pools.regions = REGIONS.iter().map(|s| s.to_string()).collect();

    // THEATRE + PLAY.
    let movie_zipf = Zipf::new(config.movies, config.skew);
    {
        let theatres = catalog.table("THEATRE").unwrap();
        let plays = catalog.table("PLAY").unwrap();
        let mut theatres = theatres.write();
        let mut plays = plays.write();
        for tid in 0..config.theatres {
            let name = names::theatre_name(&mut rng, tid);
            let region = REGIONS[rng.gen_range(0..REGIONS.len())];
            let phone = format!("210-{:07}", rng.gen_range(0..10_000_000u32));
            theatres
                .insert(vec![
                    Value::Int(tid as i64),
                    Value::str(name),
                    Value::str(phone),
                    Value::str(region),
                ])
                .unwrap();
        }
        for day in 0..config.days {
            let date = format!("2003-07-{:02}", day + 1);
            for tid in 0..config.theatres {
                for _ in 0..config.plays_per_day {
                    let mid = movie_zipf.sample(&mut rng);
                    plays
                        .insert(vec![
                            Value::Int(tid as i64),
                            Value::Int(mid as i64),
                            Value::str(date.as_str()),
                        ])
                        .unwrap();
                }
            }
            pools.dates.push(date);
        }
    }

    // Secondary indexes on every join column and selectable attribute —
    // the access paths a production deployment (and the paper's Oracle
    // setup) would have.
    for (table, columns) in [
        ("PLAY", &["tid", "mid", "date"][..]),
        ("GENRE", &["mid", "genre"][..]),
        ("CAST", &["mid", "aid"][..]),
        ("DIRECTED", &["mid", "did"][..]),
        ("ACTOR", &["name"][..]),
        ("DIRECTOR", &["name"][..]),
        ("THEATRE", &["region"][..]),
        ("MOVIE", &["year"][..]),
    ] {
        let t = catalog.table(table).unwrap();
        let mut t = t.write();
        for col in columns {
            t.create_index(col).unwrap();
        }
    }

    MovieDb { db: Database::new(catalog), pools, config }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_expected_cardinalities() {
        let c = movies_catalog();
        let joins = c.schema_joins();
        // PLAY→MOVIE is to-one, MOVIE→PLAY is to-many.
        let j = joins
            .iter()
            .find(|j| j.from_table == "PLAY" && j.to_table == "MOVIE" && j.from_column == "mid")
            .unwrap();
        assert_eq!(j.cardinality, pqp_storage::Cardinality::ToOne);
        let j = joins.iter().find(|j| j.from_table == "MOVIE" && j.to_table == "GENRE").unwrap();
        assert_eq!(j.cardinality, pqp_storage::Cardinality::ToMany);
    }

    #[test]
    fn generated_db_is_consistent() {
        let m = generate(MovieDbConfig::tiny());
        let c = m.db.catalog();
        assert_eq!(c.table("MOVIE").unwrap().read().len(), 60);
        assert_eq!(c.table("THEATRE").unwrap().read().len(), 5);
        assert_eq!(c.table("PLAY").unwrap().read().len(), 5 * 4 * 3);
        assert!(c.table("GENRE").unwrap().read().len() >= 60);
        assert!(c.table("CAST").unwrap().read().len() >= 2 * 60 / 2);
        assert_eq!(c.table("DIRECTED").unwrap().read().len(), 60);

        // Referential integrity: every PLAY row points at a real movie.
        let rs = m.db.run("select count(*) from PLAY PL, MOVIE MV where PL.mid = MV.mid").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int((5 * 4 * 3) as i64));
    }

    #[test]
    fn pools_reflect_data() {
        let m = generate(MovieDbConfig::tiny());
        assert!(!m.pools.actor_names.is_empty());
        assert!(!m.pools.dates.is_empty());
        // A pooled date actually selects rows.
        let rs = m
            .db
            .run(&format!("select count(*) from PLAY PL where PL.date = '{}'", m.pools.dates[0]))
            .unwrap();
        assert!(rs.rows[0][0].as_i64().unwrap() > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(MovieDbConfig::tiny());
        let b = generate(MovieDbConfig::tiny());
        assert_eq!(a.pools.titles, b.pools.titles);
        let qa = a.db.run("select count(*) from GENRE").unwrap();
        let qb = b.db.run("select count(*) from GENRE").unwrap();
        assert_eq!(qa.rows, qb.rows);
    }

    #[test]
    fn genre_popularity_is_skewed() {
        let m = generate(MovieDbConfig::tiny());
        let rs = m
            .db
            .run("select GN.genre, count(*) as n from GENRE GN group by GN.genre order by n desc")
            .unwrap();
        let top = rs.rows[0][1].as_i64().unwrap();
        let bottom = rs.rows.last().unwrap()[1].as_i64().unwrap();
        assert!(top >= bottom * 2, "top {top} vs bottom {bottom}");
    }
}
