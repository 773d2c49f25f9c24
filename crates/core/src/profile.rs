//! User profiles: named collections of atomic preferences (§3.1), with
//! schema validation and JSON persistence.

use crate::doi::Doi;
use crate::error::{PrefError, Result};
use crate::pref::{AtomicPreference, AttrRef};
use pqp_obs::json::Json;
use pqp_storage::{Catalog, Value};
use std::fmt;

/// A user profile: the stored atomic preferences of one user.
///
/// Zero-valued degrees are never stored (§3.1); adding a preference with the
/// same condition replaces its degree (profiles evolve over time, §3.1).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub user: String,
    preferences: Vec<AtomicPreference>,
    /// Mutation epoch: bumped on every successful mutating call (including
    /// degree-identical replacement), so caches keyed on profile contents can
    /// invalidate without diffing preference lists. Not part of equality and
    /// not persisted.
    revision: u64,
}

/// Equality ignores [`Profile::revision`]: two profiles are equal iff they
/// store the same preferences for the same user, however they got there.
impl PartialEq for Profile {
    fn eq(&self, other: &Profile) -> bool {
        self.user == other.user && self.preferences == other.preferences
    }
}

impl Profile {
    /// An empty profile for a named user.
    pub fn new(user: impl Into<String>) -> Profile {
        Profile { user: user.into(), preferences: Vec::new(), revision: 0 }
    }

    /// A profile of preferences that already hold the profile invariants:
    /// positive degrees, no condition twice.
    pub(crate) fn from_preferences(
        user: impl Into<String>,
        preferences: Vec<AtomicPreference>,
    ) -> Profile {
        Profile { user: user.into(), preferences, revision: 0 }
    }

    /// The mutation epoch: how many mutating calls this profile value has
    /// seen. Cloning carries the revision along; deserialization starts at 0.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Add (or update) a selection preference `TABLE.column = value`.
    pub fn add_selection(
        &mut self,
        table: &str,
        column: &str,
        value: impl Into<Value>,
        doi: f64,
    ) -> Result<&mut Self> {
        let doi = Doi::new(doi)?;
        let attr = AttrRef::new(table, column);
        let value = value.into();
        self.preferences.retain(|p| match p {
            AtomicPreference::Selection { attr: a, value: v, .. } => {
                !(a.same_as(&attr) && *v == value)
            }
            _ => true,
        });
        if doi > Doi::ZERO {
            self.preferences.push(AtomicPreference::Selection { attr, value, doi });
        }
        self.revision += 1;
        Ok(self)
    }

    /// Add (or update) a *directed* join preference
    /// `FROM.col = TO.col` (the FROM side is the relation already in the
    /// query).
    pub fn add_join(
        &mut self,
        from_table: &str,
        from_column: &str,
        to_table: &str,
        to_column: &str,
        doi: f64,
    ) -> Result<&mut Self> {
        let doi = Doi::new(doi)?;
        let from = AttrRef::new(from_table, from_column);
        let to = AttrRef::new(to_table, to_column);
        self.preferences.retain(|p| match p {
            AtomicPreference::Join { from: f, to: t, .. } => !(f.same_as(&from) && t.same_as(&to)),
            _ => true,
        });
        if doi > Doi::ZERO {
            self.preferences.push(AtomicPreference::Join { from, to, doi });
        }
        self.revision += 1;
        Ok(self)
    }

    /// All stored preferences.
    pub fn preferences(&self) -> &[AtomicPreference] {
        &self.preferences
    }

    /// Drop the preference list's growth slack, for a profile that is done
    /// growing and will be kept.
    pub fn shrink_to_fit(&mut self) {
        self.preferences.shrink_to_fit();
    }

    /// Stored selection preferences.
    pub fn selections(&self) -> impl Iterator<Item = &AtomicPreference> {
        self.preferences.iter().filter(|p| p.is_selection())
    }

    /// Stored join preferences.
    pub fn joins(&self) -> impl Iterator<Item = &AtomicPreference> {
        self.preferences.iter().filter(|p| !p.is_selection())
    }

    /// The paper's notion of profile size: the number of atomic selections.
    pub fn size(&self) -> usize {
        self.selections().count()
    }

    /// Validate every preference against a schema catalog: tables and
    /// columns must exist, and selection values must conform to column types.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        let check_attr = |a: &AttrRef| -> Result<()> {
            let known = catalog
                .table(&a.table)
                .is_ok_and(|t| t.read().schema().column_index(&a.column).is_some());
            if !known {
                return Err(PrefError::UnknownAttribute {
                    table: a.table.clone(),
                    column: a.column.clone(),
                });
            }
            Ok(())
        };
        for p in self.preferences.iter() {
            match p {
                AtomicPreference::Selection { attr, .. } => check_attr(attr)?,
                AtomicPreference::Join { from, to, .. } => {
                    check_attr(from)?;
                    check_attr(to)?;
                }
            }
        }
        Ok(())
    }

    /// Serialize to pretty JSON.
    ///
    /// The wire format is stable across versions: preferences carry a
    /// `"kind"` tag (`"selection"` / `"join"`), values use a
    /// `{"Int": 7}`-style tagged encoding (`Value::Null` is the bare string
    /// `"Null"`).
    pub fn to_json(&self) -> String {
        let prefs = Json::Arr(self.preferences.iter().map(pref_to_json).collect());
        Json::obj().set("user", self.user.as_str()).set("preferences", prefs).pretty()
    }

    /// Deserialize from JSON. Degrees are re-validated through [`Doi::new`],
    /// so an out-of-range `doi` in the document is rejected, and so is a
    /// non-empty `negatives` array.
    pub fn from_json(s: &str) -> Result<Profile> {
        let j = Json::parse(s).map_err(|e| json_err(e.to_string()))?;
        let user = j
            .get("user")
            .and_then(Json::as_str)
            .ok_or_else(|| json_err("missing `user` string"))?
            .to_string();
        let docs = j
            .get("preferences")
            .and_then(Json::as_array)
            .ok_or_else(|| json_err("missing `preferences` array"))?;
        // Sized up front: collecting through `Result` would grow the list.
        let mut preferences = Vec::with_capacity(docs.len());
        for doc in docs {
            preferences.push(pref_from_json(doc)?);
        }
        // Negative preferences are not part of the model; ignoring a
        // document's would serve its user answers the profile excludes.
        if j.get("negatives").is_some_and(|n| n.as_array() != Some(&[])) {
            return Err(json_err("`negatives` are not supported"));
        }
        Ok(Profile { user, preferences, revision: 0 })
    }
}

fn json_err(m: impl fmt::Display) -> PrefError {
    PrefError::Engine(format!("profile JSON: {m}"))
}

fn attr_to_json(a: &AttrRef) -> Json {
    Json::obj().set("table", a.table.as_str()).set("column", a.column.as_str())
}

fn attr_from_json(j: &Json) -> Result<AttrRef> {
    let field = |k: &str| {
        j.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| json_err(format!("attribute missing `{k}`")))
    };
    Ok(AttrRef { table: field("table")?, column: field("column")? })
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Str("Null".to_string()),
        Value::Bool(b) => Json::obj().set("Bool", *b),
        Value::Int(i) => Json::obj().set("Int", *i),
        Value::Float(f) => Json::obj().set("Float", *f),
        Value::Str(s) => Json::obj().set("Str", &**s),
    }
}

fn value_from_json(j: &Json) -> Result<Value> {
    if let Some("Null") = j.as_str() {
        return Ok(Value::Null);
    }
    let bad = || json_err(format!("invalid value `{j}`"));
    match j {
        Json::Obj(pairs) if pairs.len() == 1 => {
            let (tag, inner) = &pairs[0];
            match tag.as_str() {
                "Bool" => inner.as_bool().map(Value::Bool).ok_or_else(bad),
                "Int" => inner.as_i64().map(Value::Int).ok_or_else(bad),
                "Float" => inner.as_f64().map(Value::Float).ok_or_else(bad),
                "Str" => inner.as_str().map(Value::str).ok_or_else(bad),
                _ => Err(bad()),
            }
        }
        _ => Err(bad()),
    }
}

fn pref_to_json(p: &AtomicPreference) -> Json {
    match p {
        AtomicPreference::Selection { attr, value, doi } => Json::obj()
            .set("kind", "selection")
            .set("attr", attr_to_json(attr))
            .set("value", value_to_json(value))
            .set("doi", doi.value()),
        AtomicPreference::Join { from, to, doi } => Json::obj()
            .set("kind", "join")
            .set("from", attr_to_json(from))
            .set("to", attr_to_json(to))
            .set("doi", doi.value()),
    }
}

fn pref_from_json(j: &Json) -> Result<AtomicPreference> {
    let doi = j
        .get("doi")
        .and_then(Json::as_f64)
        .ok_or_else(|| json_err("preference missing numeric `doi`"))
        .and_then(Doi::new)?;
    let attr = |k: &str| {
        j.get(k)
            .ok_or_else(|| json_err(format!("preference missing `{k}`")))
            .and_then(attr_from_json)
    };
    match j.get("kind").and_then(Json::as_str) {
        Some("selection") => {
            let value = j
                .get("value")
                .ok_or_else(|| json_err("selection missing `value`"))
                .and_then(value_from_json)?;
            Ok(AtomicPreference::Selection { attr: attr("attr")?, value, doi })
        }
        Some("join") => Ok(AtomicPreference::Join { from: attr("from")?, to: attr("to")?, doi }),
        _ => Err(json_err("preference missing `kind` (`selection` or `join`)")),
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "profile `{}`:", self.user)?;
        for p in self.preferences.iter() {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqp_storage::{ColumnDef, DataType, TableSchema};

    fn mini_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(TableSchema::new(
            "GENRE",
            vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("genre", DataType::Str)],
        ))
        .unwrap();
        c.create_table(
            TableSchema::new(
                "MOVIE",
                vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("title", DataType::Str)],
            )
            .with_primary_key(&["mid"]),
        )
        .unwrap();
        c
    }

    fn julie() -> Profile {
        let mut p = Profile::new("julie");
        p.add_selection("GENRE", "genre", "comedy", 0.9).unwrap();
        p.add_selection("GENRE", "genre", "thriller", 0.7).unwrap();
        p.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        p
    }

    #[test]
    fn size_counts_selections_only() {
        assert_eq!(julie().size(), 2);
        assert_eq!(julie().preferences().len(), 3);
    }

    #[test]
    fn re_adding_replaces_degree() {
        let mut p = julie();
        p.add_selection("GENRE", "genre", "comedy", 0.5).unwrap();
        assert_eq!(p.size(), 2, "no duplicate entry");
        let doi = p
            .selections()
            .find_map(|s| match s {
                AtomicPreference::Selection { value, doi, .. }
                    if *value == Value::str("comedy") =>
                {
                    Some(*doi)
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(doi.value(), 0.5);
    }

    #[test]
    fn zero_degree_removes() {
        let mut p = julie();
        p.add_selection("GENRE", "genre", "comedy", 0.0).unwrap();
        assert_eq!(p.size(), 1);
    }

    #[test]
    fn invalid_degree_rejected() {
        let mut p = Profile::new("x");
        assert!(p.add_selection("T", "c", "v", 1.5).is_err());
        assert!(p.add_join("A", "x", "B", "y", -0.1).is_err());
    }

    #[test]
    fn directed_joins_are_distinct() {
        let mut p = Profile::new("x");
        p.add_join("MOVIE", "mid", "PLAY", "mid", 0.8).unwrap();
        p.add_join("PLAY", "mid", "MOVIE", "mid", 1.0).unwrap();
        assert_eq!(p.joins().count(), 2, "two directions stored separately");
    }

    #[test]
    fn validation_against_catalog() {
        let c = mini_catalog();
        assert!(julie().validate(&c).is_ok());
        let mut bad = Profile::new("bad");
        bad.add_selection("NOPE", "x", "v", 0.5).unwrap();
        assert!(matches!(bad.validate(&c), Err(PrefError::UnknownAttribute { .. })));
        let mut bad2 = Profile::new("bad2");
        bad2.add_join("MOVIE", "nope", "GENRE", "mid", 0.5).unwrap();
        assert!(bad2.validate(&c).is_err());
    }

    #[test]
    fn revision_bumps_on_every_mutation_but_not_equality() {
        let mut p = Profile::new("x");
        assert_eq!(p.revision(), 0);
        p.add_selection("GENRE", "genre", "comedy", 0.9).unwrap();
        p.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        assert_eq!(p.revision(), 2);
        // Degree replacement is a mutation too.
        p.add_selection("GENRE", "genre", "comedy", 0.5).unwrap();
        assert_eq!(p.revision(), 3);
        // A failed mutation does not bump.
        assert!(p.add_selection("GENRE", "genre", "x", 2.0).is_err());
        assert_eq!(p.revision(), 3);
        // Equality ignores the revision.
        let mut q = Profile::new("x");
        q.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        q.add_selection("GENRE", "genre", "comedy", 0.5).unwrap();
        assert_ne!(p.revision(), q.revision());
        assert_eq!(p, q);
    }

    #[test]
    fn json_roundtrip() {
        let p = julie();
        let j = p.to_json();
        let back = Profile::from_json(&j).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn json_roundtrip_of_a_150_selection_profile() {
        // The size of a benchmark profile, with non-ASCII values and
        // strings that need escaping.
        let mut p = Profile::new("user 150");
        for i in 0..150 {
            let value = match i % 3 {
                0 => format!("Ståhlberg-Østergård {i}"),
                1 => format!("\"quoted\" \\ name {i}"),
                _ => format!("Müller 日本 {i}"),
            };
            p.add_selection("ACTOR", "name", value.as_str(), 0.5 + (i % 50) as f64 / 100.0)
                .unwrap();
        }
        p.add_join("MOVIE", "mid", "CAST", "mid", 0.8).unwrap();
        p.add_join("CAST", "aid", "ACTOR", "aid", 1.0).unwrap();
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(back.size(), 150);
        assert_eq!(back, p);
    }

    #[test]
    fn json_rejects_invalid_degree() {
        let j = r#"{"user":"x","preferences":[
            {"kind":"selection","attr":{"table":"T","column":"c"},"value":{"Str":"v"},"doi":7.0}
        ]}"#;
        assert!(Profile::from_json(j).is_err());
    }

    #[test]
    fn json_rejects_negatives_unless_empty() {
        let doc = |negatives: &str| format!(r#"{{"user":"x","preferences":[]{negatives}}}"#);
        let neg = r#"{"kind":"selection","attr":{"table":"T","column":"c"},"value":{"Str":"v"},"doi":1.0}"#;
        let err = Profile::from_json(&doc(&format!(r#","negatives":[{neg}]"#))).unwrap_err();
        assert!(err.to_string().contains("profile JSON: `negatives`"), "got: {err}");
        assert_eq!(Profile::from_json(&doc(r#","negatives":[]"#)).unwrap(), Profile::new("x"));
        assert_eq!(Profile::from_json(&doc("")).unwrap(), Profile::new("x"));
    }

    #[test]
    fn display_matches_paper_style() {
        let p = julie();
        let text = p.to_string();
        assert!(text.contains("[ GENRE.genre='comedy', 0.9 ]"), "got:\n{text}");
        assert!(text.contains("[ MOVIE.mid=GENRE.mid, 0.9 ]"), "got:\n{text}");
    }
}
