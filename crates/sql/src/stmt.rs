//! Statements beyond queries: DDL and DML.
//!
//! The paper's framework only consumes and produces queries; the prototype
//! still needed to create and load its tables. This module gives the engine
//! a complete textual interface: `CREATE TABLE`, `CREATE INDEX`,
//! `INSERT ... VALUES`, `DELETE`, `DROP TABLE`, and queries.

use crate::ast::{Expr, Query};
use crate::error::Result;
use crate::parser::Parser;
use crate::printer::sql_ident;
use crate::token::{Keyword, Token};
use pqp_storage::DataType;
use std::fmt;

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSpec {
    pub name: String,
    pub ty: DataType,
    pub nullable: bool,
    /// Inline `PRIMARY KEY`.
    pub primary_key: bool,
    /// Inline `UNIQUE`.
    pub unique: bool,
}

/// A table-level constraint in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableConstraint {
    PrimaryKey(Vec<String>),
    Unique(Vec<String>),
    ForeignKey { columns: Vec<String>, parent: String, parent_columns: Vec<String> },
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Query(Query),
    CreateTable {
        name: String,
        columns: Vec<ColumnSpec>,
        constraints: Vec<TableConstraint>,
    },
    CreateIndex {
        table: String,
        column: String,
    },
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    },
    Delete {
        table: String,
        selection: Option<Expr>,
    },
    DropTable {
        name: String,
    },
    /// `ANALYZE [table]`: collect optimizer statistics for one table, or for
    /// every table when no name is given.
    Analyze {
        table: Option<String>,
    },
    /// `SHOW ...`: in-band introspection of the running service's telemetry.
    /// Answered by the service layer from live counters, not by the engine.
    Show(ShowStmt),
}

/// The introspection surface behind `SHOW`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShowStmt {
    /// `SHOW METRICS`: lifetime and last-window latency/SLO counters.
    Metrics,
    /// `SHOW QUERIES [LIMIT n]`: most recent entries of the query log.
    Queries { limit: Option<usize> },
    /// `SHOW CACHES`: occupancy and hit rates of the service caches.
    Caches,
}

/// Parse one statement (optionally `;`-terminated).
pub fn parse_statement(src: &str) -> Result<Statement> {
    // A trailing `;` is stripped before lexing; only EOF may remain.
    let mut p = Parser::new(src.trim_end().trim_end_matches(';'))?;
    let stmt = p.statement()?;
    p.expect_eof()?;
    Ok(stmt)
}

/// The statement grammar, on the query parser's cursor: a query, a
/// `VALUES` row's expressions and a `DELETE` predicate are parsed in place.
impl Parser {
    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Token::Keyword(Keyword::Create) => self.create(),
            Token::Keyword(Keyword::Insert) => self.insert(),
            Token::Keyword(Keyword::Delete) => self.delete(),
            Token::Keyword(Keyword::Drop) => self.drop_table(),
            Token::Keyword(Keyword::Analyze) => self.analyze(),
            Token::Keyword(Keyword::Show) => self.show(),
            _ => Ok(Statement::Query(self.query()?)),
        }
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Create)?;
        if self.eat_kw(Keyword::Index) {
            // CREATE INDEX [name] ON table (column)
            if matches!(self.peek(), Token::Ident(_)) {
                let _name = self.ident()?;
            }
            self.expect_kw(Keyword::On)?;
            let table = self.ident()?;
            self.expect_token(&Token::LParen)?;
            let column = self.ident()?;
            self.expect_token(&Token::RParen)?;
            return Ok(Statement::CreateIndex { table, column });
        }
        self.expect_kw(Keyword::Table)?;
        let name = self.ident()?;
        self.expect_token(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            match self.peek().clone() {
                Token::Keyword(Keyword::Primary) => {
                    self.next();
                    self.expect_kw(Keyword::Key)?;
                    constraints.push(TableConstraint::PrimaryKey(self.column_list()?));
                }
                Token::Keyword(Keyword::Unique) => {
                    self.next();
                    constraints.push(TableConstraint::Unique(self.column_list()?));
                }
                Token::Keyword(Keyword::Foreign) => {
                    self.next();
                    self.expect_kw(Keyword::Key)?;
                    let columns = self.column_list()?;
                    self.expect_kw(Keyword::References)?;
                    let parent = self.ident()?;
                    let parent_columns = self.column_list()?;
                    constraints.push(TableConstraint::ForeignKey {
                        columns,
                        parent,
                        parent_columns,
                    });
                }
                _ => {
                    let col = self.ident()?;
                    let ty = self.data_type()?;
                    let mut spec = ColumnSpec {
                        name: col,
                        ty,
                        nullable: true,
                        primary_key: false,
                        unique: false,
                    };
                    loop {
                        if self.eat_kw(Keyword::Not) {
                            self.expect_kw(Keyword::Null)?;
                            spec.nullable = false;
                        } else if self.eat_kw(Keyword::Primary) {
                            self.expect_kw(Keyword::Key)?;
                            spec.primary_key = true;
                            spec.nullable = false;
                        } else if self.eat_kw(Keyword::Unique) {
                            spec.unique = true;
                        } else if self.eat_kw(Keyword::Null) {
                            // explicit NULL-able
                        } else {
                            break;
                        }
                    }
                    columns.push(spec);
                }
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_token(&Token::RParen)?;
        if columns.is_empty() {
            return Err(self.err("a table needs at least one column"));
        }
        Ok(Statement::CreateTable { name, columns, constraints })
    }

    fn column_list(&mut self) -> Result<Vec<String>> {
        self.expect_token(&Token::LParen)?;
        let mut out = vec![self.ident()?];
        while self.eat(&Token::Comma) {
            out.push(self.ident()?);
        }
        self.expect_token(&Token::RParen)?;
        Ok(out)
    }

    fn data_type(&mut self) -> Result<DataType> {
        let name = self.ident()?;
        let ty = match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => DataType::Int,
            "FLOAT" | "REAL" | "DOUBLE" | "NUMERIC" | "DECIMAL" => DataType::Float,
            "TEXT" | "STRING" | "VARCHAR" | "CHAR" => DataType::Str,
            "BOOL" | "BOOLEAN" => DataType::Bool,
            other => return Err(self.err(format!("unknown type `{other}`"))),
        };
        // Optional length, e.g. VARCHAR(40): accepted and ignored.
        if self.eat(&Token::LParen) {
            match self.next() {
                Token::Int(_) => {}
                other => return Err(self.err(format!("expected length, found `{other}`"))),
            }
            self.expect_token(&Token::RParen)?;
        }
        Ok(ty)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Insert)?;
        self.expect_kw(Keyword::Into)?;
        let table = self.ident()?;
        let columns = if self.peek() == &Token::LParen { Some(self.column_list()?) } else { None };
        self.expect_kw(Keyword::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect_token(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, rows })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Delete)?;
        self.expect_kw(Keyword::From)?;
        let table = self.ident()?;
        let selection = if self.eat_kw(Keyword::Where) { Some(self.expr()?) } else { None };
        Ok(Statement::Delete { table, selection })
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Drop)?;
        self.expect_kw(Keyword::Table)?;
        Ok(Statement::DropTable { name: self.ident()? })
    }

    fn analyze(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Analyze)?;
        let table = if matches!(self.peek(), Token::Ident(_)) { Some(self.ident()?) } else { None };
        Ok(Statement::Analyze { table })
    }

    fn show(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Show)?;
        // METRICS / QUERIES / CACHES are contextual: ordinary identifiers
        // that only mean something directly after SHOW.
        let what = self.ident()?;
        let show = match what.to_ascii_uppercase().as_str() {
            "METRICS" => ShowStmt::Metrics,
            "QUERIES" => {
                let limit = if self.eat_kw(Keyword::Limit) {
                    match self.next() {
                        Token::Int(n) if n >= 0 => Some(n as usize),
                        other => {
                            return Err(
                                self.err(format!("expected a non-negative LIMIT, found `{other}`"))
                            )
                        }
                    }
                } else {
                    None
                };
                ShowStmt::Queries { limit }
            }
            "CACHES" => ShowStmt::Caches,
            other => {
                return Err(self.err(format!(
                    "unknown SHOW target `{other}` (expected METRICS, QUERIES or CACHES)"
                )))
            }
        };
        Ok(Statement::Show(show))
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Query(q) => write!(f, "{q}"),
            Statement::CreateTable { name, columns, constraints } => {
                write!(f, "CREATE TABLE {} (", sql_ident(name))?;
                let mut first = true;
                for c in columns {
                    if !first {
                        write!(f, ", ")?;
                    }
                    first = false;
                    write!(f, "{} {}", sql_ident(&c.name), c.ty)?;
                    if c.primary_key {
                        write!(f, " PRIMARY KEY")?;
                    } else if !c.nullable {
                        write!(f, " NOT NULL")?;
                    }
                    if c.unique {
                        write!(f, " UNIQUE")?;
                    }
                }
                for con in constraints {
                    write!(f, ", ")?;
                    match con {
                        TableConstraint::PrimaryKey(cols) => {
                            write!(f, "PRIMARY KEY ({})", idents(cols))?;
                        }
                        TableConstraint::Unique(cols) => {
                            write!(f, "UNIQUE ({})", idents(cols))?;
                        }
                        TableConstraint::ForeignKey { columns, parent, parent_columns } => {
                            write!(
                                f,
                                "FOREIGN KEY ({}) REFERENCES {} ({})",
                                idents(columns),
                                sql_ident(parent),
                                idents(parent_columns)
                            )?;
                        }
                    }
                }
                write!(f, ")")
            }
            Statement::CreateIndex { table, column } => {
                write!(f, "CREATE INDEX ON {} ({})", sql_ident(table), sql_ident(column))
            }
            Statement::Insert { table, columns, rows } => {
                write!(f, "INSERT INTO {}", sql_ident(table))?;
                if let Some(cols) = columns {
                    write!(f, " ({})", idents(cols))?;
                }
                write!(f, " VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(")?;
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Statement::Delete { table, selection } => {
                write!(f, "DELETE FROM {}", sql_ident(table))?;
                if let Some(w) = selection {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::DropTable { name } => write!(f, "DROP TABLE {}", sql_ident(name)),
            Statement::Analyze { table } => match table {
                Some(t) => write!(f, "ANALYZE {}", sql_ident(t)),
                None => write!(f, "ANALYZE"),
            },
            Statement::Show(show) => match show {
                ShowStmt::Metrics => write!(f, "SHOW METRICS"),
                ShowStmt::Queries { limit: Some(n) } => write!(f, "SHOW QUERIES LIMIT {n}"),
                ShowStmt::Queries { limit: None } => write!(f, "SHOW QUERIES"),
                ShowStmt::Caches => write!(f, "SHOW CACHES"),
            },
        }
    }
}

fn idents(cols: &[String]) -> String {
    cols.iter().map(|c| sql_ident(c)).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqp_storage::Value;

    fn roundtrip(src: &str) -> Statement {
        let s = parse_statement(src).unwrap();
        let printed = s.to_string();
        let back = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("re-parse of `{printed}` failed: {e}"));
        assert_eq!(back, s, "printed as `{printed}`");
        s
    }

    #[test]
    fn create_table_full() {
        let s = roundtrip(
            "create table MOVIE (\
               mid int primary key, \
               title varchar(64) not null, \
               year integer, \
               rating float unique, \
               fresh boolean, \
               primary key (mid), \
               unique (title, year), \
               foreign key (year) references YEARS (y))",
        );
        let Statement::CreateTable { name, columns, constraints } = s else { panic!() };
        assert_eq!(name, "MOVIE");
        assert_eq!(columns.len(), 5);
        assert!(columns[0].primary_key);
        assert!(!columns[1].nullable);
        assert_eq!(columns[1].ty, DataType::Str);
        assert!(columns[3].unique);
        assert_eq!(columns[4].ty, DataType::Bool);
        assert_eq!(constraints.len(), 3);
    }

    #[test]
    fn create_index_with_and_without_name() {
        let s = roundtrip("create index on GENRE (genre)");
        assert_eq!(s, Statement::CreateIndex { table: "GENRE".into(), column: "genre".into() });
        let s = parse_statement("create index idx_g on GENRE (genre)").unwrap();
        assert!(matches!(s, Statement::CreateIndex { .. }));
    }

    #[test]
    fn insert_multi_row() {
        let s =
            roundtrip("insert into MOVIE (mid, title) values (1, 'Alpha'), (2, 'Beta'), (3, NULL)");
        let Statement::Insert { rows, columns, .. } = s else { panic!() };
        assert_eq!(rows.len(), 3);
        assert_eq!(columns.unwrap().len(), 2);
        assert_eq!(rows[2][1], Expr::Literal(Value::Null));
    }

    #[test]
    fn insert_without_columns_and_negative_numbers() {
        let s = roundtrip("insert into T values (-4, 2.5, true)");
        let Statement::Insert { rows, columns, .. } = s else { panic!() };
        assert!(columns.is_none());
        assert_eq!(rows[0][0], Expr::Literal(Value::Int(-4)));
    }

    #[test]
    fn delete_with_and_without_where() {
        let s = roundtrip("delete from MOVIE where mid = 3 and year > 2000");
        assert!(matches!(s, Statement::Delete { selection: Some(_), .. }));
        let s = roundtrip("delete from MOVIE");
        assert!(matches!(s, Statement::Delete { selection: None, .. }));
    }

    #[test]
    fn drop_table() {
        assert_eq!(roundtrip("drop table T"), Statement::DropTable { name: "T".into() });
    }

    #[test]
    fn analyze_with_and_without_table() {
        assert_eq!(roundtrip("analyze MOVIE"), Statement::Analyze { table: Some("MOVIE".into()) });
        assert_eq!(roundtrip("ANALYZE"), Statement::Analyze { table: None });
        assert_eq!(roundtrip("analyze;"), Statement::Analyze { table: None });
        assert!(parse_statement("analyze MOVIE GENRE").is_err(), "one table at most");
    }

    #[test]
    fn show_statements_roundtrip() {
        assert_eq!(roundtrip("show metrics"), Statement::Show(ShowStmt::Metrics));
        assert_eq!(roundtrip("SHOW METRICS;"), Statement::Show(ShowStmt::Metrics));
        assert_eq!(roundtrip("show queries"), Statement::Show(ShowStmt::Queries { limit: None }));
        assert_eq!(
            roundtrip("show queries limit 25"),
            Statement::Show(ShowStmt::Queries { limit: Some(25) })
        );
        assert_eq!(roundtrip("show caches"), Statement::Show(ShowStmt::Caches));
    }

    #[test]
    fn show_rejects_bad_targets() {
        assert!(parse_statement("show").is_err());
        assert!(parse_statement("show tables").is_err());
        assert!(parse_statement("show queries limit").is_err());
        assert!(parse_statement("show queries limit -1").is_err());
        assert!(parse_statement("show metrics extra").is_err());
    }

    #[test]
    fn show_words_stay_usable_as_identifiers() {
        // Only SHOW is reserved; METRICS / QUERIES / CACHES remain valid
        // table and column names.
        let s = roundtrip("select Q.metrics from QUERIES Q where Q.caches = 1");
        assert!(matches!(s, Statement::Query(_)));
    }

    #[test]
    fn trailing_semicolon_accepted() {
        assert!(matches!(parse_statement("select 1 from T;").unwrap(), Statement::Query(_)));
        assert!(matches!(
            parse_statement("drop table T ;  ").unwrap(),
            Statement::DropTable { .. }
        ));
        // Mid-statement semicolons are still rejected.
        assert!(parse_statement("select 1; select 2").is_err());
    }

    #[test]
    fn plain_query_passes_through() {
        let s = roundtrip("select MV.title from MOVIE MV where MV.mid = 1");
        assert!(matches!(s, Statement::Query(_)));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_statement("create table T ()").is_err());
        assert!(parse_statement("create table T (x blob)").is_err());
        assert!(parse_statement("insert into T").is_err());
        assert!(parse_statement("delete T").is_err());
        assert!(parse_statement("create table T (x int) garbage").is_err());
    }
}
