//! Aggregate functions, including the paper's ranking aggregates.
//!
//! `DEGREE_OF_CONJUNCTION` and `DEGREE_OF_DISJUNCTION` implement §6 of the
//! paper: when the MQ rewrite unions partial results carrying per-preference
//! degrees of interest, the outer `GROUP BY` combines the degrees of the
//! preferences each row satisfies with the conjunction function
//! `1 − ∏(1 − dᵢ)` (or the disjunction function `avg(dᵢ)`), yielding the
//! estimated degree of interest used for ranking.

use crate::bound::ExprId;
use crate::error::{bind_err, Result};
use pqp_storage::Value;

/// The aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(expr)` (non-null count).
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// `1 − ∏(1 − dᵢ)` over non-null inputs (paper §3.3 conjunction).
    DegreeOfConjunction,
    /// `avg(dᵢ)` over non-null inputs (paper §3.3 disjunction).
    DegreeOfDisjunction,
}

impl AggFunc {
    /// Resolve a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "DEGREE_OF_CONJUNCTION" => AggFunc::DegreeOfConjunction,
            "DEGREE_OF_DISJUNCTION" => AggFunc::DegreeOfDisjunction,
            _ => return None,
        })
    }
}

/// A bound aggregate call: the function plus its argument expression, by
/// its position in the plan's expression pool (`None` for `COUNT(*)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggCall {
    pub func: AggFunc,
    pub arg: Option<ExprId>,
}

impl AggCall {
    /// Validate arity at bind time.
    pub fn new(func: AggFunc, arg: Option<ExprId>) -> Result<AggCall> {
        if arg.is_none() && func != AggFunc::Count {
            return bind_err(format!("{func:?} requires an argument; only COUNT accepts `*`"));
        }
        Ok(AggCall { func, arg })
    }

    /// A fresh accumulator for this call.
    pub fn new_state(&self) -> AggState {
        AggState { func: self.func, count: 0, sum: 0.0, min: None, max: None, one_minus_prod: 1.0 }
    }
}

/// Accumulator for one aggregate within one group.
#[derive(Debug, Clone)]
pub struct AggState {
    func: AggFunc,
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
    one_minus_prod: f64,
}

impl AggState {
    /// Feed one input value. `None` means `COUNT(*)` (count the row
    /// unconditionally); `Some(NULL)` is ignored per SQL semantics.
    pub fn update(&mut self, v: Option<&Value>) -> Result<()> {
        let Some(v) = v else {
            self.count += 1;
            return Ok(());
        };
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg | AggFunc::DegreeOfDisjunction => {
                let x = numeric(v)?;
                self.sum += x;
            }
            AggFunc::DegreeOfConjunction => {
                let x = numeric(v)?;
                self.one_minus_prod *= 1.0 - x;
            }
            AggFunc::Min => {
                if self.min.as_ref().is_none_or(|m| v < m) {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self.max.as_ref().is_none_or(|m| v > m) {
                    self.max = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// The final aggregate value. SQL semantics: `COUNT` of nothing is 0,
    /// every other aggregate of nothing is NULL.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg | AggFunc::DegreeOfDisjunction => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::DegreeOfConjunction => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(1.0 - self.one_minus_prod)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

fn numeric(v: &Value) -> Result<f64> {
    v.as_f64().ok_or_else(|| {
        crate::error::EngineError::Exec(format!("non-numeric aggregate input `{v}`"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, inputs: &[Option<Value>]) -> Value {
        let call =
            AggCall::new(func, if inputs.iter().any(Option::is_some) { Some(0) } else { None })
                .unwrap_or(AggCall { func, arg: None });
        let mut s = call.new_state();
        for v in inputs {
            s.update(v.as_ref()).unwrap();
        }
        s.finish()
    }

    #[test]
    fn count_star_counts_rows() {
        assert_eq!(run(AggFunc::Count, &[None, None, None]), Value::Int(3));
        assert_eq!(run(AggFunc::Count, &[]), Value::Int(0));
    }

    #[test]
    fn count_expr_skips_nulls() {
        assert_eq!(
            run(AggFunc::Count, &[Some(Value::Int(1)), Some(Value::Null), Some(Value::Int(2))]),
            Value::Int(2)
        );
    }

    #[test]
    fn sum_avg_min_max() {
        let ins: Vec<Option<Value>> = [1i64, 5, 3].iter().map(|&i| Some(Value::Int(i))).collect();
        assert_eq!(run(AggFunc::Sum, &ins), Value::Float(9.0));
        assert_eq!(run(AggFunc::Avg, &ins), Value::Float(3.0));
        assert_eq!(run(AggFunc::Min, &ins), Value::Int(1));
        assert_eq!(run(AggFunc::Max, &ins), Value::Int(5));
    }

    #[test]
    fn empty_aggregates_are_null() {
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Min, &[]), Value::Null);
        assert_eq!(run(AggFunc::DegreeOfConjunction, &[]), Value::Null);
    }

    #[test]
    fn degree_of_conjunction_matches_paper() {
        // Paper §3.3: degrees 0.7 and 0.81 combine to 1-(1-0.7)(1-0.81)=0.943.
        let v =
            run(AggFunc::DegreeOfConjunction, &[Some(Value::Float(0.7)), Some(Value::Float(0.81))]);
        let Value::Float(f) = v else { panic!() };
        assert!((f - 0.943).abs() < 1e-9);
    }

    #[test]
    fn degree_of_disjunction_matches_paper() {
        // Paper §3.3: (0.7 + 0.81)/2 = 0.755.
        let v =
            run(AggFunc::DegreeOfDisjunction, &[Some(Value::Float(0.7)), Some(Value::Float(0.81))]);
        assert_eq!(v, Value::Float(0.755));
    }

    #[test]
    fn single_degree_is_identity() {
        assert_eq!(
            run(AggFunc::DegreeOfConjunction, &[Some(Value::Float(0.6))]),
            Value::Float(0.6)
        );
    }

    #[test]
    fn names_resolve() {
        assert_eq!(AggFunc::from_name("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("Degree_Of_Conjunction"), Some(AggFunc::DegreeOfConjunction));
        assert_eq!(AggFunc::from_name("median"), None);
    }

    #[test]
    fn non_count_requires_argument() {
        assert!(AggCall::new(AggFunc::Sum, None).is_err());
        assert!(AggCall::new(AggFunc::Count, None).is_ok());
    }
}
