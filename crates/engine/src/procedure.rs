//! Stored procedures.
//!
//! Procedures matter to SQLCM for two reasons:
//!
//! * Example 1 of the paper monitors *outlier invocations of a stored procedure*;
//! * the logical/physical **transaction signatures** (§4.2, kinds 3 & 4) exist to
//!   distinguish the different *code paths* of a procedure (`IF cond THEN A ELSE
//!   B`): two invocations taking different branches produce different statement
//!   sequences and therefore different transaction signatures.
//!
//! A procedure is a named parameter list plus a body of statements and `IF`
//! blocks whose conditions range over the parameters. Bodies can be built
//! programmatically or parsed from text:
//!
//! ```text
//! IF @mode > 0 THEN
//!     SELECT * FROM orders WHERE id = @id;
//! ELSE
//!     UPDATE orders SET status = 'slow' WHERE id = @id;
//! END;
//! ```

use std::collections::HashMap;

use sqlcm_common::{Error, Result, Value};
use sqlcm_sql::{Expr, Parser, Statement};

use crate::expr::{eval, is_truthy, Params, Schema};

/// One element of a procedure body.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcStatement {
    /// An ordinary SQL statement; `@param` references bind at invocation.
    Sql(Statement),
    /// A two-way branch on a parameter expression.
    If {
        cond: Expr,
        then_branch: Vec<ProcStatement>,
        else_branch: Vec<ProcStatement>,
    },
}

/// A stored procedure definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredProcedure {
    pub name: String,
    /// Parameter names, without the `@`.
    pub params: Vec<String>,
    pub body: Vec<ProcStatement>,
}

impl StoredProcedure {
    /// Parse a procedure from its body text. See module docs for the grammar;
    /// `IF expr THEN stmts [ELSE stmts] END` plus `;`-separated statements.
    pub fn parse(name: &str, params: &[&str], body: &str) -> Result<StoredProcedure> {
        let mut p = Parser::new(body)?;
        let body = parse_block(&mut p, &[])?;
        if !p.is_at_end() {
            return Err(Error::Parse(
                "unexpected trailing input in procedure body".into(),
            ));
        }
        Ok(StoredProcedure {
            name: name.to_string(),
            params: params.iter().map(|s| s.to_string()).collect(),
            body,
        })
    }

    /// Bind `args` to the parameters and flatten the statements this
    /// invocation runs — the exact statement sequence that determines the
    /// transaction signature. Returns the statements and the parameter values
    /// by lower-cased name, which they execute with ([`Params::named`]).
    ///
    /// An `IF` condition is evaluated as `WHERE` evaluates a predicate over an
    /// empty row: the engine's [`eval`] with its three-valued `IN` and
    /// short-circuiting `AND`/`OR`, and NULL taken as false ([`is_truthy`]).
    pub fn resolve_path(&self, args: &[Value]) -> Result<(Vec<Statement>, HashMap<String, Value>)> {
        if args.len() != self.params.len() {
            return Err(Error::Execution(format!(
                "procedure {} expects {} arguments, got {}",
                self.name,
                self.params.len(),
                args.len()
            )));
        }
        let named: HashMap<String, Value> = self
            .params
            .iter()
            .map(|p| p.to_ascii_lowercase())
            .zip(args.iter().cloned())
            .collect();
        let params = Params {
            positional: &[],
            named: Some(&named),
        };
        let mut out = Vec::new();
        flatten(&self.body, &params, &mut out)?;
        Ok((out, named))
    }
}

fn flatten(body: &[ProcStatement], params: &Params, out: &mut Vec<Statement>) -> Result<()> {
    for s in body {
        match s {
            ProcStatement::Sql(stmt) => out.push(stmt.clone()),
            ProcStatement::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let taken = is_truthy(&eval(cond, &Schema::default(), &[], params)?);
                flatten(if taken { then_branch } else { else_branch }, params, out)?;
            }
        }
    }
    Ok(())
}

/// Parse statements until one of `terminators` (a keyword) or end of input.
fn parse_block(p: &mut Parser, terminators: &[&str]) -> Result<Vec<ProcStatement>> {
    let mut out = Vec::new();
    loop {
        while p.eat_semicolon() {}
        if p.is_at_end() {
            break;
        }
        if let Some(kw) = p.peek_keyword() {
            if terminators.contains(&kw.as_str()) {
                break;
            }
            if kw == "IF" {
                p.eat_keyword("IF");
                let cond = p.expr()?;
                if !p.eat_keyword("THEN") {
                    return Err(Error::Parse("expected THEN after IF condition".into()));
                }
                let then_branch = parse_block(p, &["ELSE", "END"])?;
                let else_branch = if p.eat_keyword("ELSE") {
                    parse_block(p, &["END"])?
                } else {
                    Vec::new()
                };
                if !p.eat_keyword("END") {
                    return Err(Error::Parse("expected END to close IF".into()));
                }
                out.push(ProcStatement::If {
                    cond,
                    then_branch,
                    else_branch,
                });
                continue;
            }
        }
        out.push(ProcStatement::Sql(p.statement()?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flat_body() {
        let p = StoredProcedure::parse(
            "touch",
            &["id"],
            "UPDATE t SET a = a + 1 WHERE id = @id; SELECT * FROM t WHERE id = @id;",
        )
        .unwrap();
        assert_eq!(p.body.len(), 2);
        let path = p.resolve_path(&[Value::Int(5)]).unwrap().0;
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn if_else_selects_branch() {
        let p = StoredProcedure::parse(
            "branchy",
            &["mode", "id"],
            "IF @mode > 0 THEN SELECT * FROM a WHERE id = @id; ELSE SELECT * FROM b WHERE id = @id; END;",
        )
        .unwrap();
        let fast = p.resolve_path(&[Value::Int(1), Value::Int(9)]).unwrap().0;
        let slow = p.resolve_path(&[Value::Int(0), Value::Int(9)]).unwrap().0;
        assert_ne!(fast, slow, "different code paths");
        assert!(fast[0].to_string().contains("FROM a"));
        assert!(slow[0].to_string().contains("FROM b"));
    }

    #[test]
    fn nested_if() {
        let p = StoredProcedure::parse(
            "nested",
            &["x"],
            "IF @x > 10 THEN IF @x > 100 THEN SELECT 1; ELSE SELECT 2; END; ELSE SELECT 3; END;",
        )
        .unwrap();
        let path = |v: i64| p.resolve_path(&[Value::Int(v)]).unwrap().0[0].to_string();
        assert_eq!(path(1000), "SELECT 1");
        assert_eq!(path(50), "SELECT 2");
        assert_eq!(path(5), "SELECT 3");
    }

    #[test]
    fn missing_else_is_empty() {
        let p = StoredProcedure::parse("opt", &["x"], "IF @x = 1 THEN SELECT 1; END;").unwrap();
        assert!(p.resolve_path(&[Value::Int(0)]).unwrap().0.is_empty());
        assert_eq!(p.resolve_path(&[Value::Int(1)]).unwrap().0.len(), 1);
    }

    #[test]
    fn arity_checked() {
        let p = StoredProcedure::parse("q", &["a", "b"], "SELECT 1;").unwrap();
        assert!(p.resolve_path(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn unknown_param_in_cond() {
        let p = StoredProcedure::parse("q", &["a"], "IF @nope = 1 THEN SELECT 1; END;").unwrap();
        assert!(p.resolve_path(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(StoredProcedure::parse("p", &[], "IF 1 = 1 SELECT 1; END;").is_err());
        assert!(StoredProcedure::parse("p", &[], "IF 1 = 1 THEN SELECT 1;").is_err());
    }

    /// The branch `IF cond` takes for `args`: "then" or "else".
    fn branch(params: &[&str], cond: &str, args: &[Value]) -> &'static str {
        let body = format!("IF {cond} THEN SELECT 1; ELSE SELECT 2; END;");
        let p = StoredProcedure::parse("p", params, &body).unwrap();
        match p.resolve_path(args).unwrap().0[0].to_string().as_str() {
            "SELECT 1" => "then",
            _ => "else",
        }
    }

    #[test]
    fn if_conditions_have_where_semantics() {
        let (ab, four_ten) = (&["a", "b"], [Value::Int(4), Value::Int(10)]);
        assert_eq!(
            branch(ab, "@a * 2 < @b AND NOT (@a = 0)", &four_ten),
            "then"
        );
        assert_eq!(branch(ab, "@a IS NULL", &four_ten), "else");
        let m = |v: i64| [Value::Int(v)];
        // 2 NOT IN (1, NULL) is UNKNOWN, which WHERE rejects.
        assert_eq!(branch(&["m"], "@m NOT IN (1, NULL)", &m(2)), "else");
        assert_eq!(branch(&["m"], "@m NOT IN (1, 3)", &m(2)), "then");
        // OR short-circuits past the division by zero, as in WHERE.
        assert_eq!(branch(&["m"], "@m = 0 OR 10 / @m > 1", &m(0)), "then");
        assert_eq!(branch(&["m"], "@m <> 0 AND 10 / @m > 1", &m(0)), "else");
        // NULL is not true.
        assert_eq!(branch(&["m"], "@m > 0", &[Value::Null]), "else");
    }
}
