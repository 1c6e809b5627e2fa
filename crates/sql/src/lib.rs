//! SQL front-end for the host engine: lexer, AST, and recursive-descent parser
//! — plus the kernels the engine and the monitor share: binary and unary
//! operators, `LIKE`, and the aggregate fold ([`agg`]).
//!
//! The supported subset covers everything the paper's workloads and monitoring
//! tasks need:
//!
//! * `SELECT` with projections, `INNER JOIN … ON`, `WHERE`, `GROUP BY`, `HAVING`,
//!   `ORDER BY … [ASC|DESC]`, `LIMIT` (used by the Query_logging baseline's
//!   post-processing query "top 10 by duration"),
//! * `INSERT`, `UPDATE`, `DELETE`,
//! * `CREATE TABLE` (with `PRIMARY KEY`, giving a clustered B-tree layout),
//!   `CREATE INDEX`, `DROP TABLE`,
//! * `BEGIN` / `COMMIT` / `ROLLBACK`,
//! * `EXEC proc(args…)` for stored procedures,
//! * positional `?` and named `@param` parameters — named parameters are what lets
//!   the logical query signature substitute *matching* parameter symbols
//!   (Section 4.2 (1) of the paper) instead of plain wildcards.
//!
//! The expression grammar is reused by `sqlcm-core` for ECA rule *conditions*
//! (`Query.Duration > 5 * Duration_LAT.Avg_Duration` parses as an ordinary
//! qualified-column expression tree).

pub mod agg;
pub mod ast;
pub mod ir;
pub mod lexer;
pub mod parser;

pub use ast::{
    BinOp, ColumnDef, Expr, Join, OrderKey, SelectItem, SelectStmt, Statement, TableRef, UnaryOp,
};
pub use ir::{apply_binary, apply_unary, ExprIr, IrOp, LikeMatcher, NodeId};
pub use lexer::{tokenize, Token};
pub use parser::{parse_expression, parse_statement, parse_statements, Parser};
