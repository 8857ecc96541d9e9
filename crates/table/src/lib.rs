//! A small in-memory table engine for the `learning-to-sample` workspace.
//!
//! The paper (§2) frames counting queries as: a set of objects `O` that is
//! cheap to enumerate (query Q2), and an expensive per-object predicate
//! `q` (query Q3) that may involve correlated aggregate subqueries,
//! self-joins with HAVING clauses, or arbitrary user-defined functions.
//! This crate provides exactly that substrate:
//!
//! * typed columnar [`Table`]s with a [`Schema`],
//! * an expression AST ([`expr::Expr`]) with arithmetic, comparisons,
//!   `SQRT`/`POWER`, boolean logic, and **correlated scalar aggregate
//!   subqueries** evaluated by nested-loop scan — the evaluation strategy
//!   the paper argues a generic system falls back to,
//! * the Q1 → (Q2, Q3) decomposition ([`query`]): distinct projection for
//!   the object set and an expression predicate for the per-object test,
//! * conjunctive plan analysis ([`mod@decompose`]): split a parsed predicate
//!   into a cheap exact prefilter and an expensive subquery-bearing
//!   residual, feeding the planning layer upstream,
//! * a vectorized, column-at-a-time expression engine ([`vector`]) that
//!   evaluates an `Expr` over a whole table (or a row range, or a
//!   selection vector) in typed branch-free kernels, result-identical
//!   to the row-wise interpreter — the fast path behind every batched
//!   predicate scan,
//! * the parallel scan driver for in-RAM tables ([`partition`]): one
//!   function splits a row selection into zero-copy contiguous chunks
//!   over `Arc`-shared columns, one rule picks the chunk count, and
//!   results are bit-identical to the serial scan at every chunk and
//!   thread count,
//! * instrumented predicates ([`predicate::Metered`]) that meter the
//!   number and wall time of expensive `q` evaluations — the budget
//!   currency of every estimator in the paper,
//! * a 2-d [`grid::GridIndex`] used for surrogate-attribute
//!   stratification (the paper's SSP baseline),
//! * a SQL-ish condition [`parser`] (the paper's textual predicate form,
//!   correlated subqueries included) with a round-trippable `Display`.

#![warn(missing_docs)]

mod bound;
pub mod column;
pub mod decompose;
pub mod error;
pub mod expr;
pub mod grid;
pub mod parser;
pub mod partition;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod storage;
pub mod table;
pub mod value;
pub mod vector;
mod zones;

pub use column::Column;
pub use decompose::{contains_subquery, decompose, split_conjuncts, DecomposedQuery};
pub use error::{TableError, TableResult};
pub use expr::{AggFunc, AggSubquery, BinaryOp, CmpOp, Expr, Func, RowCtx, UnaryOp};
pub use grid::GridIndex;
pub use parser::{parse_condition, TableRegistry};
pub use partition::{par_eval_bool_ids, partition_bounds, PartitionedTable};
pub use predicate::{FnPredicate, Metered, ObjectPredicate, PredicateStats};
pub use query::{distinct_project, ExprPredicate};
pub use schema::{Field, Schema};
pub use storage::{
    BufferManager, BufferSnapshot, PagedTable, ScanSnapshot, Snapshot, StorageError, StorageResult,
    TableManifest, ZoneMap,
};
pub use table::{table_of_floats, Table, TableBuilder};
pub use value::{DataType, Value};
pub use vector::{eval_bool_columnar, eval_columnar, eval_columnar_sel, Batch, RowSel};
