//! The host relational engine for the SQLCM reproduction.
//!
//! The paper implemented SQLCM *inside Microsoft SQL Server*. Since no mainstream
//! engine is available to modify here, this crate is the substitute substrate: a
//! from-scratch, multi-threaded relational engine whose execution paths contain
//! the same probe points the paper instrumented. The monitoring framework
//! (`sqlcm-core`) and the baseline monitors (`sqlcm-baselines`) attach to it
//! through the [`Instrumentation`] trait and are invoked *synchronously in the
//! thread that raised the event* — the property all of the paper's claims rest
//! on (Sections 2.1, 6.1).
//!
//! Engine feature map (→ paper dependency):
//!
//! | Feature | Paper use |
//! |---|---|
//! | SQL parse → bind → optimize → execute | `Query.Compile`/`Start`/`Commit` probe points; `Estimated_Cost` |
//! | plan cache | "if a query plan is cached, so is its signature" (§4.2) |
//! | signature computation in the optimizer | §4.2, all four signature kinds |
//! | clustered B-tree tables + heap tables | Figure 2/3 workloads use clustered-index point selects |
//! | hierarchical lock manager (IS/IX/S/X) with wait queues and a wait-for graph | `Blocker`/`Blocked` objects, `Query.Blocked`/`Block_Released` events, deadlock handling |
//! | transactions with strict 2PL + undo | `Transaction` monitored class, transaction signatures |
//! | stored procedures with parameters and IF/ELSE | outlier detection per code path (§4.2 (3)) |
//! | active-query snapshot API | the PULL baseline, rules iterating over live objects (§5.2), `Cancel()` |
//! | cooperative cancellation | the `Cancel()` action (§5.3) |

pub mod active;
pub mod catalog;
pub mod engine;
pub mod exec;
pub mod expr;
pub mod instrument;
pub mod lock;
pub mod optimizer;
pub mod plan;
pub mod plancache;
pub mod procedure;
pub mod session;
pub mod signature;
pub mod txn;

pub use active::{ActiveQueryState, ActiveRegistry};
pub use catalog::{Catalog, ColumnInfo, TableInfo, TableLayout};
pub use engine::{Engine, EngineConfig};
pub use instrument::{Instrumentation, Multicast, NullInstrumentation};
pub use lock::{LockManager, LockMode, ResourceId};
pub use plan::{LogicalPlan, PhysicalPlan};
pub use procedure::{ProcStatement, StoredProcedure};
pub use session::{QueryResult, Session};
