//! Self-telemetry primitives for the SQLCM monitor.
//!
//! The paper's headline claim (§7) is that in-engine synchronous monitoring
//! costs "typically less than 5%" — which means the monitor's own bookkeeping
//! must be cheaper still. Everything in this crate is built for the probe hot
//! path:
//!
//! * [`Stripes`] — one value per *dispatcher slot*: a thread claims the
//!   lowest free slot on first use and frees it on exit, so threads live at
//!   the same time write different cache lines while there are no more of
//!   them than stripes ([`stripe_count`]: the machine's parallelism, rounded
//!   up to a power of two, at most 16).
//! * [`ShardedCounter`] — a striped atomic counter: increments hit the
//!   caller's stripe (no contended cache line), reads sum the stripes.
//! * [`LatencyHistogram`] — per stripe, 64 log2-bucketed atomic buckets
//!   ([`Buckets`]) with running sum and max; [`HistogramSnapshot`] sums the
//!   stripes and derives p50/p95/p99 from the buckets.
//! * [`Stamp`] — one reading of `std::time::Instant`; a span is the distance
//!   between two stamps, and adjacent spans share the stamp between them.
//! * [`FlightRecorder`] — the last N rule firings, kept so a test failure or
//!   cancel storm can be reconstructed after the fact: one fixed ring per
//!   stripe, merged when read. Its records name their rule and event by
//!   [`Label`], which a ring slot re-clones only when the label changes, and
//!   are numbered per lane ([`LANE_SHIFT`]).
//! * [`BoundedRing`] / [`BufferPool`] — drop-oldest retention and span-buffer
//!   recycling for the causal-trace subsystem (`sqlcm-core::trace`), one of
//!   each per stripe: touched once per completed sampled trace, never on the
//!   per-event path.
//! * [`Describe`] / [`Metric`] — how a snapshot slice names its exported
//!   fields once, for every writer to walk.
//!
//! No dependencies, std only: the crate must be linkable from every layer
//! (engine, core, benches) without widening the build.

mod counter;
mod describe;
mod histogram;
mod recorder;
mod ring;
mod stamp;
mod stripe;

pub use counter::ShardedCounter;
pub use describe::{Describe, Field, Fields, Metric};
pub use histogram::{bucket_index, bucket_lower_bound, bucket_upper_bound};
pub use histogram::{Buckets, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use recorder::{Firing, FlightRecord, FlightRecorder, Label};
pub use ring::{BoundedRing, BufferPool};
pub use stamp::Stamp;
pub use stripe::{stripe_count, LaneTags, Stripes, LANE_SHIFT};
