//! Everything an event reaches: the engine-facing adapter (`on_event`), the
//! thread-local pools and pending queue, the per-event books, the rule loop
//! (`handle_one`, `evaluate_rule`, `evaluate_combo`), actions and LAT inserts,
//! breaker outcomes and the containment checkpoint, and the one place a sink
//! is called (`execute_external`).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use sqlcm_common::{EngineEvent, Error, Result, Value};
use sqlcm_engine::instrument::Instrumentation;

use sqlcm_telemetry::{Firing, Label, Stamp};

use crate::actions::{persist_rows, substitute, Action};
use crate::containment::{BreakerGate, CHECKPOINT_INTERVAL};
use crate::deferred::DeferredKind;
use crate::guard::GuardIndex;
use crate::lat::Lat;
use crate::objects::{self, evicted_object, ClassName, Object};
use crate::plan::{CachedPlan, DispatchPlan, EventPlan, PlanRule, Registered, NO_HOIST};
use crate::rules::{EvalContext, LatBinding, RuleEvent};
use crate::trace::{explain_condition, PrunedRules, TraceCtx, NONE_SPAN};

use super::{Sqlcm, SqlcmInner};

/// The engine-facing adapter.
pub(super) struct SqlcmMonitor {
    pub(super) inner: Arc<SqlcmInner>,
}

thread_local! {
    static PROCESSING: Cell<bool> = const { Cell::new(false) };
    static PENDING: RefCell<VecDeque<Queued>> = const { RefCell::new(VecDeque::new()) };
    /// Pooled per-event buffers; borrowed only in short spans that never run
    /// user code, so re-entrant probes cannot observe an active borrow.
    static SCRATCH: RefCell<EventScratch> = const {
        RefCell::new(EventScratch {
            objects: Vec::new(),
            values: Vec::new(),
            work: None,
            plan: None,
        })
    };
    /// Provenance of the currently executing action: `(causing span,
    /// cascade depth of events it queues)`. Set only while a *traced* action
    /// runs, so deferred side effects — re-entrant probes and LAT evictions
    /// queued to [`PENDING`] — carry the cause link and depth of the trace.
    /// `(NONE_SPAN, 0)` whenever no traced action is on the stack.
    static CASCADE_ORIGIN: Cell<(u32, u32)> = const { Cell::new((NONE_SPAN, 0)) };
}

/// Ends a thread's dispatch when [`SqlcmInner::dispatch_with`] returns —
/// and when a panic unwinds out of it, which would otherwise leave
/// [`PROCESSING`] set and queue every later event on the thread to
/// [`PENDING`], never to run. The panicking batch's queued events and
/// cascade origin go with it; its work scratch is rebuilt by the next event.
struct Processing;

impl Drop for Processing {
    fn drop(&mut self) {
        PROCESSING.with(|p| p.set(false));
        PENDING.with(|q| q.borrow_mut().clear());
        CASCADE_ORIGIN.with(|c| c.set((NONE_SPAN, 0)));
    }
}

/// One deferred event awaiting the drain loop of [`SqlcmInner::dispatch_with`]:
/// the deferred-side-effect semantics of §5, plus the causal-trace links.
struct Queued {
    kind: RuleEvent,
    objects: Vec<Object>,
    /// Span that caused this event ([`NONE_SPAN`] when untraced).
    cause: u32,
    /// Cascade depth (root events are 0; each deferred hop adds 1).
    depth: u32,
}

/// Thread-local pools recycling the payload `Vec<Object>`, each object's
/// value buffer, and the per-event working state across events: steady-state
/// dispatch allocates nothing at any rule or hoist-slot count.
/// Bounds keep a pathological thread from hoarding payload buffers; the
/// working state grows to the largest event class the thread has dispatched.
struct EventScratch {
    objects: Vec<Vec<Object>>,
    values: Vec<Vec<Value>>,
    /// `None` until the thread's first event, and while a dispatch has it.
    work: Option<EventWork>,
    /// The plan this thread last dispatched under (see
    /// [`PlanCell::plan`](crate::plan::PlanCell::plan)).
    plan: Option<CachedPlan>,
}

/// Working state of one event, overwritten (cleared, never shrunk) by every
/// [`SqlcmInner::handle_one`].
#[derive(Default)]
struct EventWork {
    /// The rules to run, one bit per rule of the event plan: the guard
    /// index's candidates (or every rule), less those out of service when
    /// the event arrived.
    run: Vec<u64>,
    eval: EvalState,
}

/// What the evaluations of one event share.
#[derive(Default)]
struct EvalState {
    /// Hoisted LAT-row snapshots, one per `EventPlan::hoisted` entry (and
    /// more, left from a larger class: the buffers are reused).
    slots: Vec<HoistState>,
    /// Scratch of [`GuardIndex::refute`].
    keep: Vec<u64>,
    /// Group-key hashes of the event's payload objects.
    hashes: KeyHashes,
}

/// The group-key hashes of one event's payload objects, one per (object,
/// grouping attributes). Every LAT keys its hash alike (`crate::lat`), so
/// the first insert or hoisted lookup that needs one hashes it, and the
/// later ones — into any LAT grouped the same way — reuse it. Cleared for
/// every event; an object that is not one of the event's own (an object
/// combination of §5.2 live-object iteration) is never served from it.
#[derive(Default)]
struct KeyHashes {
    /// (the object's position in the payload, its grouping attributes as a
    /// range of `attrs`, the hash).
    entries: Vec<(usize, std::ops::Range<usize>, Option<u64>)>,
    attrs: Vec<usize>,
}

impl KeyHashes {
    fn clear(&mut self) {
        self.entries.clear();
        self.attrs.clear();
    }

    /// `lat`'s group-key hash of `payload[at]`, where `payload` is the
    /// event's payload.
    fn of(&mut self, payload: &[Object], at: usize, lat: &Lat) -> Option<u64> {
        let want = lat.group_attrs();
        let known = self
            .entries
            .iter()
            .find(|(i, attrs, _)| *i == at && self.attrs[attrs.clone()] == *want);
        if let Some((_, _, hash)) = known {
            return *hash;
        }
        let hash = lat.group_hash(&payload[at]);
        let start = self.attrs.len();
        self.attrs.extend_from_slice(want);
        self.entries.push((at, start..self.attrs.len(), hash));
        hash
    }
}

impl EvalState {
    /// Probe the LAT guards on `slot` once for the writer-free segment that
    /// starts at `from`, the walk's first LAT-guarded candidate on the slot
    /// whose verdict is stale: the rules up to and including the next one
    /// whose actions write the slot's LAT (`EventPlan::writers`). None of
    /// them can change the row before the segment's end, so the row as it
    /// stands now is the one each of their conditions would read. A slot an
    /// earlier rule's `Insert` or `Reset` emptied is fetched, the fetch the
    /// first condition would have made. Each refused rule leaves `run`,
    /// counts one evaluation and books one read of the slot, as its
    /// condition would have, and is noted in `sampled` on a sampled event.
    /// Returns how many rules it refused.
    #[allow(clippy::too_many_arguments)]
    fn refute_segment(
        &mut self,
        ep: &EventPlan,
        gi: &GuardIndex,
        slot: u32,
        from: usize,
        objects: &[Object],
        run: &mut [u64],
        books: &mut EventBooks,
        sampled: Option<&mut Refusals>,
    ) -> u64 {
        let EvalState {
            slots,
            keep,
            hashes,
            ..
        } = self;
        let (state, hoisted) = (&mut slots[slot as usize], &ep.hoisted[slot as usize]);
        let writers = &ep.writers[slot as usize];
        let next = writers.partition_point(|&w| (w as usize) < from);
        let to = match next < writers.len() {
            true => writers[next] as usize,
            false => ep.rules.len() - 1,
        };
        state.fill(&hoisted.lat, objects, Some(hashes));
        state.covered_to = to + 1;
        let row = state.row();
        let mut refused = 0u64;
        match sampled {
            None => gi.refute(slot, row, (from, to), run, keep, |_| refused += 1),
            Some(notes) => gi.refute(slot, row, (from, to), run, keep, |ri| {
                refused += 1;
                notes.admitted[ri >> 6] &= !(1 << (ri & 63));
                let check = ep.rules[ri].lat_guard.as_ref().expect("a LAT-guarded rule");
                notes.reasons.push((ri, check.explain(&hoisted.lat, row)));
            }),
        }
        state.read(refused, books);
        books.evaluations += refused;
        refused
    }
}

/// What a sampled event keeps of its LAT-guard probes for its trace
/// ([`PrunedRules`]): the payload probe's candidates less the rules a LAT
/// guard refused, and why each was refused, by position.
struct Refusals {
    admitted: Vec<u64>,
    reasons: Vec<(usize, String)>,
}

/// One hoist slot's row snapshot within an event. The thread's slots outlive
/// its events, and the row buffer keeps its capacity, so once warm a fetch
/// allocates nothing.
#[derive(Default)]
struct HoistState {
    fetch: Fetch,
    /// The LAT held the row — the implicit ∃ holds — and `row` is it.
    found: bool,
    row: Vec<Value>,
    /// The rules before this position have had the slot's LAT guards
    /// probed against `row` ([`EvalState::refute_segment`]); 0 when no
    /// probe's verdict holds. A segment ends at the slot's next writer, so
    /// the slot is emptied only once the walk is past it.
    covered_to: usize,
}

/// Where a hoist slot stands on the current event.
#[derive(Default, Clone, Copy, PartialEq, Eq)]
enum Fetch {
    /// Not fetched yet, or dropped by a fired rule's `Insert` or `Reset`.
    #[default]
    Empty,
    /// Fetched and the fetch booked: a further read is a hoisted hit.
    Booked,
    /// Fetched for a LAT-guard probe that refused no rule, and read by no
    /// condition yet: the next read books the fetch, as the condition's own
    /// fetch would have been booked.
    Unbooked,
}

impl HoistState {
    /// Fetch `lat`'s row for the object of its source class among `objects`
    /// unless this event has it already, its key hashed through `hashes`
    /// when `objects` is the event's payload.
    fn fill(&mut self, lat: &Lat, objects: &[Object], hashes: Option<&mut KeyHashes>) {
        if self.fetch == Fetch::Empty {
            let source = lat.spec.source_class();
            let at = objects.iter().position(|o| o.class == *source);
            self.found = at.is_some_and(|at| {
                let hash = hashes.and_then(|h| h.of(objects, at, lat));
                lat.lookup_keyed(&objects[at], hash, &mut self.row)
            });
            self.fetch = Fetch::Unbooked;
        }
    }

    /// The fetched row; `None` when the LAT has none, or nothing is fetched.
    fn row(&self) -> Option<&[Value]> {
        (self.fetch != Fetch::Empty && self.found).then_some(&self.row)
    }

    /// Book `n` reads of the filled slot: the first is a hit when an earlier
    /// read booked the fetch, and books the fetch otherwise; the rest are
    /// hits. Returns whether the first was a hit.
    fn read(&mut self, n: u64, books: &mut EventBooks) -> bool {
        let hit = self.fetch == Fetch::Booked;
        if n > 0 {
            self.fetch = Fetch::Booked;
            books.lat_row_fetches += u64::from(!hit);
            books.hoisted_lookup_hits += n - u64::from(!hit);
        }
        hit
    }
}

/// One event's bookkeeping, opened where its rule loop starts and kept on
/// the dispatching thread while its rules run: the tallies
/// [`SqlcmInner::flush`] adds to the shared counters when the books drop —
/// after the event's last rule has run, or when a panic unwinds out of one,
/// so the totals keep every evaluation a rule's own books counted. Until
/// then `Sqlcm::stats` and `Sqlcm::telemetry` — also when read from inside
/// an action — show the global totals as of the previous event; a rule's
/// own counters are always current.
struct EventBooks<'a> {
    owner: &'a SqlcmInner,
    evaluations: u64,
    fires: u64,
    actions: u64,
    action_errors: u64,
    vm_instructions: u64,
    hoisted_lookup_hits: u64,
    lat_row_fetches: u64,
}

impl EventBooks<'_> {
    /// Books crediting the `pruned` evaluations the guard probe decided
    /// without running them.
    fn open(owner: &SqlcmInner, pruned: u64) -> EventBooks<'_> {
        EventBooks {
            owner,
            evaluations: pruned,
            fires: 0,
            actions: 0,
            action_errors: 0,
            vm_instructions: 0,
            hoisted_lookup_hits: 0,
            lat_row_fetches: 0,
        }
    }
}

impl Drop for EventBooks<'_> {
    fn drop(&mut self) {
        self.owner.flush(self);
    }
}

/// A rule times its evaluations and firings at indexes 0, 64, 128, … of
/// each dispatcher's stripe of its books, so its first ones always are,
/// whatever the mix of event classes around it. Counts stay exact.
const SPAN_SAMPLING: u64 = 64;

/// What every rule evaluation of one event shares.
struct EventCtx<'a> {
    /// The plan of the batch the event belongs to.
    plan: &'a DispatchPlan,
    ep: &'a EventPlan,
    /// The event's payload.
    objects: &'a [Object],
    /// The guard index decided the event's candidates: a rule it admitted
    /// whose guards decide its condition (`PlanRule::decided`) fires.
    probed: bool,
    /// The event's trace span ([`NONE_SPAN`] untraced) and cascade depth.
    span: u32,
    depth: u32,
    /// When the batch's root event entered the monitor: its flight records'
    /// merge key.
    at: Stamp,
    /// The objects carry every class of `ep.payload` — always, for an event
    /// the engine or the monitor assembled.
    as_declared: bool,
    /// A latency budget is set: the breaker judges every outcome, so every
    /// evaluation and firing is timed.
    time_all: bool,
}

const OBJECT_POOL_BOUND: usize = 4;

const VALUE_POOL_BOUND: usize = 8;

impl Instrumentation for SqlcmMonitor {
    fn on_event(&self, event: &EngineEvent) {
        // This dispatcher's own count of events: each paces its checkpoint.
        let n = self.inner.events.incr();
        let probe = event.kind();
        let telem = &self.inner.telemetry;
        // Per-kind attribution is a single sharded-counter increment, so the
        // per-probe counts always sum to `SqlcmStats::events`.
        telem.probe_events[probe.index()].incr();
        // Every event is timed: two clock reads, whatever its rules time.
        let entered = Stamp::now();
        // One epoch load and one bit test, no registry lock — "no monitoring
        // is performed unless it is required by a rule" (§2.1).
        self.inner.with_plan(|plan| {
            if plan.probe_mask.contains(probe) {
                let kind = RuleEvent::from(probe);
                self.inner
                    .dispatch_root(plan, kind, Payload::Probe(event), entered);
            }
        });
        telem.probe_latency[probe.index()].record(Stamp::now().nanos_since(entered));
        // Containment checkpoint: a masked counter test per event; the cold
        // re-admission scan runs every `CHECKPOINT_INTERVAL` events of each
        // dispatcher's stripe.
        if n & (CHECKPOINT_INTERVAL - 1) == 0 {
            self.inner.scan_quarantined();
        }
    }

    fn name(&self) -> &str {
        "sqlcm"
    }

    /// Let the engine skip assembling events no rule subscribes to. The
    /// engine caches the answer (`refresh_interest`), so this is off the
    /// event path.
    fn wants(&self, kind: sqlcm_common::ProbeKind) -> bool {
        self.inner.plan.load().probe_mask.contains(kind)
    }
}

/// Positions of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// Build the context objects of an engine event, drawing value buffers from
/// `bufs` (the thread-local pool on the hot path; an empty pool allocates).
fn payload_objects_in(event: &EngineEvent, out: &mut Vec<Object>, bufs: &mut Vec<Vec<Value>>) {
    out.clear();
    match event {
        EngineEvent::QueryStart(q)
        | EngineEvent::QueryCompile(q)
        | EngineEvent::QueryCommit(q)
        | EngineEvent::QueryRollback(q)
        | EngineEvent::QueryCancel(q) => {
            let buf = bufs.pop().unwrap_or_default();
            out.push(objects::query_object_in(q, buf));
        }
        EngineEvent::QueryBlocked(p) | EngineEvent::BlockReleased(p) => {
            let b1 = bufs.pop().unwrap_or_default();
            let b2 = bufs.pop().unwrap_or_default();
            let (blocker, blocked) = objects::block_pair_objects_in(p, b1, b2);
            out.push(blocker);
            out.push(blocked);
        }
        EngineEvent::TxnBegin(t) | EngineEvent::TxnCommit(t) | EngineEvent::TxnRollback(t) => {
            let buf = bufs.pop().unwrap_or_default();
            out.push(objects::txn_object_in(t, buf));
        }
        EngineEvent::Login(s) | EngineEvent::Logout(s) => {
            let buf = bufs.pop().unwrap_or_default();
            out.push(objects::session_object_in(s, buf));
        }
    }
}

/// The live objects of one class (§5.2), as what each adds to an object
/// combination: a query, a (blocker, blocked) pair, a table.
type LiveSet = Vec<Vec<Object>>;

/// A root event's payload.
enum Payload<'a> {
    /// An engine probe's, assembled from the event in the thread-local pools.
    Probe(&'a EngineEvent),
    /// One the monitor built (timers, self-monitoring, tests).
    Owned(Vec<Object>),
}

impl Payload<'_> {
    /// The payload as owned objects, for the pending queue.
    fn into_owned(self) -> Vec<Object> {
        match self {
            Payload::Probe(event) => {
                let mut objects = Vec::new();
                payload_objects_in(event, &mut objects, &mut Vec::new());
                objects
            }
            Payload::Owned(objects) => objects,
        }
    }

    /// Run `f` on the objects. A probe's are assembled in buffers from the
    /// thread-local pools and given back to them after `f` (zero allocations
    /// in steady state).
    fn with<R>(self, f: impl FnOnce(&[Object]) -> R) -> R {
        let event = match self {
            Payload::Probe(event) => event,
            Payload::Owned(objects) => return f(&objects),
        };
        let (mut objs, mut bufs) = SCRATCH.with(|s| {
            let mut sc = s.borrow_mut();
            (
                sc.objects.pop().unwrap_or_default(),
                std::mem::take(&mut sc.values),
            )
        });
        payload_objects_in(event, &mut objs, &mut bufs);
        let out = f(&objs);
        SCRATCH.with(|s| {
            let mut sc = s.borrow_mut();
            // Recycle: the value buffers go back into `bufs`, and `bufs` —
            // which still owns the pool's backing storage — is moved back
            // whole, so steady state never reallocates the pool itself.
            for o in objs.drain(..) {
                let mut v = o.into_values();
                v.clear();
                if bufs.len() < VALUE_POOL_BOUND {
                    bufs.push(v);
                }
            }
            sc.values = std::mem::take(&mut bufs);
            if sc.objects.len() < OBJECT_POOL_BOUND {
                sc.objects.push(std::mem::take(&mut objs));
            }
        });
        out
    }
}

impl SqlcmInner {
    // ------------------------------------------------------------ dispatch

    /// Run `f` under the published plan, through this thread's cached
    /// reference to it ([`PlanCell::plan`](crate::plan::PlanCell::plan)).
    /// `f` runs rule actions, so the cache leaves `SCRATCH` for the
    /// duration: a probe raised from inside `f` finds the slot empty and
    /// fetches the plan from the cell.
    fn with_plan<R>(&self, f: impl FnOnce(&DispatchPlan) -> R) -> R {
        let mut cache = SCRATCH.with(|s| s.borrow_mut().plan.take());
        let out = f(self.plan.plan(&mut cache));
        SCRATCH.with(|s| s.borrow_mut().plan = cache);
        out
    }

    /// Dispatch a root event that entered at `at` under `plan`, sampled for
    /// tracing. Re-entrant — raised while this thread dispatches, as by a
    /// rule action that touched the engine — it is queued instead, for the
    /// outer dispatch to drain, citing the running action (if traced) as its
    /// cause.
    fn dispatch_root(&self, plan: &DispatchPlan, kind: RuleEvent, payload: Payload, at: Stamp) {
        if PROCESSING.with(|p| p.get()) {
            let (cause, depth) = CASCADE_ORIGIN.with(|c| c.get());
            let objects = payload.into_owned();
            PENDING.with(|q| {
                q.borrow_mut().push_back(Queued {
                    kind,
                    objects,
                    cause,
                    depth,
                })
            });
            return;
        }
        // Sampling decision: with tracing off this is one relaxed atomic
        // load — the clock is read only when the event is actually sampled.
        let mut trace = self.tracer.sample(|| self.clock.now_micros());
        payload.with(|objects| self.dispatch_with(plan, &kind, objects, at, &mut trace));
        if let Some(ctx) = trace {
            self.tracer.finish(ctx);
        }
    }

    /// Entry point for internally raised events (timers, self-monitoring,
    /// tests): stamp its entry and dispatch it under the current plan.
    pub(super) fn dispatch(&self, kind: RuleEvent, objects: Vec<Object>) {
        let at = Stamp::now();
        self.with_plan(|plan| self.dispatch_root(plan, kind, Payload::Owned(objects), at));
    }

    /// Process one event and drain whatever the processing generated, all
    /// under a single plan: "for any given event, all applicable rules are
    /// triggered before any later event is processed" — the applicable set,
    /// and which evictions raise an event, is whatever plan was current when
    /// the batch started. When `trace` is active, the root and every drained
    /// cascade hop record into it; every hop's flight records carry the
    /// root's entry stamp `at`.
    fn dispatch_with(
        &self,
        plan: &DispatchPlan,
        kind: &RuleEvent,
        objects: &[Object],
        at: Stamp,
        trace: &mut Option<TraceCtx>,
    ) {
        PROCESSING.with(|p| p.set(true));
        let _processing = Processing;
        let mut work = SCRATCH
            .with(|s| s.borrow_mut().work.take())
            .unwrap_or_default();
        self.handle_one(plan, kind, objects, at, trace, NONE_SPAN, 0, &mut work);
        while let Some(q) = PENDING.with(|q| q.borrow_mut().pop_front()) {
            let (cause, depth) = (q.cause, q.depth);
            let (kind, objects) = (&q.kind, &q.objects);
            self.handle_one(plan, kind, objects, at, trace, cause, depth, &mut work);
        }
        SCRATCH.with(|s| s.borrow_mut().work = Some(work));
    }

    /// Evaluate this event's rules in registration order: the guard index's
    /// candidates when the probe is usable, every rule otherwise — one walk
    /// over the set bits either way, so the event costs what it *does*, not
    /// what is registered. `cause`/`depth` are the trace-provenance link of a
    /// drained deferred event ([`NONE_SPAN`]/0 for the root).
    #[allow(clippy::too_many_arguments)]
    fn handle_one(
        &self,
        plan: &DispatchPlan,
        kind: &RuleEvent,
        objects: &[Object],
        at: Stamp,
        trace: &mut Option<TraceCtx>,
        cause: u32,
        depth: u32,
        work: &mut EventWork,
    ) {
        let Some(ep) = plan.event_plan(kind) else {
            return;
        };
        let event_span = match trace.as_mut() {
            Some(ctx) => ctx.open_event(ep.label.to_string(), cause, depth),
            None => NONE_SPAN,
        };
        let EventWork { run, eval } = work;
        // Shared hoist-slot store for this event: each slot is fetched at
        // most once and reused by every rule referencing that LAT.
        if eval.slots.len() < ep.hoisted.len() {
            eval.slots
                .resize_with(ep.hoisted.len(), HoistState::default);
        }
        for slot in &mut eval.slots[..ep.hoisted.len()] {
            slot.fetch = Fetch::Empty;
            slot.covered_to = 0;
        }
        eval.hashes.clear();
        // Guard-index probe: one pass over the per-event index yields the
        // candidate bitset (in registration order — the bitset only *skips*
        // rules, it never reorders them). A pruned rule's condition is
        // provably false-or-null and infallible, so it counts an evaluation
        // without being touched: the class clock ticks once for all of them
        // (`rules::EventClock`). An event without a usable probe runs the
        // same walk over an all-ones set.
        let n = ep.rules.len();
        run.clear();
        run.resize(n.div_ceil(64), 0);
        // How many rules a probed event evaluates, by running or by pruning.
        let creditable = match (&ep.guards, &ep.clock) {
            (Some(gi), Some(clock)) if gi.probe(objects, run) => Some(clock.tick()),
            _ => None,
        };
        let probed = creditable.is_some();
        if !probed {
            run.fill(u64::MAX);
            if let (Some(last), tail @ 1..) = (run.last_mut(), n % 64) {
                *last = (1u64 << tail) - 1;
            }
        }
        let mut sampled = match trace {
            Some(_) if probed => Some(Refusals {
                admitted: run.clone(),
                reasons: Vec::new(),
            }),
            _ => None,
        };
        // Pin applicability before any rule runs (see `Rule::set_enabled`):
        // the in-service bit is read here, for the rules about to run only —
        // the same bit that opens and closes the rule's credit on the class
        // clock, so a rule is credited a pruning iff it would have run. A
        // rule with a LAT guard is a candidate only once its segment's probe
        // admits it.
        let mut admitted = 0u64;
        for (w, word) in run.iter_mut().enumerate() {
            for b in set_bits(*word) {
                let pr = &ep.rules[w * 64 + b];
                if !pr.reg.rule.in_service() {
                    *word &= !(1 << b);
                    continue;
                }
                if probed {
                    admitted += 1;
                    if pr.lat_guard.is_none() {
                        let mine = pr.reg.rule.books.mine();
                        mine.candidate_events.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        // A rule put into service by another thread between the tick and
        // the pin can leave `admitted` above the snapshot.
        let pruned = creditable.map_or(0, |c| c.saturating_sub(admitted));
        let ev = EventCtx {
            plan,
            ep,
            objects,
            probed,
            span: event_span,
            depth,
            at,
            as_declared: ep
                .payload
                .iter()
                .all(|c| objects.iter().any(|o| o.class == *c)),
            time_all: self.containment.latency_budget_nanos() > 0,
        };
        let mut books = EventBooks::open(self, pruned);
        // Rules the LAT-guard probes refused. The walk re-reads its word
        // after a probe: a refused rule is never visited.
        let mut lat_pruned = 0u64;
        for w in 0..run.len() {
            let mut word = run[w];
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                let ri = w * 64 + b;
                let pr = &ep.rules[ri];
                if let Some(check) = pr.lat_guard.as_ref().filter(|_| probed) {
                    let slot = check.slot;
                    if eval.slots[slot as usize].covered_to <= ri {
                        let gi = ep.guards.as_ref().expect("a probed event has an index");
                        let notes = sampled.as_mut();
                        lat_pruned +=
                            eval.refute_segment(ep, gi, slot, ri, objects, run, &mut books, notes);
                        word &= run[w];
                        if run[w] & (1 << b) == 0 {
                            continue;
                        }
                    }
                    let mine = pr.reg.rule.books.mine();
                    mine.candidate_events.fetch_add(1, Ordering::Relaxed);
                }
                self.evaluate_rule(&ev, pr, objects, eval, &mut books, trace);
            }
        }
        if probed {
            let (pruned, admitted) = (pruned + lat_pruned, admitted - lat_pruned);
            self.telemetry.guard_probes.incr();
            if pruned > 0 {
                self.telemetry.rules_pruned.add(pruned);
            }
            if admitted > 0 {
                self.telemetry.candidate_rules.add(admitted);
            }
            if let (Some(ctx), Some(notes)) = (trace.as_mut(), sampled) {
                ctx.pruned_rules(PrunedRules {
                    event_span,
                    pruned,
                    candidates: admitted,
                    plan: ep.clone(),
                    admitted: notes.admitted,
                    lat_reasons: notes.reasons,
                    objects: objects.to_vec(),
                });
            }
        }
        drop(books);
        if let Some(ctx) = trace.as_mut() {
            ctx.close(event_span);
        }
    }

    /// Add one event's tallies to the striped totals — once per
    /// `handle_one`, when its books drop, so an evaluation writes none of
    /// their lines.
    fn flush(&self, b: &EventBooks) {
        let t = &self.telemetry;
        for (total, n) in [
            (&self.evaluations, b.evaluations),
            (&self.fires, b.fires),
            (&self.actions, b.actions),
            (&self.action_errors, b.action_errors),
            (&t.vm_instructions, b.vm_instructions),
            (&t.hoisted_lookup_hits, b.hoisted_lookup_hits),
            (&t.lat_row_fetches, b.lat_row_fetches),
        ] {
            if n != 0 {
                total.add(n);
            }
        }
    }

    /// Evaluate one rule against the event context: once per member of the
    /// product of the event's payload with the live set of each class the
    /// condition names and the payload lacks (§5.2).
    fn evaluate_rule(
        &self,
        ev: &EventCtx,
        pr: &PlanRule,
        base: &[Object],
        eval: &mut EvalState,
        books: &mut EventBooks,
        trace: &mut Option<TraceCtx>,
    ) {
        // The overwhelmingly common case, and the one Figure 2 stresses:
        // every class the condition references is in the event payload —
        // decided when the rule was planned — so nothing is missing.
        let sets = match pr.in_payload && ev.as_declared {
            true => Vec::new(),
            false => match self.live_sets(&pr.reg.cond_classes, base) {
                Some(sets) => sets,
                None => return,
            },
        };
        if sets.iter().any(Vec::is_empty) {
            return;
        }
        // One position per live set, the last moving fastest. With no set
        // the product is the payload alone, evaluated in place, no clone.
        let mut at = vec![0; sets.len()];
        let mut combo = Vec::new();
        loop {
            let objects = match sets.is_empty() {
                true => base,
                false => {
                    combo.clear();
                    combo.extend_from_slice(base);
                    for (set, &i) in sets.iter().zip(&at) {
                        combo.extend_from_slice(&set[i]);
                    }
                    &combo
                }
            };
            self.evaluate_combo(ev, pr, objects, eval, books, trace);
            // A set that wraps around carries into the one before it.
            let advanced = at.iter_mut().zip(&sets).rev().any(|(i, set)| {
                *i = (*i + 1) % set.len();
                *i != 0
            });
            if !advanced {
                return;
            }
        }
    }

    /// The live set of each class in `classes` that `base` lacks, in the
    /// order queries, blocked pairs, tables. `None` when a class is not
    /// iterable (`ClassSchema::iterable`, the flag the analyzer's
    /// joinability checks read): a rule needing one outside its event
    /// context never fires.
    fn live_sets(&self, classes: &[ClassName], base: &[Object]) -> Option<Vec<LiveSet>> {
        let missing = |c: &ClassName| classes.contains(c) && base.iter().all(|o| o.class != *c);
        let iterable = |c: &ClassName| c.schema().is_some_and(|s| s.iterable);
        if classes.iter().any(|c| missing(c) && !iterable(c)) {
            return None;
        }
        let mut sets = Vec::new();
        if missing(&ClassName::Query) {
            let now = self.clock.now_micros();
            let handles = self.engine.active.handles();
            let queries = handles.iter().map(|h| h.snapshot(now));
            sets.push(queries.map(|q| vec![objects::query_object(&q)]).collect());
        }
        if missing(&ClassName::Blocker) || missing(&ClassName::Blocked) {
            let pairs = self.engine.locks.blocked_pairs();
            let pairs = pairs.iter().map(objects::block_pair_objects);
            sets.push(
                pairs
                    .map(|(blocker, blocked)| vec![blocker, blocked])
                    .collect(),
            );
        }
        if missing(&ClassName::Table) {
            let tables = self.engine.catalog.tables();
            sets.push(
                tables
                    .iter()
                    .map(|t| vec![objects::table_object(t)])
                    .collect(),
            );
        }
        Some(sets)
    }

    /// Evaluate the condition against one object combination — LAT rows come
    /// from the event-shared hoist `slots` where the plan hoisted the lookup —
    /// and run the actions when it fires.
    fn evaluate_combo(
        &self,
        ev: &EventCtx,
        pr: &PlanRule,
        combo: &[Object],
        eval: &mut EvalState,
        books: &mut EventBooks,
        trace: &mut Option<TraceCtx>,
    ) {
        let EvalState { slots, hashes, .. } = eval;
        // Group-key hashes are memoized for the event's own objects only.
        let mut hashes = std::ptr::eq(combo, ev.objects).then_some(hashes);
        let reg = &*pr.reg;
        // Breaker admission. `Closed` (the steady state) costs one relaxed
        // load. `Skip` is the half-open rule while its one trial is in
        // flight, and the rule that tripped after this event pinned it; a
        // skipped evaluation is not counted as an evaluation.
        let trial = match reg.breaker.gate() {
            BreakerGate::Proceed => false,
            BreakerGate::Trial => true,
            BreakerGate::Skip => {
                self.containment.breaker_skips.incr();
                return;
            }
        };
        // This dispatcher's stripe of the rule's books: every count and span
        // of the evaluation lands in it. The count's old value is this
        // evaluation's index on the stripe, and picks whether it is timed.
        let mine = reg.rule.books.mine();
        let k = mine.evaluations.fetch_add(1, Ordering::Relaxed);
        books.evaluations += 1;
        let start = (ev.time_all || k.is_multiple_of(SPAN_SAMPLING)).then(Stamp::now);
        // Ends the condition's span when it is timed: its end stamp and
        // nanoseconds.
        let end_condition = || {
            start.map(|start| {
                let end = Stamp::now();
                let nanos = end.nanos_since(start);
                mine.record_condition(nanos);
                (end, nanos)
            })
        };
        let rule_span = match trace.as_mut() {
            Some(ctx) => ctx.open_rule(ev.span, &reg.rule.name),
            None => NONE_SPAN,
        };
        if let Some(msg) = &pr.broken {
            // A cond-LAT was dropped after registration: the evaluation is
            // still counted (matching the old per-evaluation resolution), then
            // recorded as an error.
            self.record_error(&reg.rule.name, msg.clone());
            if let Some(ctx) = trace.as_mut() {
                ctx.rule_outcome(rule_span, false, format!("broken: {msg}"));
                ctx.close(rule_span);
            }
            end_condition();
            // A broken rule errors every evaluation by design; feeding that
            // into the breaker window would quarantine it and *hide* the
            // per-evaluation errors the old resolution surfaced. Only a
            // half-open trial observes it (and re-opens).
            if trial {
                self.record_breaker_outcome(reg, true, true, 0);
            }
            return;
        }
        // Phase A — materialize LAT rows for the condition (implicit ∃, §5.2).
        // Hoisted lookups land in the event-shared `slots` (fetched at most
        // once per event, reused by every rule on the same LAT); non-hoistable
        // ones go to a per-combo local. Inline storage covers realistic rule
        // shapes, so the steady state allocates nothing here.
        const INLINE_LATS: usize = 8;
        let n_lats = pr.lats.len();
        let mut local_inline: [Option<Vec<Value>>; INLINE_LATS] = Default::default();
        let mut local_heap;
        let local: &mut [Option<Vec<Value>>] = if n_lats <= INLINE_LATS {
            &mut local_inline[..n_lats]
        } else {
            local_heap = vec![None; n_lats];
            &mut local_heap
        };
        for (i, lat) in pr.lats.iter().enumerate() {
            let slot = pr.lat_slots[i];
            if slot == NO_HOIST {
                books.lat_row_fetches += 1;
                local[i] = combo
                    .iter()
                    .find(|o| o.class == *lat.spec.source_class())
                    .and_then(|o| lat.lookup_for(o));
                if let Some(ctx) = trace.as_mut() {
                    ctx.lat_lookup(rule_span, &lat.spec.name, local[i].is_some(), false);
                }
            } else {
                let slot = &mut slots[slot as usize];
                slot.fill(lat, combo, hashes.as_deref_mut());
                let hoisted = slot.read(1, books);
                if let Some(ctx) = trace.as_mut() {
                    ctx.lat_lookup(rule_span, &lat.spec.name, slot.found, hoisted);
                }
            }
        }

        // Phase B — borrow the rows into fixed-layout bindings indexed by the
        // rule's `cond_lats` order (what `ir::Resolved::LatCol` points into).
        let slots_ro: &[HoistState] = &*slots;
        let row_of = |i: usize| {
            let slot = pr.lat_slots[i];
            if slot == NO_HOIST {
                local[i].as_deref()
            } else {
                slots_ro[slot as usize].row()
            }
        };
        let binding = |i: usize| LatBinding {
            name: &reg.cond_lats[i],
            lat: &pr.lats[i],
            row: row_of(i),
        };
        const INLINE_BINDS: usize = 8;
        let bind_one: LatBinding;
        let mut bind_inline: [LatBinding; INLINE_BINDS];
        let bind_heap: Vec<LatBinding>;
        let bindings: &[LatBinding] = match n_lats {
            0 => &[],
            // The common shape, and measurably cheaper than filling an array
            // for it (≈ 30 ns per evaluation on `storm_shared_lat`).
            1 => {
                bind_one = binding(0);
                std::slice::from_ref(&bind_one)
            }
            2..=INLINE_BINDS => {
                // `LatBinding` is `Copy`: the first binding fills the array,
                // the others overwrite their positions.
                bind_inline = [binding(0); INLINE_BINDS];
                for (i, slot) in bind_inline.iter_mut().enumerate().take(n_lats).skip(1) {
                    *slot = binding(i);
                }
                &bind_inline[..n_lats]
            }
            _ => {
                bind_heap = (0..n_lats).map(binding).collect();
                &bind_heap
            }
        };
        let ctx = EvalContext {
            objects: combo,
            lat_rows: bindings,
        };
        let mut cond_error = false;
        let mut vm_stats = crate::vm::VmStats::default();
        let fire = match &pr.program {
            None => true,
            // The index admitted the rule, and its guards are the condition.
            Some(_) if ev.probed && pr.decided => true,
            Some(prog) => match crate::vm::eval_condition(prog, &ctx, &mut [], &mut vm_stats) {
                Ok(b) => b,
                Err(e) => {
                    cond_error = true;
                    mine.action_errors.fetch_add(1, Ordering::Relaxed);
                    self.record_error(
                        &reg.rule.name,
                        format!("condition of rule {} failed: {e}", reg.rule.name),
                    );
                    false
                }
            },
        };
        books.vm_instructions += vm_stats.instructions;
        // A timed condition's span: LAT binding and the compiled condition.
        let cond_end = end_condition();
        let cond_nanos = cond_end.map_or(0, |(_, nanos)| nanos);
        // The explainer re-resolves the condition's references — allocation
        // and extra lookups happen only on sampled evaluations.
        if let Some(tctx) = trace.as_mut() {
            let why = explain_condition(reg.compiled.as_deref(), &ctx, fire, cond_error);
            tctx.rule_outcome(rule_span, fire, why);
        }
        let trace_id = trace.as_ref().map(|c| c.trace_id()).unwrap_or(0);
        if !fire {
            // Errored evaluations are worth replaying; silent non-fires are not.
            if cond_error {
                self.telemetry.recorder.record(Firing {
                    at: ev.at,
                    event: &ev.ep.label,
                    rule: &reg.name_label,
                    fired: false,
                    actions: 0,
                    errors: 1,
                    duration_nanos: cond_nanos,
                    trace_id,
                });
            }
            if let Some(tctx) = trace.as_mut() {
                tctx.close(rule_span);
            }
            self.record_breaker_outcome(reg, trial, cond_error, cond_nanos);
            return;
        }
        let f = mine.fires.fetch_add(1, Ordering::Relaxed);
        books.fires += 1;
        // A timed firing's span starts where the condition's ended, or at a
        // fresh read when the condition was not timed.
        let fired_at = (ev.time_all || f.is_multiple_of(SPAN_SAMPLING))
            .then(|| cond_end.map_or_else(Stamp::now, |(end, _)| end));
        let mut errors = 0u32;
        for (action, lat) in reg.actions() {
            books.actions += 1;
            mine.executed_actions.fetch_add(1, Ordering::Relaxed);
            let action_span = match trace.as_mut() {
                Some(tctx) => {
                    let s = tctx.open_action(rule_span, action.kind());
                    // Deferred side effects raised by this action (re-entrant
                    // probes, LAT evictions) cite it as their cascade cause.
                    CASCADE_ORIGIN.with(|c| c.set((s, ev.depth + 1)));
                    s
                }
                None => NONE_SPAN,
            };
            let result = self.execute_action(
                ev.plan,
                &reg.rule.name,
                action,
                lat,
                &ctx,
                hashes.as_deref_mut(),
                trace,
                action_span,
            );
            if let Some(tctx) = trace.as_mut() {
                CASCADE_ORIGIN.with(|c| c.set((NONE_SPAN, 0)));
                if result.is_err() {
                    tctx.action_failed(action_span);
                }
                tctx.close(action_span);
            }
            if let Err(e) = result {
                errors += 1;
                mine.action_errors.fetch_add(1, Ordering::Relaxed);
                books.action_errors += 1;
                self.record_error(
                    &reg.rule.name,
                    format!("action of rule {} failed: {e}", reg.rule.name),
                );
            }
        }
        if let Some(tctx) = trace.as_mut() {
            tctx.close(rule_span);
        }
        // A timed firing's span: the actions, and the trace explainer when
        // the event is sampled and the condition was timed. The flight record
        // and the breaker get the condition's span plus the firing's, or 0
        // when the firing was not timed.
        let total_nanos = fired_at.map_or(0, |start| {
            let action_nanos = Stamp::now().nanos_since(start);
            mine.record_action(action_nanos);
            cond_nanos + action_nanos
        });
        self.telemetry.recorder.record(Firing {
            at: ev.at,
            event: &ev.ep.label,
            rule: &reg.name_label,
            fired: true,
            actions: reg.action_lats.len() as u32,
            errors,
            duration_nanos: total_nanos,
            trace_id,
        });
        // Phase C — a fired rule's Insert/Reset may have changed the hoisted
        // rows; drop those slots so later rules on this event re-fetch
        // (read-your-predecessors'-writes, §5 ordering).
        for &inv in &pr.invalidates {
            slots[inv as usize].fetch = Fetch::Empty;
        }
        self.record_breaker_outcome(reg, trial, errors > 0, total_nanos);
    }

    /// Execute one action of a fired rule; `lat` is the LAT it was
    /// registered against. `plan` is the batch's: an `Insert` reads its
    /// eviction interest from it, and its key hash from `hashes` when
    /// `ctx.objects` is the event's payload.
    #[allow(clippy::too_many_arguments)]
    fn execute_action(
        &self,
        plan: &DispatchPlan,
        rule: &str,
        action: &Action,
        lat: Option<&Arc<Lat>>,
        ctx: &EvalContext,
        hashes: Option<&mut KeyHashes>,
        trace: &mut Option<TraceCtx>,
        action_span: u32,
    ) -> Result<()> {
        let object_of = |class: &ClassName| {
            ctx.objects
                .iter()
                .find(|o| o.class == *class)
                .ok_or_else(|| Error::Monitor(format!("no object of class {class} in scope")))
        };
        let lat = || lat.expect("a LAT action's target is resolved at registration");
        match action {
            Action::Insert { .. } => {
                self.insert_into_lat(plan, lat(), ctx, hashes, trace, action_span)
            }
            Action::Reset { .. } => {
                let lat = lat();
                lat.reset();
                if let Some(tctx) = trace.as_mut() {
                    tctx.lat_mutation(action_span, &lat.spec.name, "reset", 0);
                }
                Ok(())
            }
            // The rows are read now either way — asynchronous actions defer
            // the write, not the paper-mandated read point.
            Action::PersistLat { table, .. } => self.run_or_defer(
                rule,
                DeferredKind::Persist {
                    table: table.clone(),
                    rows: self.timestamped_rows(lat()),
                },
            ),
            Action::PersistObject {
                table,
                class,
                attrs,
            } => {
                let obj = object_of(class)?;
                let row: Vec<Value> = attrs
                    .iter()
                    .map(|a| {
                        obj.get(a).cloned().ok_or_else(|| {
                            Error::Monitor(format!("class {class} has no attribute {a}"))
                        })
                    })
                    .collect::<Result<_>>()?;
                // Resolution errors above stay synchronous (they depend on the
                // evaluation context); only the table write is deferrable.
                let rows = vec![row];
                let table = table.clone();
                self.run_or_defer(rule, DeferredKind::Persist { table, rows })
            }
            Action::SendMail { to, template } => {
                let body = substitute(template, ctx);
                let to = substitute(to, ctx);
                self.run_or_defer(rule, DeferredKind::Mail { to, body })
            }
            Action::RunExternal { template } => {
                let cmd = substitute(template, ctx);
                self.run_or_defer(rule, DeferredKind::Command { cmd })
            }
            Action::Cancel { class } => {
                let id = object_of(class)?
                    .get("ID")
                    .and_then(|v| v.as_i64())
                    .ok_or_else(|| Error::Monitor("object has no ID".into()))?;
                // Only signals the executing thread(s); see §5.
                self.engine.active.cancel(id as u64);
                Ok(())
            }
            Action::SetTimer {
                timer,
                period_micros,
                number_alarms,
            } => {
                self.timers.set(timer, *period_micros, *number_alarms);
                Ok(())
            }
        }
    }

    /// The `Insert(LATName)` hot path: fold the in-scope source object into the
    /// LAT and queue eviction events if (and only if) a rule subscribes — "no
    /// monitoring is performed unless it is required" (§2.1).
    fn insert_into_lat(
        &self,
        plan: &DispatchPlan,
        lat: &Lat,
        ctx: &EvalContext,
        hashes: Option<&mut KeyHashes>,
        trace: &mut Option<TraceCtx>,
        action_span: u32,
    ) -> Result<()> {
        let objects = ctx.objects;
        let source = lat.spec.source_class();
        let at = objects.iter().position(|o| o.class == *source);
        let at = at.ok_or_else(|| {
            Error::Monitor(format!(
                "no object of class {source} in scope for Insert({})",
                lat.spec.name
            ))
        })?;
        let hash = hashes.and_then(|h| h.of(objects, at, lat));
        let want_evicted = plan.has_event(&lat.eviction);
        let evicted = lat.insert_keyed(&objects[at], hash, want_evicted)?;
        // The mutation span is the provenance anchor: each eviction event
        // queued below cites it as `cause`, at the depth the running action
        // established (CASCADE_ORIGIN).
        let mutation_span = match trace.as_mut() {
            Some(tctx) => {
                tctx.lat_mutation(action_span, &lat.spec.name, "insert", evicted.len() as u32)
            }
            None => NONE_SPAN,
        };
        if want_evicted && !evicted.is_empty() {
            let depth = CASCADE_ORIGIN.with(|c| c.get().1);
            let columns = lat.columns();
            for row in evicted {
                let obj = evicted_object(&lat.spec.name, columns.clone(), row);
                // Deferred: queued and processed after the current event's
                // rules complete (§5).
                PENDING.with(|q| {
                    q.borrow_mut().push_back(Queued {
                        kind: lat.eviction.clone(),
                        objects: vec![obj],
                        cause: mutation_span,
                        depth,
                    })
                });
            }
        }
        Ok(())
    }

    /// A LAT's rows in importance order, "plus one additional column storing
    /// a timestamp of when the rule writing a row was triggered" (§4.3).
    pub(super) fn timestamped_rows(&self, lat: &Lat) -> Vec<Vec<Value>> {
        let now = self.clock.now_micros();
        let mut rows = lat.rows_ordered();
        for row in &mut rows {
            row.push(Value::Timestamp(now));
        }
        rows
    }

    /// An external action of a fired rule, resolved against its context:
    /// queued when actions are asynchronous, run on this thread otherwise.
    fn run_or_defer(&self, rule: &str, kind: DeferredKind) -> Result<()> {
        if self.async_actions.load(Ordering::Relaxed) {
            self.deferred.enqueue(rule, kind, self.clock.now_micros());
            return Ok(());
        }
        self.execute_external(kind)
    }

    /// Record a swallowed error both globally (`last_error`) and in the
    /// bounded per-rule map.
    pub(super) fn record_error(&self, rule: &str, msg: String) {
        self.telemetry.record_rule_error(rule, msg.clone());
        *self.last_error.lock() = Some(msg);
    }

    // ------------------------------------------------------------ containment

    /// Move every open breaker whose cooldown expired to half-open and put
    /// its rule back in service, on probation: the gate admits exactly one
    /// trial. Returns how many breakers re-opened. `on_event` runs it every
    /// [`CHECKPOINT_INTERVAL`] events; with no quarantined rule it is one
    /// relaxed load.
    pub(super) fn scan_quarantined(&self) -> u32 {
        if self.containment.quarantined.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let now = self.clock.now_micros();
        let mut reopened = 0;
        for reg in self.plan.load().rules.iter() {
            if reg.breaker.maybe_half_open(now) {
                self.sync_quarantine(reg);
                self.containment.breaker_reopens.incr();
                self.note_breaker(&self.telemetry.breaker_reopen, reg, 0);
                reopened += 1;
            }
        }
        reopened
    }

    /// Feed one evaluation outcome that took `nanos` into the rule's breaker
    /// (or resolve its half-open trial) and quarantine on a trip. An outcome
    /// with no duration (a deferred action's) passes 0, never over budget.
    pub(super) fn record_breaker_outcome(
        &self,
        reg: &Registered,
        trial: bool,
        error: bool,
        nanos: u64,
    ) {
        if trial {
            if error {
                let cooldown = self.containment.breaker().cooldown_micros;
                if reg.breaker.trial_failed(self.clock.now_micros(), cooldown) {
                    self.on_trip(reg, "failed its half-open trial; breaker re-opened");
                }
            } else {
                reg.breaker.trial_succeeded(&reg.rule.books);
                self.containment.breaker_closes.incr();
                self.note_breaker(&self.telemetry.breaker_close, reg, 0);
            }
            return;
        }
        let budget = self.containment.latency_budget_nanos();
        let slow = budget > 0 && nanos > budget;
        if reg.breaker.record_outcome(
            &reg.rule.books,
            error,
            slow,
            || self.containment.breaker(),
            || self.clock.now_micros(),
        ) {
            self.on_trip(reg, "tripped its circuit breaker; quarantined");
        }
    }

    /// The rule's breaker just opened: count and record the trip, and take
    /// the rule out of service.
    fn on_trip(&self, reg: &Registered, what: &str) {
        let rule = &reg.rule.name;
        self.containment.breaker_trips.incr();
        self.note_breaker(&self.telemetry.breaker_trip, reg, 1);
        self.record_error(rule, format!("rule {rule} {what}"));
        self.sync_quarantine(reg);
    }

    /// The rule's breaker opened or left `Open`: quarantine the rule iff it
    /// is open now. A flag store on the thread that raised the event — the
    /// plan, its guard index and the registry locks are not touched.
    fn sync_quarantine(&self, reg: &Registered) {
        let change = reg.rule.set_quarantined(|| reg.breaker.is_open());
        self.containment
            .quarantined
            .fetch_add(change, Ordering::Relaxed);
    }

    /// Flight-record a breaker transition (trip/reopen/close) so the recorder
    /// shows *why* a rule left (or returned to) service. Transitions are
    /// rare: the record is stamped with a clock read of its own.
    fn note_breaker(&self, what: &Label, reg: &Registered, errors: u32) {
        self.telemetry.recorder.record(Firing {
            at: Stamp::now(),
            event: what,
            rule: &reg.name_label,
            fired: false,
            actions: 0,
            errors,
            duration_nanos: 0,
            trace_id: 0,
        });
    }

    /// Run one resolved external action against the live sinks and return
    /// what the sink returned: the one place a sink is called, from the
    /// raising thread and from the deferred pump (which keeps its copy for a
    /// retry). Both count an `Err` as the rule's action error.
    pub(super) fn execute_external(&self, kind: DeferredKind) -> Result<()> {
        match kind {
            DeferredKind::Mail { to, body } => self.mail_sink.read().send(&to, &body),
            DeferredKind::Command { cmd } => self.command_sink.read().run(&cmd),
            DeferredKind::Persist { table, rows } => {
                persist_rows(&self.engine, &table, rows).map(drop)
            }
        }
    }
}

impl Sqlcm {
    /// Dispatch an engine event through the monitor exactly as a probe would —
    /// the stress/bench entry point exercising the real hot path (probe
    /// counters, plan load, interest mask, payload pooling).
    pub fn inject_event(&self, event: &EngineEvent) {
        self.monitor.on_event(event);
    }
}
