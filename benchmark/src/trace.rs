//! Harness-side spans. The traced pass wraps each call into a layer's public
//! functions in a span `{name, start_ns, end_ns, parent, op_id}`; nothing in
//! the program under test is touched. Spans stay in memory (one recorder per
//! thread, buffers reserved before the timed region) and are written out as a
//! Chrome trace when the run ends.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;

/// Span names, one per layer boundary the harness can see from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    EngineExecute,
    MonitorOnEvent,
    ObjectsAssemble,
    LatInsert,
    LatLookup,
    VmEval,
    PlanAddRule,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::EngineExecute => "engine.execute",
            Name::MonitorOnEvent => "monitor.on_event",
            Name::ObjectsAssemble => "objects.assemble",
            Name::LatInsert => "lat.insert",
            Name::LatLookup => "lat.lookup",
            Name::VmEval => "vm.eval",
            Name::PlanAddRule => "plan.add_rule",
        }
    }
}

/// `parent` of a span nothing encloses.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same recorder) of the span that caused this one.
    pub parent: u32,
    /// Spans of one operation share this identifier.
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// One origin for every thread, so spans of concurrent clients line up.
fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Reserve room for `n` more spans on this thread, so recording inside the
/// timed region never grows the buffer.
pub fn reserve(n: usize) {
    now_ns();
    RECORDER.with(|r| r.borrow_mut().spans.reserve(n));
}

/// Start the next operation on this thread; spans entered from now on carry
/// its identifier.
pub fn next_op() {
    RECORDER.with(|r| r.borrow_mut().op_id += 1);
}

/// Open a span as a child of the innermost open span of this thread.
pub fn enter(name: Name) -> u32 {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let op_id = r.op_id;
        r.open.push(idx);
        let start_ns = now_ns();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        idx
    })
}

/// Close the span `enter` returned.
pub fn exit(idx: u32) {
    let end_ns = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[idx as usize].end_ns = end_ns;
        let top = r.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost-first");
    });
}

/// Take this thread's spans, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<u32> = (0..spans.len() as u32)
        .filter(|&i| spans[i as usize].parent != NO_PARENT)
        .collect();
    children.sort_by_key(|&i| (spans[i as usize].parent, spans[i as usize].start_ns));
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    let mut i = 0;
    while i < children.len() {
        let parent = spans[children[i] as usize].parent as usize;
        let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
        let mut covered = 0u64;
        // End of the union of child intervals seen so far.
        let mut frontier = lo;
        while i < children.len() && spans[children[i] as usize].parent as usize == parent {
            let c = &spans[children[i] as usize];
            let start = c.start_ns.clamp(frontier, hi);
            let end = c.end_ns.clamp(frontier, hi);
            covered += end - start;
            frontier = frontier.max(end);
            i += 1;
        }
        out[parent] = (hi - lo).saturating_sub(covered);
    }
    out
}

/// Chrome trace format (`chrome://tracing`, Perfetto): one complete ("X")
/// event per span, timestamps in microseconds, one `tid` per client thread.
pub fn chrome_trace(threads: &[&[Span]]) -> Json {
    let mut events = Vec::new();
    for (tid, spans) in threads.iter().enumerate() {
        for s in spans.iter() {
            let parent = if s.parent == NO_PARENT {
                Json::Null
            } else {
                Json::Num(s.parent as f64)
            };
            events.push(Json::obj([
                ("name", Json::str(s.name.as_str())),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                (
                    "args",
                    Json::obj([("op_id", Json::Num(s.op_id as f64)), ("parent", parent)]),
                ),
            ]));
        }
    }
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: Name::EngineExecute,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_of_nested_spans() {
        // 0: [0,100] ⊃ 1: [10,40] ⊃ 2: [15,25]; 0 ⊃ 3: [50,70]
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 40, 0),
            span(15, 25, 1),
            span(50, 70, 0),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Children [10,60] and [40,80] overlap on [40,60]; [90,130] sticks
        // out past the parent's end; [20,30] lies inside an earlier sibling.
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 60, 0),
            span(40, 80, 0),
            span(90, 130, 0),
            span(20, 30, 0),
        ];
        // Union inside the parent: [10,80] ∪ [90,100] = 80.
        assert_eq!(self_times(&spans)[0], 20);
        // A child that starts before its parent is clipped at the start.
        let spans = [span(50, 100, NO_PARENT), span(0, 60, 0)];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_recorded_out_of_order_still_group_by_parent() {
        let spans = [
            span(0, 10, NO_PARENT),
            span(100, 200, NO_PARENT),
            span(150, 160, 1),
            span(2, 4, 0),
            span(110, 120, 1),
        ];
        assert_eq!(self_times(&spans), vec![8, 80, 10, 2, 10]);
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        take();
        reserve(4);
        next_op();
        let outer = enter(Name::EngineExecute);
        let inner = enter(Name::MonitorOnEvent);
        exit(inner);
        exit(outer);
        next_op();
        let lone = enter(Name::LatInsert);
        exit(lone);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, NO_PARENT);
        assert_eq!(spans[0].op_id, spans[1].op_id);
        assert_ne!(spans[1].op_id, spans[2].op_id);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(take().is_empty());
        let text = chrome_trace(&[&spans]).to_string();
        assert!(text.contains("\"name\":\"monitor.on_event\""));
        assert_eq!(
            Json::parse(&text)
                .unwrap()
                .get("traceEvents")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            3
        );
    }
}
