//! Counting, timing wrappers around the two traits the simulator is
//! generic over, plus the calibration of the empty clock bracket.
//!
//! [`TimedLsq`] and [`TimedTrace`] forward every call unchanged and add
//! its count and host time to shared [`Spans`]. They are generic, so a
//! fast-path design wrapped as `TimedLsq<SamieLsq>` keeps its
//! monomorphized hot loop; only the clock reads are added. Results are
//! never touched: the traced run checks that its `SimStats` equal the
//! untraced run's bit for bit.

use std::cell::Cell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use samie_lsq::{
    Age, CachePlan, ForwardStatus, LoadStoreQueue, LsqActivity, LsqOccupancy, MemOp, PlaceOutcome,
};
use trace_isa::{MicroOp, TraceSource};

/// Every timed `LoadStoreQueue` method, in report order. The first
/// [`REPORTED_LSQ_METHODS`] get per-method metrics; the rest count
/// toward the layer's share only.
pub const LSQ_METHODS: [&str; 16] = [
    "dispatch",
    "address_ready",
    "load_forward_status",
    "commit",
    "tick",
    "tick_idle",
    "flush_all",
    "on_line_replaced",
    "can_dispatch",
    "store_executed",
    "take_forward",
    "cache_access_plan",
    "note_cache_access",
    "load_data_arrived",
    "squash_younger",
    "is_buffered",
];

/// How many of [`LSQ_METHODS`] are reported one by one.
pub const REPORTED_LSQ_METHODS: usize = 8;

// Slots of [`LSQ_METHODS`].
const DISPATCH: usize = 0;
const ADDRESS_READY: usize = 1;
const LOAD_FORWARD_STATUS: usize = 2;
const COMMIT: usize = 3;
/// Slot of `tick` in [`LSQ_METHODS`].
pub const TICK: usize = 4;
const TICK_IDLE: usize = 5;
const FLUSH_ALL: usize = 6;
const ON_LINE_REPLACED: usize = 7;
const CAN_DISPATCH: usize = 8;
const STORE_EXECUTED: usize = 9;
const TAKE_FORWARD: usize = 10;
const CACHE_ACCESS_PLAN: usize = 11;
const NOTE_CACHE_ACCESS: usize = 12;
const LOAD_DATA_ARRIVED: usize = 13;
const SQUASH_YOUNGER: usize = 14;
const IS_BUFFERED: usize = 15;

/// Read the cycle counter the spans are measured in. On x86_64 this is
/// the time-stamp counter: one `rdtsc` costs about half an
/// `Instant::now()` on a shared 2-core Xeon VM,
/// and tracing brackets every LSQ call. Elsewhere it is nanoseconds
/// since the first call.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` only reads the time-stamp counter; it touches
        // no memory and exists on every x86_64 CPU.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Call counts and raw bracketed [`ticks`] for one layer. Shared (`Rc`)
/// between a wrapper owned by the simulator and the benchmark that reads
/// it afterwards; `Cell`s because `can_dispatch` and `is_buffered` take
/// `&self`.
#[derive(Debug, Default)]
pub struct Spans {
    calls: [Cell<u64>; 16],
    ticks: [Cell<u64>; 16],
    /// Ops delivered (trace layer only).
    ops: Cell<u64>,
}

impl Spans {
    /// Calls of slot `i`.
    pub fn calls(&self, i: usize) -> u64 {
        self.calls[i].get()
    }

    /// Raw bracketed ticks of slot `i` (clock cost included).
    pub fn ticks(&self, i: usize) -> u64 {
        self.ticks[i].get()
    }

    /// Ops a trace delivered.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Brackets recorded over all slots.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().map(Cell::get).sum()
    }

    /// Raw ticks over all slots.
    pub fn total_ticks(&self) -> u64 {
        self.ticks.iter().map(Cell::get).sum()
    }

    #[inline(always)]
    fn record(&self, i: usize, t0: u64) {
        let dt = ticks().wrapping_sub(t0);
        self.ticks[i].set(self.ticks[i].get() + dt);
        self.calls[i].set(self.calls[i].get() + 1);
    }
}

/// The clock's rate and the cost of the bracket every timed call pays,
/// measured by timing empty brackets exactly as the wrappers time real
/// ones.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Nanoseconds per tick.
    pub ns_per_tick: f64,
    /// Ticks an empty bracket reports: subtracted from each span.
    pub in_span_ticks: f64,
    /// Nanoseconds an empty bracket adds to the enclosing wall time:
    /// `brackets × per_bracket_ns` is what tracing costs in all.
    pub per_bracket_ns: f64,
}

impl Clock {
    /// Medians of several calibration rounds.
    pub fn calibrate() -> Clock {
        const N: u64 = 100_000;
        let (t, c) = (Instant::now(), ticks());
        while t.elapsed().as_millis() < 20 {
            black_box(());
        }
        let ns_per_tick = t.elapsed().as_nanos() as f64 / ticks().wrapping_sub(c) as f64;
        let mut inside = Vec::new();
        let mut whole = Vec::new();
        for _ in 0..9 {
            let spans = Spans::default();
            let t = Instant::now();
            for _ in 0..N {
                let t0 = ticks();
                black_box(());
                spans.record(0, t0);
            }
            whole.push(t.elapsed().as_nanos() as f64 / N as f64);
            inside.push(spans.ticks(0) as f64 / N as f64);
        }
        Clock {
            ns_per_tick,
            in_span_ticks: crate::stats::median(&inside),
            per_bracket_ns: crate::stats::median(&whole),
        }
    }

    /// Self time in ns of `calls` spans that measured `raw` ticks in all.
    pub fn corrected(&self, raw: u64, calls: u64) -> f64 {
        (raw as f64 - calls as f64 * self.in_span_ticks) * self.ns_per_tick
    }
}

macro_rules! timed {
    ($spans:expr, $slot:expr, $call:expr) => {{
        let t0 = ticks();
        let r = $call;
        $spans.record($slot, t0);
        r
    }};
}

/// A `LoadStoreQueue` that times every call into `L`.
pub struct TimedLsq<L> {
    inner: L,
    spans: Rc<Spans>,
}

impl<L: LoadStoreQueue> TimedLsq<L> {
    /// Wrap `inner`; its spans accumulate into `spans`.
    pub fn new(inner: L, spans: Rc<Spans>) -> Self {
        TimedLsq { inner, spans }
    }
}

impl<L: LoadStoreQueue> LoadStoreQueue for TimedLsq<L> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn can_dispatch(&self, is_store: bool) -> bool {
        timed!(self.spans, CAN_DISPATCH, self.inner.can_dispatch(is_store))
    }

    fn dispatch(&mut self, op: MemOp) {
        timed!(self.spans, DISPATCH, self.inner.dispatch(op))
    }

    fn address_ready(&mut self, age: Age) -> PlaceOutcome {
        timed!(self.spans, ADDRESS_READY, self.inner.address_ready(age))
    }

    fn store_executed(&mut self, age: Age) {
        timed!(self.spans, STORE_EXECUTED, self.inner.store_executed(age))
    }

    fn load_forward_status(&mut self, age: Age) -> ForwardStatus {
        timed!(
            self.spans,
            LOAD_FORWARD_STATUS,
            self.inner.load_forward_status(age)
        )
    }

    fn take_forward(&mut self, load: Age, store: Age) {
        timed!(
            self.spans,
            TAKE_FORWARD,
            self.inner.take_forward(load, store)
        )
    }

    fn cache_access_plan(&mut self, age: Age) -> CachePlan {
        timed!(
            self.spans,
            CACHE_ACCESS_PLAN,
            self.inner.cache_access_plan(age)
        )
    }

    fn note_cache_access(&mut self, age: Age, set: u32, way: u32) -> bool {
        timed!(
            self.spans,
            NOTE_CACHE_ACCESS,
            self.inner.note_cache_access(age, set, way)
        )
    }

    fn load_data_arrived(&mut self, age: Age) {
        timed!(
            self.spans,
            LOAD_DATA_ARRIVED,
            self.inner.load_data_arrived(age)
        )
    }

    fn on_line_replaced(&mut self, set: u32, way: u32) {
        timed!(
            self.spans,
            ON_LINE_REPLACED,
            self.inner.on_line_replaced(set, way)
        )
    }

    fn commit(&mut self, age: Age) {
        timed!(self.spans, COMMIT, self.inner.commit(age))
    }

    fn squash_younger(&mut self, age: Age) {
        timed!(self.spans, SQUASH_YOUNGER, self.inner.squash_younger(age))
    }

    fn flush_all(&mut self) {
        timed!(self.spans, FLUSH_ALL, self.inner.flush_all())
    }

    fn is_buffered(&self, age: Age) -> bool {
        timed!(self.spans, IS_BUFFERED, self.inner.is_buffered(age))
    }

    fn tick(&mut self, promoted: &mut Vec<Age>) {
        timed!(self.spans, TICK, self.inner.tick(promoted))
    }

    fn tick_idle(&mut self, k: u64) {
        timed!(self.spans, TICK_IDLE, self.inner.tick_idle(k))
    }

    fn activity(&self) -> &LsqActivity {
        self.inner.activity()
    }

    fn reset_activity(&mut self) {
        self.inner.reset_activity()
    }

    fn occupancy(&self) -> LsqOccupancy {
        self.inner.occupancy()
    }
}

/// A `TraceSource` that times every pull from `T`.
pub struct TimedTrace<T> {
    inner: T,
    spans: Rc<Spans>,
}

impl<T: TraceSource> TimedTrace<T> {
    /// Wrap `inner`; its spans accumulate into `spans` (slot 0).
    pub fn new(inner: T, spans: Rc<Spans>) -> Self {
        TimedTrace { inner, spans }
    }
}

impl<T: TraceSource> TraceSource for TimedTrace<T> {
    fn next_op(&mut self) -> MicroOp {
        self.spans.ops.set(self.spans.ops.get() + 1);
        timed!(self.spans, 0, self.inner.next_op())
    }

    fn next_batch(&mut self, out: &mut VecDeque<MicroOp>, n: usize) {
        self.spans.ops.set(self.spans.ops.get() + n as u64);
        timed!(self.spans, 0, self.inner.next_batch(out, n))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
