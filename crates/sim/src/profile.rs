//! Pipeline instrumentation seam: per-stage observation of the hot loop.
//!
//! The simulator's hot loop is generic over a [`PipelineProbe`]. The
//! default [`NoProbe`] compiles to nothing, so `Simulator::run` pays zero
//! cost; `Simulator::run_with` hands every stage boundary, stepped cycle
//! and skip jump to a caller's probe. A probe observes only — it never
//! changes [`SimStats`](crate::SimStats) — and the simulator itself never
//! reads host time.

/// One pipeline stage, as reported to a [`PipelineProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Completion/write-back: FU latencies expiring, consumers waking.
    Execute,
    /// The LSQ's once-per-cycle tick (AddrBuffer promotion + occupancy)
    /// and the retry drain — the LSQ search path.
    LsqTick,
    /// In-order retirement from the ROB head.
    Commit,
    /// Memory issue: forwarding decisions and D-cache accesses.
    Forward,
    /// Ready ops to functional units.
    Issue,
    /// Fetch queue → ROB (+ LSQ dispatch).
    Dispatch,
    /// Trace/replay → fetch queue through predictor, BTB and L1I.
    Fetch,
}

impl Stage {
    /// Every stage, in per-cycle execution order.
    pub const ALL: [Stage; 7] = [
        Stage::Execute,
        Stage::LsqTick,
        Stage::Commit,
        Stage::Forward,
        Stage::Issue,
        Stage::Dispatch,
        Stage::Fetch,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Execute => "execute",
            Stage::LsqTick => "lsq_tick",
            Stage::Commit => "commit",
            Stage::Forward => "forward",
            Stage::Issue => "issue",
            Stage::Dispatch => "dispatch",
            Stage::Fetch => "fetch",
        }
    }
}

/// Observer of the simulator's per-cycle stage loop. All methods default
/// to no-ops so the uninstrumented pipeline keeps its exact shape.
pub trait PipelineProbe {
    /// A stage is about to run.
    #[inline(always)]
    fn enter(&mut self, _stage: Stage) {}

    /// The stage finished, having performed `events` units of work
    /// (ops completed/committed/issued/fetched, promotions, ...).
    #[inline(always)]
    fn exit(&mut self, _stage: Stage, _events: u64) {}

    /// A full cycle was simulated.
    #[inline(always)]
    fn cycle(&mut self) {}

    /// `k` cycles were event-skipped in one jump.
    #[inline(always)]
    fn skipped(&mut self, _k: u64) {}
}

/// The zero-cost probe the ordinary `run` path uses.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl PipelineProbe for NoProbe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["execute", "lsq_tick", "commit", "forward", "issue", "dispatch", "fetch"]
        );
    }
}
