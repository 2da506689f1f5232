//! What the workloads share: the round contract, the stopwatch that times
//! only the system's part of a round, and the closed measuring loop.

use std::sync::Arc;

use vp_obs::Clock;

use crate::host::{process_cpu_ns, WallClock};
use crate::spec::Metrics;
use crate::trace::Tracer;

/// Accumulates wall and process-CPU time over the timed sections of one
/// round; the checks between them are not the system's work and are left
/// out.
pub struct Stopwatch {
    clock: Arc<WallClock>,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    since: Option<(u64, u64)>,
}

impl Stopwatch {
    pub fn new(clock: Arc<WallClock>) -> Stopwatch {
        Stopwatch {
            clock,
            wall_ns: 0,
            cpu_ns: 0,
            since: None,
        }
    }

    pub fn resume(&mut self) {
        self.since = Some((self.clock.now_nanos(), process_cpu_ns()));
    }

    pub fn pause(&mut self) {
        let (wall, cpu) = self.since.take().expect("pause without resume");
        self.wall_ns += self.clock.now_nanos() - wall;
        self.cpu_ns += process_cpu_ns().saturating_sub(cpu);
    }
}

/// One finished round.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Hitlist blocks of the round's world.
    pub blocks: u64,
    /// A round check failed (`probes_sent`, counter consistency, …).
    pub check_failed: bool,
    /// The round's output digest differs from the reference digest.
    pub mismatch: bool,
}

pub trait Workload {
    /// Runs one round back to back with the previous one. Only the calls
    /// into the system are timed; checks run between the timed sections.
    fn round(&mut self, tracer: &mut Tracer, watch: Stopwatch) -> Round;

    /// Rounds to run before measuring (they set the reference digest).
    fn warmup_rounds(&self) -> usize;

    /// Fewest rounds a measured phase may have.
    fn min_rounds(&self) -> usize {
        5
    }

    /// Reference checks that run once, after measuring (and after peak
    /// memory was read): each returned string is one failed check.
    fn verify(&mut self) -> Vec<String>;

    /// The digest two commits compare.
    fn output_digest(&self) -> u64;

    /// Layer counts and sizes the workload collected itself; `untraced` is
    /// the run's untraced phase.
    fn layer_metrics(&self, untraced: &Phase, out: &mut Metrics);
}

/// The samples of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub rounds: Vec<Round>,
}

impl Phase {
    pub fn ns_per_block(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.wall_ns as f64 / r.blocks.max(1) as f64)
            .collect()
    }

    pub fn cpu_ns_per_block(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.cpu_ns as f64 / r.blocks.max(1) as f64)
            .collect()
    }

    pub fn blocks(&self) -> u64 {
        self.rounds.iter().map(|r| r.blocks).sum()
    }

    pub fn wall_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.wall_ns).sum()
    }

    pub fn cpu_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.cpu_ns).sum()
    }

    pub fn failed(&self) -> u64 {
        self.rounds
            .iter()
            .filter(|r| r.check_failed || r.mismatch)
            .count() as u64
    }

    pub fn mismatches(&self) -> u64 {
        self.rounds.iter().filter(|r| r.mismatch).count() as u64
    }
}

/// Closed loop, one client: the next round starts when the previous one
/// has finished. Runs until `budget_ns` of wall time has passed and at
/// least `min_rounds` rounds are in — so exactly `min_rounds` rounds on a
/// budget of zero.
pub fn run_phase(
    w: &mut dyn Workload,
    tracer: &mut Tracer,
    clock: &Arc<WallClock>,
    budget_ns: u64,
    min_rounds: usize,
) -> Phase {
    let mut phase = Phase::default();
    let start = clock.now_nanos();
    while phase.rounds.len() < min_rounds || clock.now_nanos() - start < budget_ns {
        tracer.next_round();
        phase
            .rounds
            .push(w.round(tracer, Stopwatch::new(clock.clone())));
    }
    phase
}
