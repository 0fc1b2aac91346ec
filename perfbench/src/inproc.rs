//! Calls into the solver from outside: one query type shared by every
//! workload, its timed execution, its answer check, and the tallies the
//! traced replay reads from `ReportStats`, `SessionTrace` and the wire
//! codecs.

use std::time::Instant;

use minex_algo::solver::{
    AlgoError, Components, MinCut, Mst, PartwiseMin, RepairStats, Report, ReportStats,
    SessionTrace, Solver, Sssp, SsspDetail, Tier,
};
use minex_algo::wire::{FromWire, JsonValue, ToWire};
use minex_graphs::{EdgeMutation, NodeId};

use crate::oracle;
use crate::report::{median, Call, Figures, Kind, Recorder};

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// One request against a session, in-process or served.
#[derive(Debug, Clone)]
pub enum Query {
    Sssp(NodeId, Tier),
    Mst,
    Components,
    Partwise(Vec<u64>),
    /// `min_cut(3)`, checked against the given exact minimum cut.
    MinCut(u64),
    Apply(Vec<EdgeMutation>),
}

/// The value bits every part-wise query declares.
pub const VALUE_BITS: usize = 32;
/// Trees packed by every min-cut query.
pub const MIN_CUT_TREES: usize = 3;

impl Query {
    pub fn kind(&self) -> Kind {
        match self {
            Query::Sssp(_, Tier::Exact) => Kind::SsspExact,
            Query::Sssp(_, Tier::Scaled { .. }) => Kind::SsspScaled,
            Query::Sssp(_, Tier::Shortcut { .. }) => Kind::SsspShortcut,
            Query::Mst => Kind::Mst,
            Query::Components => Kind::Components,
            Query::Partwise(_) => Kind::Partwise,
            Query::MinCut(_) => Kind::MinCut,
            Query::Apply(_) => Kind::Apply,
        }
    }

    /// The `POST /v1/sessions/{id}/query` body of this request.
    pub fn to_wire(&self) -> JsonValue {
        use minex_algo::wire::obj;
        let query = |name: &str| ("query", JsonValue::Str(name.into()));
        match self {
            Query::Sssp(src, tier) => obj([
                query("sssp"),
                ("source", JsonValue::UInt(*src as u64)),
                ("tier", tier.to_wire()),
            ]),
            Query::Mst => obj([query("mst")]),
            Query::Components => obj([query("components")]),
            Query::Partwise(values) => obj([
                query("partwise_min"),
                (
                    "values",
                    JsonValue::Array(values.iter().map(|&v| JsonValue::UInt(v)).collect()),
                ),
                ("value_bits", JsonValue::UInt(VALUE_BITS as u64)),
            ]),
            Query::MinCut(_) => obj([
                query("min_cut"),
                ("trees", JsonValue::UInt(MIN_CUT_TREES as u64)),
            ]),
            Query::Apply(muts) => obj([
                query("apply"),
                (
                    "mutations",
                    JsonValue::Array(muts.iter().map(ToWire::to_wire).collect()),
                ),
            ]),
        }
    }
}

/// A typed answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Sssp(Report<Sssp>),
    Mst(Report<Mst>),
    Components(Report<Components>),
    Partwise(Report<PartwiseMin>),
    MinCut(Report<MinCut>),
    Apply(RepairStats),
}

impl Reply {
    pub fn stats(&self) -> Option<&ReportStats> {
        match self {
            Reply::Sssp(r) => Some(&r.stats),
            Reply::Mst(r) => Some(&r.stats),
            Reply::Components(r) => Some(&r.stats),
            Reply::Partwise(r) => Some(&r.stats),
            Reply::MinCut(r) => Some(&r.stats),
            Reply::Apply(_) => None,
        }
    }

    pub fn rounds(&self) -> usize {
        self.stats().map_or(0, |s| s.simulated_rounds)
    }

    /// The wire body the daemon sends for this answer.
    pub fn encode(&self) -> String {
        match self {
            Reply::Sssp(r) => r.to_wire().to_string(),
            Reply::Mst(r) => r.to_wire().to_string(),
            Reply::Components(r) => r.to_wire().to_string(),
            Reply::Partwise(r) => r.to_wire().to_string(),
            Reply::MinCut(r) => r.to_wire().to_string(),
            Reply::Apply(r) => r.to_wire().to_string(),
        }
    }

    /// Parses a wire body back into an answer of the same type.
    pub fn decode_like(&self, text: &str) -> Result<Reply, String> {
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let e = |e: minex_algo::wire::WireError| e.to_string();
        Ok(match self {
            Reply::Sssp(_) => Reply::Sssp(FromWire::from_wire(&v).map_err(e)?),
            Reply::Mst(_) => Reply::Mst(FromWire::from_wire(&v).map_err(e)?),
            Reply::Components(_) => Reply::Components(FromWire::from_wire(&v).map_err(e)?),
            Reply::Partwise(_) => Reply::Partwise(FromWire::from_wire(&v).map_err(e)?),
            Reply::MinCut(_) => Reply::MinCut(FromWire::from_wire(&v).map_err(e)?),
            Reply::Apply(_) => Reply::Apply(FromWire::from_wire(&v).map_err(e)?),
        })
    }
}

/// Answers `q` on `solver`.
pub fn execute(solver: &mut Solver, q: &Query) -> Result<Reply, AlgoError> {
    Ok(match q {
        Query::Sssp(src, tier) => Reply::Sssp(solver.sssp(*src, *tier)?),
        Query::Mst => Reply::Mst(solver.mst()?),
        Query::Components => Reply::Components(solver.components()?),
        Query::Partwise(values) => Reply::Partwise(solver.partwise_min(values, VALUE_BITS)?),
        Query::MinCut(_) => Reply::MinCut(solver.min_cut(MIN_CUT_TREES)?),
        Query::Apply(muts) => Reply::Apply(solver.apply(muts)?),
    })
}

/// Checks an answer against its sequential reference (`Apply` has none).
pub fn check(solver: &Solver, q: &Query, reply: &Reply) -> Result<(), String> {
    let wg = solver.weighted_graph();
    match (q, reply) {
        (Query::Sssp(src, Tier::Exact), Reply::Sssp(r)) => oracle::sssp_exact(wg, *src, &r.value),
        (Query::Sssp(src, Tier::Scaled { epsilon }), Reply::Sssp(r)) => {
            oracle::sssp_approx(wg, *src, *epsilon, &r.value)
        }
        (Query::Sssp(src, Tier::Shortcut { epsilon, .. }), Reply::Sssp(r)) => {
            if shortcut_phases(&r.value).is_none() {
                return Err(format!("shortcut sssp from {src} missed its fixpoint"));
            }
            oracle::sssp_approx(wg, *src, *epsilon, &r.value)
        }
        (Query::Mst, Reply::Mst(r)) => oracle::mst(wg, &r.value),
        (Query::Components, Reply::Components(r)) => oracle::components(wg, &r.value),
        (Query::Partwise(values), Reply::Partwise(r)) => oracle::partwise(solver, values, &r.value),
        (Query::MinCut(exact), Reply::MinCut(r)) => oracle::min_cut(*exact, r.value.approx_value),
        (Query::Apply(_), Reply::Apply(_)) => Ok(()),
        _ => Err("answer of the wrong kind".into()),
    }
}

/// The overlay phases a shortcut-tier answer ran, or `None` when it did
/// not reach its fixpoint within the budget.
pub fn shortcut_phases(sssp: &Sssp) -> Option<usize> {
    match sssp.detail {
        SsspDetail::Shortcut {
            phases,
            converged: true,
            ..
        } => Some(phases),
        _ => None,
    }
}

/// Times one query, records it, and checks the answer outside the timed
/// region. Returns the answer, or `None` when the call failed.
pub fn call(
    solver: &mut Solver,
    q: &Query,
    rec: &mut Recorder,
    slot: usize,
    pass: usize,
    canonical: bool,
) -> Option<Reply> {
    rec.attempted += 1;
    let (out, ms) = timed(|| execute(solver, q));
    match out {
        Ok(reply) => {
            rec.calls.push(Call {
                kind: q.kind(),
                slot,
                pass,
                canonical,
                ms,
                rounds: reply.rounds(),
                nodes: solver.graph().n(),
            });
            if let Reply::Sssp(r) = &reply {
                rec.shortcut_phases.extend(shortcut_phases(&r.value));
            }
            let verdict = check(solver, q, &reply);
            rec.check(verdict.is_ok(), || verdict.unwrap_err());
            Some(reply)
        }
        Err(e) => {
            eprintln!("{} failed: {e}", q.kind().name());
            rec.failed += 1;
            None
        }
    }
}

/// Counts gathered by the traced replay of the canonical passes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Σ `ReportStats::simulated_rounds` over every answer.
    pub report_rounds: usize,
    /// Runs, rounds (without the analytic repeat charges), messages and
    /// bits of the answers the sessions computed: what the engine ran.
    pub report_runs: usize,
    pub report_run_rounds: usize,
    pub report_messages: u64,
    pub report_bits: u64,
    /// From the sessions' `SessionTrace`: counters and the congestion
    /// profile of the simulator runs they actually executed.
    pub memo_hits: usize,
    pub memo_misses: usize,
    pub profile_rounds_started: u64,
    pub profile_messages: u64,
    pub profile_bits: u64,
    /// Traced call time, for the tracing overhead.
    pub traced_ms: f64,
    /// Wire codec timings and sizes, one entry per answer.
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub response_bytes: Vec<f64>,
    /// Wire round trips that did not reproduce the answer.
    pub wire_mismatches: usize,
}

impl Tally {
    /// Answers `q` on a traced session, checks the answer, and adds it,
    /// timing its wire encode and decode. Only answers the session
    /// computed (not served from a memo) count towards the work the
    /// profile saw.
    pub fn traced_call(&mut self, solver: &mut Solver, q: &Query, rec: &mut Recorder) {
        let (out, ms) = timed(|| execute(solver, q));
        let reply = out.expect("traced replay query");
        let verdict = check(solver, q, &reply);
        rec.check(verdict.is_ok(), || verdict.unwrap_err());
        let hit = solver
            .trace()
            .and_then(|t| t.queries.last())
            .expect("tracing is on")
            .cache_hit;
        self.traced_ms += ms;
        if let Some(s) = reply.stats() {
            self.report_rounds += s.simulated_rounds;
            if !hit {
                self.report_runs += s.runs.len();
                for run in &s.runs {
                    self.report_run_rounds += run.stats.rounds;
                    self.report_messages += run.stats.messages;
                    self.report_bits += run.stats.total_bits;
                }
            }
        }
        let (text, enc_ms) = timed(|| reply.encode());
        let (back, dec_ms) = timed(|| reply.decode_like(&text));
        self.encode_us.push(enc_ms * 1e3);
        self.decode_us.push(dec_ms * 1e3);
        self.response_bytes.push(text.len() as f64);
        if back.as_ref() != Ok(&reply) {
            self.wire_mismatches += 1;
        }
    }

    /// Adds one session's trace.
    pub fn absorb_trace(&mut self, trace: &SessionTrace) {
        self.memo_hits += trace.counters.memo_hits;
        self.memo_misses += trace.counters.memo_misses;
        self.profile_rounds_started += trace.profile.rounds_started();
        self.profile_messages += trace.profile.total_messages();
        self.profile_bits += trace.profile.total_bits();
    }

    /// Checks that the layers agree on the work done: the answers'
    /// `ReportStats`, the sessions' congestion profiles, and the untraced
    /// run's `sim_rounds`. Messages and bits are compared per executed
    /// run, since a run charged `k` times is simulated once.
    pub fn reconcile(&self, untraced_sim_rounds: usize, rec: &mut Recorder) {
        let t = self;
        rec.check(t.report_rounds == untraced_sim_rounds, || {
            format!(
                "traced rounds {} != untraced sim_rounds {untraced_sim_rounds}",
                t.report_rounds
            )
        });
        // The engine starts one more round per run than it reports (the
        // final quiescent one), and runs each charged repetition once.
        let started = (t.report_run_rounds + t.report_runs) as u64;
        rec.check(t.profile_rounds_started == started, || {
            format!(
                "profile rounds started {} != report run rounds + runs {started}",
                t.profile_rounds_started
            )
        });
        rec.check(t.profile_messages == t.report_messages, || {
            format!(
                "profile messages {} != report messages {}",
                t.profile_messages, t.report_messages
            )
        });
        rec.check(t.profile_bits == t.report_bits, || {
            format!(
                "profile bits {} != report bits {}",
                t.profile_bits, t.report_bits
            )
        });
        rec.check(t.wire_mismatches == 0, || {
            format!("{} wire round trips changed the answer", t.wire_mismatches)
        });
    }

    /// The per-layer figures this tally feeds.
    pub fn layers(&self, untraced_canonical_ms: f64, layers: &mut Figures) {
        let n = self.encode_us.len();
        layers.set("congest.runs", self.report_runs as f64, "count", n);
        layers.set("congest.rounds", self.report_rounds as f64, "rounds", n);
        layers.set("congest.messages", self.report_messages as f64, "count", n);
        layers.set("congest.bits", self.report_bits as f64, "bits", n);
        layers.set("algo.memo_hits", self.memo_hits as f64, "count", n);
        layers.set("algo.memo_misses", self.memo_misses as f64, "count", n);
        let queries = (self.memo_hits + self.memo_misses).max(1);
        layers.set(
            "algo.memo_hit_share",
            self.memo_hits as f64 / queries as f64,
            "ratio",
            n,
        );
        layers.set("wire.encode_us", median(&self.encode_us), "us", n);
        layers.set("wire.decode_us", median(&self.decode_us), "us", n);
        layers.set(
            "wire.response_bytes",
            median(&self.response_bytes),
            "bytes",
            n,
        );
        layers.set(
            "trace.overhead_frac",
            self.traced_ms / untraced_canonical_ms.max(1e-9) - 1.0,
            "ratio",
            n,
        );
    }
}

/// Summed untraced call time of the canonical passes.
pub fn canonical_ms(rec: &Recorder) -> f64 {
    rec.calls.iter().filter(|c| c.canonical).map(|c| c.ms).sum()
}
