//! `session-mix`: every pass builds fresh sessions with new weights and
//! answers each query kind once, cold. Part-wise aggregation (behind
//! `mst`, `components`, `partwise_min` and shortcut SSSP) and min-cut's
//! sequential steps dominate; the raw round loop is a small share.

use std::time::Instant;

use minex_algo::solver::{PartsStrategy, Solver, Tier};
use minex_algo::workloads;
use minex_congest::CongestConfig;
use minex_core::construct::SteinerBuilder;
use minex_graphs::{generators, WeightModel, WeightedGraph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::inproc::{self, timed, Query, Tally};
use crate::report::{self, median, Figures, Kind, Recorder};
use crate::{oracle, probes, RunArgs};

const SIDE: usize = 32;
const CUT_SIDE: usize = 12;
const PARTS: usize = 32;
const EPSILON: f64 = 0.5;
/// Passes covered by `sim_rounds` and the traced replay.
const CANONICAL_PASSES: usize = 4;
/// Pass `p` weighs its networks from the fixed seed `p mod NETWORKS`: the
/// networks are part of the workload's definition. So are the query
/// inputs (part-wise values and SSSP sources) of the canonical passes,
/// which keeps `sim_rounds` the same on every run; `--seed` draws those
/// of the later passes.
const NETWORKS: usize = 12;
const CANONICAL_SEED: u64 = 0x6d69_6e65_785f_6371;

/// One pass's sessions (triangulated grid, maze, min-cut grid) and the
/// queries to ask them.
struct Pass {
    sessions: Vec<Solver>,
    queries: Vec<(usize, Query)>,
}

/// Set-up figures of one pass.
struct SetupCost {
    generate_ms: f64,
    plan_ms: f64,
    quality: usize,
    graphs: Vec<WeightedGraph>,
}

/// Builds pass `p`: its networks, fresh sessions and plans (the timed
/// set-up), then its query inputs and the exact min cut (untimed).
fn build_pass(seed: u64, p: usize) -> (Pass, SetupCost, f64) {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(0x6d69_6e65_785f_736d ^ (p % NETWORKS) as u64);
    let ((tri, (maze, maze_parts), cut), generate_ms) = timed(|| {
        let tri = WeightModel::DistinctShuffled
            .apply(&generators::triangulated_grid(SIDE, SIDE), &mut rng);
        let maze = workloads::maze_grid(SIDE, SIDE, PARTS, &mut rng);
        let cut = WeightModel::Uniform { lo: 1, hi: 9 }
            .apply(&generators::grid(CUT_SIDE, CUT_SIDE), &mut rng);
        (tri, maze, cut)
    });
    let voronoi = PartsStrategy::Voronoi {
        parts: PARTS,
        seed: rng.random_range(0..u64::MAX),
    };
    let config = |wg: &WeightedGraph| CongestConfig::for_nodes(wg.graph().n()).with_threads(1);
    let (mut sessions, plan_ms) = timed(|| {
        let mut planned: Vec<Solver> = [
            (&tri, voronoi),
            (&maze, PartsStrategy::Explicit(maze_parts)),
        ]
        .into_iter()
        .map(|(wg, parts)| {
            let mut s = Solver::builder(wg)
                .parts(parts)
                .shortcut_builder(SteinerBuilder)
                .config(config(wg))
                .build()
                .expect("session-mix session");
            s.plan().expect("session-mix plan");
            s
        })
        .collect();
        planned.push(
            Solver::builder(&cut)
                .config(config(&cut))
                .build()
                .expect("min-cut session"),
        );
        planned
    });
    let setup_s = start.elapsed().as_secs_f64();
    let seed = if p < CANONICAL_PASSES {
        CANONICAL_SEED
    } else {
        seed
    };
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ p as u64);

    let quality = sessions[..2]
        .iter_mut()
        .map(|s| s.plan().expect("cached plan").quality().quality)
        .sum();
    let mut queries = Vec::new();
    for (i, s) in sessions[..2].iter().enumerate() {
        let n = s.graph().n();
        let values: Vec<u64> = (0..n).map(|_| rng.random_range(0..1u64 << 32)).collect();
        let source = rng.random_range(0..n);
        // Each overlay phase ends with one global relaxation round, so
        // `n` phases reach the fixpoint on any connected network.
        let max_phases = n;
        queries.extend([
            (i, Query::Mst),
            (i, Query::Components),
            (i, Query::Partwise(values)),
            (
                i,
                Query::Sssp(
                    source,
                    Tier::Shortcut {
                        epsilon: EPSILON,
                        max_phases,
                    },
                ),
            ),
        ]);
    }
    queries.push((2, Query::MinCut(oracle::stoer_wagner(&cut))));
    let cost = SetupCost {
        generate_ms,
        plan_ms,
        quality,
        graphs: vec![tri, maze, cut],
    };
    (Pass { sessions, queries }, cost, setup_s)
}

pub fn run(args: &RunArgs) -> (Recorder, Figures) {
    let mut rec = Recorder::default();
    let mut costs = Vec::new();
    let start = Instant::now();
    let mut p = 0;
    while p < CANONICAL_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let (mut pass, cost, setup_s) = build_pass(args.seed, p);
        rec.setups_s.push(setup_s);
        costs.push(cost);
        for (slot, (i, q)) in pass.queries.iter().enumerate() {
            let canonical = p < CANONICAL_PASSES;
            inproc::call(&mut pass.sessions[*i], q, &mut rec, slot, p, canonical);
        }
        p += 1;
        if p == CANONICAL_PASSES {
            rec.peak_rss_mb = probes::peak_rss_mb();
        }
    }

    let mut layers = Figures::default();
    if !args.trace {
        return (rec, layers);
    }
    report::algo_kind_layers(&rec, &mut layers);
    let k = costs.len();
    let gen: Vec<f64> = costs.iter().map(|c| c.generate_ms).collect();
    let plan: Vec<f64> = costs.iter().map(|c| c.plan_ms).collect();
    layers.set("graphs.generate_ms", median(&gen), "ms", k);
    layers.set("core.plan_ms", median(&plan), "ms", k);
    let quality: usize = costs[..CANONICAL_PASSES].iter().map(|c| c.quality).sum();
    layers.set("core.quality", quality as f64, "count", CANONICAL_PASSES);
    let graphs: Vec<&WeightedGraph> = costs[0].graphs.iter().collect();
    layers.set("graphs.csr_bytes", probes::csr_bytes(&graphs), "bytes", 1);
    probes::congest_primitives(&graphs[..2], 4, args.seed, &mut layers);

    // Traced replay of the canonical passes on identical fresh sessions,
    // tracing switched on after the plans are built; and the packing-only
    // min cut on a further fresh session of each.
    let mut tally = Tally::default();
    let mut packing = Vec::new();
    for p in 0..CANONICAL_PASSES {
        let (mut pass, _, _) = build_pass(args.seed, p);
        for s in &mut pass.sessions {
            s.enable_trace();
        }
        for (i, q) in &pass.queries {
            tally.traced_call(&mut pass.sessions[*i], q, &mut rec);
        }
        for s in &pass.sessions {
            tally.absorb_trace(s.trace().expect("tracing is on"));
        }
        let (mut fresh, _, _) = build_pass(args.seed, p);
        let (cut, ms) = timed(|| fresh.sessions[2].min_cut_with(inproc::MIN_CUT_TREES, false));
        let cut = cut.expect("packing-only min cut");
        let exact = match fresh.queries.last() {
            Some((_, Query::MinCut(exact))) => *exact,
            _ => unreachable!("the last query of a pass is its min cut"),
        };
        rec.check(cut.value.approx_value >= exact, || {
            format!(
                "packing-only cut {} below exact {exact}",
                cut.value.approx_value
            )
        });
        packing.push(ms);
    }
    rec.check(tally.memo_hits == 0, || {
        format!("{} memo hits in cold queries", tally.memo_hits)
    });
    tally.reconcile(rec.sim_rounds(), &mut rec);
    tally.layers(inproc::canonical_ms(&rec), &mut layers);
    let packing_ms = median(&packing);
    layers.set("algo.min_cut.packing_ms", packing_ms, "ms", packing.len());
    let min_cut = rec.ms_of(Kind::MinCut);
    layers.set(
        "algo.min_cut.two_respecting_ms",
        median(&min_cut) - packing_ms,
        "ms",
        min_cut.len(),
    );
    (rec, layers)
}
