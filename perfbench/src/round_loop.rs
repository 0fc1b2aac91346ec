//! `round-loop`: exact and scaled SSSP on three 10⁴-node networks whose
//! plans are built in setup. Nearly all query time is inside the CONGEST
//! round loop, so engine and CSR work shows here, and part-wise, min-cut
//! and serving changes should not.

use std::time::Instant;

use minex_algo::solver::{PartsStrategy, Solver, Tier};
use minex_algo::workloads;
use minex_congest::CongestConfig;
use minex_graphs::{generators, NodeId, WeightModel, WeightedGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::inproc::{self, timed, Query, Tally};
use crate::report::{self, median, Figures, Recorder};
use crate::{probes, RunArgs};

const SIDE: usize = 100;
const KTREE_NODES: usize = 10_000;
const PARTS: usize = 32;
const EPSILON: f64 = 0.5;
/// Setup repetitions whose median is `setup_s`.
const SETUPS: usize = 5;
/// Passes covered by `sim_rounds` and the traced replay.
const CANONICAL_PASSES: usize = 4;
/// The networks, the warm-up sources and the canonical passes' sources
/// are part of the workload's definition, so `sim_rounds` is the same on
/// every run; `--seed` draws the sources of the later passes.
const NETWORK_SEED: u64 = 0x6d69_6e65_785f_726c;
/// Tiers asked per network per pass (and warmed up in setup).
const TIERS: [Tier; 2] = [Tier::Exact, Tier::Scaled { epsilon: EPSILON }];

/// One network with its session and its stream of never-repeated sources.
struct Family {
    solver: Solver,
    sources: Vec<NodeId>,
    next: usize,
}

impl Family {
    fn next_source(&mut self) -> NodeId {
        let s = self.sources[self.next % self.sources.len()];
        self.next += 1;
        s
    }
}

/// The three networks.
fn networks() -> Vec<(WeightedGraph, PartsStrategy)> {
    let mut rng = StdRng::seed_from_u64(NETWORK_SEED);
    let tri =
        WeightModel::DistinctShuffled.apply(&generators::triangulated_grid(SIDE, SIDE), &mut rng);
    let (maze, maze_parts) = workloads::maze_grid(SIDE, SIDE, PARTS, &mut rng);
    let (ktree, _) = generators::k_tree(KTREE_NODES, 3, &mut rng);
    let ktree = WeightModel::DistinctShuffled.apply(&ktree, &mut rng);
    let voronoi = PartsStrategy::Voronoi {
        parts: PARTS,
        seed: NETWORK_SEED,
    };
    vec![
        (tri, voronoi.clone()),
        (maze, PartsStrategy::Explicit(maze_parts)),
        (ktree, voronoi),
    ]
}

/// Set-up figures of one repetition.
struct SetupCost {
    generate_ms: f64,
    plan_ms: f64,
    quality: usize,
}

/// Generates the networks, builds each session and its plan, orders the
/// sources (fixed for warm-up and the canonical passes, then drawn from
/// `seed`), and runs one untimed warm-up query per tier on each.
fn setup(seed: u64) -> (Vec<Family>, SetupCost) {
    let (nets, generate_ms) = timed(networks);
    let mut cost = SetupCost {
        generate_ms,
        plan_ms: 0.0,
        quality: 0,
    };
    let mut families = Vec::new();
    for (i, (wg, parts)) in nets.into_iter().enumerate() {
        let n = wg.graph().n();
        let (mut solver, ms) = timed(|| {
            let mut s = Solver::builder(&wg)
                .parts(parts)
                .config(CongestConfig::for_nodes(n).with_threads(1))
                .build()
                .expect("round-loop session");
            s.plan().expect("round-loop plan");
            s
        });
        cost.plan_ms += ms;
        cost.quality += solver.plan().expect("cached plan").quality().quality;
        let mut sources: Vec<NodeId> = (0..n).collect();
        sources.shuffle(&mut StdRng::seed_from_u64(NETWORK_SEED + i as u64 + 1));
        let fixed = TIERS.len() * (1 + CANONICAL_PASSES);
        sources[fixed..].shuffle(&mut StdRng::seed_from_u64(seed.wrapping_add(i as u64 + 1)));
        for (&src, tier) in sources.iter().zip(TIERS) {
            solver.sssp(src, tier).expect("warm-up query");
        }
        families.push(Family {
            solver,
            sources,
            next: TIERS.len(),
        });
    }
    (families, cost)
}

/// One pass: an exact and a scaled query from fresh sources on each
/// network.
fn pass_queries(families: &mut [Family]) -> Vec<(usize, Query)> {
    let mut qs = Vec::new();
    for (i, fam) in families.iter_mut().enumerate() {
        for tier in TIERS {
            qs.push((i, Query::Sssp(fam.next_source(), tier)));
        }
    }
    qs
}

pub fn run(args: &RunArgs) -> (Recorder, Figures) {
    let mut rec = Recorder::default();
    let mut costs = Vec::new();
    let mut families = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut families));
        let start = Instant::now();
        let (f, cost) = setup(args.seed);
        rec.setups_s.push(start.elapsed().as_secs_f64());
        families = f;
        costs.push(cost);
    }

    let start = Instant::now();
    let mut pass = 0;
    while pass < CANONICAL_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        for (slot, (i, q)) in pass_queries(&mut families).into_iter().enumerate() {
            inproc::call(
                &mut families[i].solver,
                &q,
                &mut rec,
                slot,
                pass,
                pass < CANONICAL_PASSES,
            );
        }
        pass += 1;
        if pass == CANONICAL_PASSES {
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
    layers.set("core.quality", costs[0].quality as f64, "count", 1);
    {
        let graphs: Vec<&WeightedGraph> =
            families.iter().map(|f| f.solver.weighted_graph()).collect();
        layers.set("graphs.csr_bytes", probes::csr_bytes(&graphs), "bytes", 1);
        probes::congest_primitives(&graphs, 1, args.seed, &mut layers);
    }
    drop(families);

    // Traced replay of the canonical passes on fresh sessions: the same
    // sources in the same order, with session tracing on after warm-up.
    let (mut traced, _) = setup(args.seed);
    for fam in &mut traced {
        fam.solver.enable_trace();
    }
    let mut tally = Tally::default();
    for _ in 0..CANONICAL_PASSES {
        for (i, q) in pass_queries(&mut traced) {
            tally.traced_call(&mut traced[i].solver, &q, &mut rec);
        }
    }
    for fam in &traced {
        tally.absorb_trace(fam.solver.trace().expect("tracing is on"));
    }
    rec.check(tally.memo_hits == 0, || {
        format!("{} memo hits in cold queries", tally.memo_hits)
    });
    tally.reconcile(rec.sim_rounds(), &mut rec);
    tally.layers(inproc::canonical_ms(&rec), &mut layers);
    (rec, layers)
}
