//! Direct calls into the lower layers, timed from outside: the CONGEST
//! primitives on a workload's own graphs, and process memory.

use minex_congest::{bits_for, primitives, CongestConfig};
use minex_graphs::WeightedGraph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::inproc::timed;
use crate::report::{median, Figures};

/// Round-loop cost of the two flooding primitives on `graphs`, sequential
/// and with two engine threads, from `roots` seeded roots per graph. Fills
/// `congest.bfs_ns_per_node_round`, `congest.flood_ns_per_node_round`,
/// `congest.ns_per_message` and `congest.t2_speedup`.
pub fn congest_primitives(graphs: &[&WeightedGraph], roots: usize, seed: u64, out: &mut Figures) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de);
    let (mut bfs, mut flood, mut per_msg) = (Vec::new(), Vec::new(), Vec::new());
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for wg in graphs {
        let g = wg.graph();
        let n = g.n();
        let total = usize::try_from(wg.total_weight()).unwrap_or(usize::MAX - 1);
        let bits = bits_for(total + 1).max(8);
        for _ in 0..roots {
            let root = rng.random_range(0..n);
            let mut times = [0.0f64; 2];
            for (slot, threads) in [1usize, 2].into_iter().enumerate() {
                let cfg = CongestConfig::for_nodes(n).with_threads(threads);
                let (tree, bfs_ms) =
                    timed(|| primitives::build_bfs_tree(g, root, cfg).expect("bfs tree"));
                let (dist, flood_ms) = timed(|| {
                    primitives::weighted_distance_flood(wg, root, bits, cfg).expect("flood")
                });
                if threads == 1 {
                    let node_rounds = |r: usize| (n * r.max(1)) as f64;
                    bfs.push(bfs_ms * 1e6 / node_rounds(tree.stats.rounds));
                    flood.push(flood_ms * 1e6 / node_rounds(dist.stats.rounds));
                    per_msg.push(flood_ms * 1e6 / dist.stats.messages.max(1) as f64);
                }
                times[slot] = bfs_ms + flood_ms;
            }
            t1.push(times[0]);
            t2.push(times[1]);
        }
    }
    let k = bfs.len();
    out.set("congest.bfs_ns_per_node_round", median(&bfs), "ns", k);
    out.set("congest.flood_ns_per_node_round", median(&flood), "ns", k);
    out.set("congest.ns_per_message", median(&per_msg), "ns", k);
    out.set(
        "congest.t2_speedup",
        median(&t1) / median(&t2).max(1e-9),
        "ratio",
        k,
    );
}

/// Heap bytes of the CSR graphs plus their weight arrays.
pub fn csr_bytes(graphs: &[&WeightedGraph]) -> f64 {
    graphs
        .iter()
        .map(|wg| wg.graph().heap_bytes() + std::mem::size_of_val(wg.weights()))
        .sum::<usize>() as f64
}

/// Peak resident set of this process in MB (`VmHWM`), `0` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
