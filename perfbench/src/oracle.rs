//! Answer checks. Each runs outside the timed region and compares one
//! query result against an independent sequential reference.

use minex_algo::mst::kruskal;
use minex_algo::partwise::partwise_min_reference;
use minex_algo::solver::{Components, Mst, PartwiseMin, Solver, Sssp};
use minex_graphs::traversal;
use minex_graphs::{NodeId, WeightedGraph};

/// Exact SSSP: every distance equals Dijkstra's.
pub fn sssp_exact(wg: &WeightedGraph, src: NodeId, got: &Sssp) -> Result<(), String> {
    let want = traversal::dijkstra(wg, src).dist;
    if got.dist == want {
        Ok(())
    } else {
        Err(format!("exact sssp from {src} differs from dijkstra"))
    }
}

/// `(1+ε)` SSSP: `dijkstra ≤ d ≤ (1+ε)·dijkstra` at every node.
pub fn sssp_approx(
    wg: &WeightedGraph,
    src: NodeId,
    epsilon: f64,
    got: &Sssp,
) -> Result<(), String> {
    let want = traversal::dijkstra(wg, src).dist;
    if got.dist.len() != want.len() {
        return Err(format!("sssp from {src}: {} distances", got.dist.len()));
    }
    for (v, (&d, &w)) in got.dist.iter().zip(&want).enumerate() {
        let within = d >= w && d as f64 <= (1.0 + epsilon) * w as f64;
        if !within {
            return Err(format!(
                "sssp from {src}: node {v} has {d}, dijkstra {w}, epsilon {epsilon}"
            ));
        }
    }
    Ok(())
}

/// MST: the total weight equals Kruskal's.
pub fn mst(wg: &WeightedGraph, got: &Mst) -> Result<(), String> {
    let (_, want) = kruskal(wg);
    if got.total_weight == want {
        Ok(())
    } else {
        Err(format!("mst weight {} != kruskal {want}", got.total_weight))
    }
}

/// Components: the same node partition as a sequential BFS labelling,
/// each component labelled by its minimum node id.
pub fn components(wg: &WeightedGraph, got: &Components) -> Result<(), String> {
    let (comp, count) = traversal::components(wg.graph());
    let mut min_of = vec![usize::MAX; count];
    for (v, &c) in comp.iter().enumerate() {
        min_of[c] = min_of[c].min(v);
    }
    let want: Vec<usize> = comp.iter().map(|&c| min_of[c]).collect();
    if got.label == want {
        Ok(())
    } else {
        Err("component labels differ from the BFS reference".into())
    }
}

/// Part-wise MIN: equals the centralized reference over the session's
/// partition.
pub fn partwise(solver: &Solver, values: &[u64], got: &PartwiseMin) -> Result<(), String> {
    let want = partwise_min_reference(solver.parts(), values);
    if got.minima == want {
        Ok(())
    } else {
        Err("part-wise minima differ from the reference".into())
    }
}

/// Min-cut: the reported value is the value of a real cut, so it can be
/// no lower than the exact minimum; and on these small integer-weighted
/// grids the 3-tree packing lands within a factor 2 of it.
pub fn min_cut(exact: u64, approx: u64) -> Result<(), String> {
    if exact <= approx && approx <= 2 * exact {
        Ok(())
    } else {
        Err(format!("min cut {approx} outside [{exact}, {}]", 2 * exact))
    }
}

/// Exact global minimum cut by Stoer–Wagner over a dense weight matrix
/// (`O(n³)`, for the small min-cut graphs only). Kept local to the
/// benchmark so the check does not depend on the library's own reference.
pub fn stoer_wagner(wg: &WeightedGraph) -> u64 {
    let g = wg.graph();
    let n = g.n();
    if n < 2 {
        return 0;
    }
    let mut w = vec![vec![0u64; n]; n];
    for (e, u, v) in g.edges() {
        w[u][v] += wg.weight(e);
        w[v][u] += wg.weight(e);
    }
    let mut alive: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    while alive.len() > 1 {
        let k = alive.len();
        let mut key = vec![0u64; k];
        let mut added = vec![false; k];
        let (mut prev, mut last) = (0usize, 0usize);
        for step in 0..k {
            let mut pick = usize::MAX;
            for i in 0..k {
                if !added[i] && (pick == usize::MAX || key[i] > key[pick]) {
                    pick = i;
                }
            }
            added[pick] = true;
            if step == k - 1 {
                best = best.min(key[pick]);
            }
            prev = last;
            last = pick;
            for i in 0..k {
                if !added[i] {
                    key[i] += w[alive[pick]][alive[i]];
                }
            }
        }
        // Merge the last-added vertex into the one added before it.
        let (s, t) = (alive[prev], alive[last]);
        for &x in &alive {
            w[s][x] += w[t][x];
            w[x][s] = w[s][x];
        }
        w[s][s] = 0;
        alive.remove(last);
    }
    best
}
