//! Reference engines for the part-wise floods: straightforward
//! `HashMap`-backed node programs, the differential oracles of the
//! compiled slot engine in [`crate::partwise`]. No production path runs
//! them.
//!
//! Each node keeps its best value per part in a `HashMap` and one queue
//! `HashMap` per link, and builds its link list from the edge → parts
//! rule on every call. Behaviour — sends, their order, `RunStats`, and
//! every node's final per-part values — is the contract the slot engine
//! must reproduce exactly; `reference::tests` checks it on random
//! graphs, partitions, shortcuts and values on both execution engines.

use std::collections::HashMap;

use minex_congest::{bits_for, run, CongestConfig, Ctx, NodeProgram, RunStats, SimError};
use minex_core::{Partition, Shortcut};
use minex_graphs::dist::dist_add;
use minex_graphs::{Graph, NodeId, WeightedGraph};

use crate::partwise::{edge_parts, AggregationResult, PartMsg};

/// Each node's final values as `(part, value)` pairs sorted by part.
pub type PerNodeValues = Vec<Vec<(u32, u64)>>;

/// The queued update with the smallest `(value, part)`.
fn pick_min(queue: &HashMap<u32, u64>) -> (u32, u64) {
    let (&part, &value) = queue
        // minex-lint: allow(D001) min over the total-order key (value, part) is iteration-order-insensitive
        .iter()
        .min_by_key(|(&p, &v)| (v, p))
        .expect("non-empty queue");
    (part, value)
}

/// Per-node link lists `(neighbor, edge id, parts carried)`, neighbor-sorted.
fn link_lists(
    g: &Graph,
    parts: &Partition,
    shortcut: &Shortcut,
) -> Vec<Vec<(NodeId, usize, Vec<u32>)>> {
    let (offsets, list) = edge_parts(g, parts, shortcut);
    (0..g.n())
        .map(|v| {
            let mut links: Vec<(NodeId, usize, Vec<u32>)> = Vec::new();
            for (w, e) in g.neighbors(v) {
                let carried = &list[offsets[e] as usize..offsets[e + 1] as usize];
                if !carried.is_empty() {
                    links.push((w, e, carried.to_vec()));
                }
            }
            links.sort_unstable();
            links
        })
        .collect()
}

/// Reads a node's best-value map out in part order (by lookup, so no
/// result depends on the map's iteration order).
fn sorted_values(best: &HashMap<u32, u64>, parts: usize) -> Vec<(u32, u64)> {
    (0..parts as u32)
        .filter_map(|p| best.get(&p).map(|&v| (p, v)))
        .collect()
}

#[derive(Debug, Clone)]
struct AggNode {
    /// Sorted `(neighbor, parts shared with that neighbor)`.
    links: Vec<(NodeId, Vec<u32>)>,
    /// Current best value per participating part.
    best: HashMap<u32, u64>,
    /// Outgoing queues: per link index, pending per-part updates.
    pending: Vec<HashMap<u32, u64>>,
    part_bits: usize,
    value_bits: usize,
}

impl AggNode {
    fn enqueue_update(&mut self, part: u32, value: u64, skip: Option<NodeId>) {
        for (li, (nb, parts)) in self.links.iter().enumerate() {
            if Some(*nb) == skip {
                continue;
            }
            if parts.binary_search(&part).is_ok() {
                let entry = self.pending[li].entry(part).or_insert(u64::MAX);
                if value < *entry {
                    *entry = value;
                }
            }
        }
    }
}

impl NodeProgram for AggNode {
    type Msg = PartMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        for &(from, ref msg) in ctx.inbox() {
            let improves = self
                .best
                .get(&msg.part())
                .map_or(true, |&cur| msg.value() < cur);
            if improves {
                self.best.insert(msg.part(), msg.value());
                self.enqueue_update(msg.part(), msg.value(), Some(from));
            }
        }
        for li in 0..self.links.len() {
            if self.pending[li].is_empty() {
                continue;
            }
            let (part, value) = pick_min(&self.pending[li]);
            // Suppress stale queued values that a better flood already beat.
            if self.best.get(&part).is_some_and(|&b| b < value) {
                self.pending[li].remove(&part);
                continue;
            }
            self.pending[li].remove(&part);
            let to = self.links[li].0;
            ctx.send(
                to,
                PartMsg::new(part, value, self.part_bits, self.value_bits),
            );
        }
    }

    fn is_done(&self) -> bool {
        self.pending.iter().all(HashMap::is_empty)
    }
}

/// Part-wise MIN of `values` over `G[P_i] + H_i`, on the reference
/// engine. Returns the aggregation and every node's final values.
///
/// # Errors
///
/// Propagates [`SimError`].
///
/// # Panics
///
/// Panics if `values.len() != g.n()`, the shortcut does not match the
/// partition, or a part does not converge.
pub fn partwise_min(
    g: &Graph,
    parts: &Partition,
    shortcut: &Shortcut,
    values: &[u64],
    value_bits: usize,
    config: CongestConfig,
) -> Result<(AggregationResult, PerNodeValues), SimError> {
    assert_eq!(values.len(), g.n(), "one value per node required");
    assert_eq!(shortcut.len(), parts.len(), "shortcut/partition mismatch");
    let part_bits = bits_for(parts.len().max(2));
    let mut programs: Vec<AggNode> = link_lists(g, parts, shortcut)
        .into_iter()
        .map(|links| AggNode {
            pending: vec![HashMap::new(); links.len()],
            links: links.into_iter().map(|(w, _, p)| (w, p)).collect(),
            best: HashMap::new(),
            part_bits,
            value_bits,
        })
        .collect();
    for (i, part) in parts.parts().iter().enumerate() {
        for &v in part {
            programs[v].best.insert(i as u32, values[v]);
            programs[v].enqueue_update(i as u32, values[v], None);
        }
    }
    let stats = run(g, &mut programs, config)?;
    let mut minima = Vec::with_capacity(parts.len());
    for (i, part) in parts.parts().iter().enumerate() {
        let m0 = programs[part[0]].best[&(i as u32)];
        for &v in part {
            assert_eq!(
                programs[v].best[&(i as u32)],
                m0,
                "part {i} did not converge (shortcut leaves it disconnected?)"
            );
        }
        minima.push(m0);
    }
    let per_node = programs
        .iter()
        .map(|p| sorted_values(&p.best, parts.len()))
        .collect();
    Ok((AggregationResult { minima, stats }, per_node))
}

#[derive(Debug, Clone)]
struct ChannelFloodNode {
    /// Sorted `(neighbor, edge weight, channels shared with that neighbor)`.
    links: Vec<(NodeId, u64, Vec<u32>)>,
    /// Best known value per channel.
    best: HashMap<u32, u64>,
    /// Outgoing queues: per link index, pending per-channel updates.
    pending: Vec<HashMap<u32, u64>>,
    channel_bits: usize,
    value_bits: usize,
}

impl ChannelFloodNode {
    fn enqueue_update(&mut self, channel: u32, value: u64, skip: Option<NodeId>) {
        for (li, (nb, _, channels)) in self.links.iter().enumerate() {
            if Some(*nb) == skip {
                continue;
            }
            if channels.binary_search(&channel).is_ok() {
                let entry = self.pending[li].entry(channel).or_insert(u64::MAX);
                if value < *entry {
                    *entry = value;
                }
            }
        }
    }

    fn absorb(&mut self, channel: u32, value: u64, skip: Option<NodeId>) {
        let improves = self.best.get(&channel).map_or(true, |&cur| value < cur);
        if improves {
            self.best.insert(channel, value);
            self.enqueue_update(channel, value, skip);
        }
    }
}

impl NodeProgram for ChannelFloodNode {
    type Msg = PartMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        for &(from, ref msg) in ctx.inbox() {
            let w = self
                .links
                .binary_search_by_key(&from, |&(nb, _, _)| nb)
                .map(|i| self.links[i].1)
                .expect("sender is a neighbor");
            self.absorb(msg.part(), dist_add(msg.value(), w), Some(from));
        }
        for li in 0..self.links.len() {
            if self.pending[li].is_empty() {
                continue;
            }
            let (channel, value) = pick_min(&self.pending[li]);
            self.pending[li].remove(&channel);
            // Drop values a better flood already beat.
            if self.best.get(&channel).is_some_and(|&b| b < value) {
                continue;
            }
            let to = self.links[li].0;
            ctx.send(
                to,
                PartMsg::new(channel, value, self.channel_bits, self.value_bits),
            );
        }
    }

    fn is_done(&self) -> bool {
        self.pending.iter().all(HashMap::is_empty)
    }
}

/// Floods weighted distances from per-channel seeds `(node, channel,
/// value)` over each part's augmented subgraph `G[P_i] + H_i`, on the
/// reference engine. Returns every node's final values and the run's
/// statistics.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn channel_distance_flood(
    wg: &WeightedGraph,
    parts: &Partition,
    shortcut: &Shortcut,
    seeds: &[(NodeId, u32, u64)],
    value_bits: usize,
    config: CongestConfig,
) -> Result<(PerNodeValues, RunStats), SimError> {
    let g = wg.graph();
    let channel_bits = bits_for(parts.len().max(2));
    let mut programs: Vec<ChannelFloodNode> = link_lists(g, parts, shortcut)
        .into_iter()
        .map(|links| ChannelFloodNode {
            pending: vec![HashMap::new(); links.len()],
            links: links
                .into_iter()
                .map(|(w, e, c)| (w, wg.weight(e), c))
                .collect(),
            best: HashMap::new(),
            channel_bits,
            value_bits,
        })
        .collect();
    for &(v, channel, value) in seeds {
        programs[v].absorb(channel, value, None);
    }
    let stats = run(g, &mut programs, config)?;
    let per_node = programs
        .iter()
        .map(|p| sorted_values(&p.best, parts.len()))
        .collect();
    Ok((per_node, stats))
}

#[cfg(test)]
// Differential suite: the compiled slot engine in `partwise` against the
// reference engines above, on random networks, partitions, shortcuts and
// values, at one and four engine threads. Results, `RunStats`, every
// node's final per-part values and the recorded per-edge/per-round
// congestion profile (which pins the order of sends) must all agree.
mod tests {
    use super::*;
    use crate::partwise::AggregationRoutes;
    use crate::solver::ScratchArena;
    use crate::workloads;
    use minex_congest::telemetry::{self, CongestionProfile};
    use minex_core::construct::{AutoCappedBuilder, ShortcutBuilder, SteinerBuilder};
    use minex_core::RootedTree;
    use minex_graphs::{generators, WeightModel};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    /// Family 0: tri-grid, 1: k-tree, 2: maze grid, 3: random connected.
    fn network(family: usize, size: usize, rng: &mut StdRng) -> Graph {
        match family {
            0 => generators::triangulated_grid(size, size + 1),
            1 => generators::k_tree(size * size, 3, rng).0,
            2 => workloads::maze_grid(size, size, size, rng)
                .0
                .graph()
                .clone(),
            _ => generators::random_connected(size * size, size * 2, rng),
        }
    }

    /// Kind 0: Voronoi; 1: explicit Voronoi cells with every other cell
    /// dropped, leaving nodes outside every part; 2: singletons.
    fn partition(kind: usize, g: &Graph, rng: &mut StdRng) -> Partition {
        let cells = workloads::voronoi_parts(g, (g.n() / 6).max(2), rng);
        match kind {
            0 => cells,
            1 => {
                let kept: Vec<Vec<NodeId>> = cells.parts().iter().step_by(2).cloned().collect();
                Partition::new(g, kept).expect("Voronoi cells stay valid parts")
            }
            _ => Partition::new(g, (0..g.n()).map(|v| vec![v]).collect()).unwrap(),
        }
    }

    /// Kind 0: Steiner, 1: AutoCapped, 2: empty, 3: hand-built (random
    /// edges anywhere in the graph, so some reach nodes outside the part).
    fn shortcut(kind: usize, g: &Graph, parts: &Partition, rng: &mut StdRng) -> Shortcut {
        let tree = RootedTree::bfs(g, 0);
        match kind {
            0 => SteinerBuilder.build(g, &tree, parts),
            1 => AutoCappedBuilder.build(g, &tree, parts),
            2 => Shortcut::empty(parts.len()),
            _ => Shortcut::new(
                (0..parts.len())
                    .map(|_| {
                        let k = rng.random_range(0..6);
                        (0..k).map(|_| rng.random_range(0..g.m())).collect()
                    })
                    .collect(),
            ),
        }
    }

    /// Kind 0: random, 1: random with `u64::MAX` sprinkled in, 2: all
    /// `u64::MAX`, 3: three distinct values (ties between parts sharing a
    /// link exercise the `(value, part)` tie-break), 4: all equal.
    fn values(kind: usize, n: usize, rng: &mut StdRng) -> Vec<u64> {
        match kind {
            0 => (0..n).map(|_| rng.random_range(0..1_000)).collect(),
            1 => (0..n)
                .map(|_| {
                    if rng.random_range(0..3) == 0 {
                        u64::MAX
                    } else {
                        rng.random_range(0..1_000)
                    }
                })
                .collect(),
            2 => vec![u64::MAX; n],
            3 => (0..n).map(|_| rng.random_range(0..3)).collect(),
            _ => vec![42; n],
        }
    }

    fn config(n: usize, threads: usize) -> CongestConfig {
        CongestConfig::for_nodes(n)
            .with_bandwidth(128)
            .with_threads(threads)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn slot_engine_matches_reference_aggregation(
            family in 0usize..4,
            size in 3usize..7,
            part_kind in 0usize..3,
            shortcut_kind in 0usize..4,
            value_kind in 0usize..5,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = network(family, size, &mut rng);
            let parts = partition(part_kind, &g, &mut rng);
            let sc = shortcut(shortcut_kind, &g, &parts, &mut rng);
            let vals = values(value_kind, g.n(), &mut rng);
            let routes = AggregationRoutes::compile(&g, &parts, &sc);
            let mut scratch = ScratchArena::default();
            for threads in [1, 4] {
                let cfg = config(g.n(), threads);
                let mut want_profile = CongestionProfile::new();
                let (want, want_nodes) = telemetry::record(&mut want_profile, || {
                    partwise_min(&g, &parts, &sc, &vals, 64, cfg)
                })
                .unwrap();
                let mut got_profile = CongestionProfile::new();
                let got = telemetry::record(&mut got_profile, || {
                    routes.aggregate(&g, &vals, 64, cfg, &mut scratch)
                })
                .unwrap();
                prop_assert_eq!(routes.minima(&got), want.minima.clone());
                prop_assert_eq!(got.stats, want.stats);
                prop_assert_eq!(got.per_node(&routes), want_nodes);
                prop_assert_eq!(got_profile, want_profile);
                got.release(&mut scratch);
                // The minima are the centralized ones.
                prop_assert_eq!(
                    want.minima,
                    crate::partwise::partwise_min_reference(&parts, &vals)
                );
            }
        }

        #[test]
        fn slot_engine_matches_reference_channel_flood(
            family in 0usize..4,
            size in 3usize..7,
            part_kind in 0usize..3,
            shortcut_kind in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = network(family, size, &mut rng);
            // Small weights make equal distances, and so tie-breaks, common.
            let wg = WeightModel::Uniform { lo: 1, hi: 3 }.apply(&g, &mut rng);
            let parts = partition(part_kind, &g, &mut rng);
            let sc = shortcut(shortcut_kind, &g, &parts, &mut rng);
            // One zero seed per part plus a few extra seeds, some with
            // `u64::MAX` values, all inside their parts.
            let mut seeds: Vec<(NodeId, u32, u64)> = Vec::new();
            for (i, part) in parts.parts().iter().enumerate() {
                seeds.push((part[rng.random_range(0..part.len())], i as u32, 0));
                if rng.random_range(0..3) == 0 {
                    let value = if rng.random_range(0..2) == 0 { u64::MAX } else { 7 };
                    seeds.push((part[rng.random_range(0..part.len())], i as u32, value));
                }
            }
            let routes = AggregationRoutes::compile(&g, &parts, &sc);
            let mut scratch = ScratchArena::default();
            for threads in [1, 4] {
                let cfg = config(g.n(), threads);
                let mut want_profile = CongestionProfile::new();
                let (want_nodes, want_stats) = telemetry::record(&mut want_profile, || {
                    channel_distance_flood(&wg, &parts, &sc, &seeds, 64, cfg)
                })
                .unwrap();
                let mut got_profile = CongestionProfile::new();
                let got = telemetry::record(&mut got_profile, || {
                    routes.channel_flood(&wg, &seeds, 64, cfg, &mut scratch)
                })
                .unwrap();
                prop_assert_eq!(got.stats, want_stats);
                prop_assert_eq!(got.per_node(&routes), want_nodes);
                prop_assert_eq!(got_profile, want_profile);
                got.release(&mut scratch);
            }
        }
    }

    #[test]
    fn absent_and_max_values_are_distinct() {
        // A path whose only part value is u64::MAX: nodes without a value
        // accept and forward it, so every node ends up holding MAX — on
        // both engines, with identical traffic.
        let g = generators::path(5);
        let parts = Partition::new(&g, vec![vec![0, 1, 2, 3, 4]]).unwrap();
        let sc = Shortcut::empty(1);
        let vals = vec![u64::MAX, 3, u64::MAX, u64::MAX, u64::MAX];
        let cfg = config(5, 1);
        let (want, want_nodes) = partwise_min(&g, &parts, &sc, &vals, 64, cfg).unwrap();
        let routes = AggregationRoutes::compile(&g, &parts, &sc);
        let mut scratch = ScratchArena::default();
        let got = routes.aggregate(&g, &vals, 64, cfg, &mut scratch).unwrap();
        assert_eq!(routes.minima(&got), vec![3]);
        assert_eq!(want.minima, vec![3]);
        assert_eq!(got.stats, want.stats);
        assert_eq!(got.per_node(&routes), want_nodes);
        // Seeding only the channel's far end with MAX: the flood still
        // reaches every node (absent accepts MAX), and they all hold MAX.
        let wg = WeightedGraph::unit(g.clone());
        let seeds = [(0, 0, u64::MAX)];
        let (want_nodes, want_stats) =
            channel_distance_flood(&wg, &parts, &sc, &seeds, 64, cfg).unwrap();
        let got = routes
            .channel_flood(&wg, &seeds, 64, cfg, &mut scratch)
            .unwrap();
        assert_eq!(got.stats, want_stats);
        assert_eq!(got.per_node(&routes), want_nodes);
        assert!(want_nodes.iter().all(|vals| vals == &[(0, u64::MAX)]));
    }
}
