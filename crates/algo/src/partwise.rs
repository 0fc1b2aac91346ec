//! Part-wise aggregation — the primitive that turns shortcuts into
//! algorithms (Section 1.3.3).
//!
//! Every node of a part `P_i` starts with a value `x_v`; all of them must
//! learn `min` over the part. The subgraph available to part `i` is
//! `G[P_i] + H_i` (its induced edges plus its shortcut edges), and the
//! CONGEST constraint is global: one `O(log n)`-bit message per edge
//! direction per round *across all parts*, so parts sharing an edge —
//! congestion, Definition 11 — queue behind each other. The measured round
//! count is therefore governed by `O(block·d_T + congestion)`, i.e. by the
//! shortcut's quality, which is exactly Theorem 1's mechanism.
//!
//! The implementation floods minima with per-edge queues: an update
//! supersedes a queued message of the same part rather than occupying a new
//! slot, which realizes the standard aggregation-merging argument.
//!
//! # Compiled routes
//!
//! The topology of an aggregation depends only on the (graph, partition,
//! shortcut) triple, never on the values, so it is compiled once into an
//! `AggregationRoutes` table and reused by every run over that triple.
//! Edge `e` carries part `i` if `e ∈ H_i` or both endpoints lie in `P_i`
//! (`edge_parts` is the one place that rule lives). The table is a CSR
//! in four layers:
//!
//! * **slots** — each node's sorted list of the parts it can ever hold a
//!   value for: its own part plus every part one of its links carries;
//! * **links** — each node's incident edges that carry at least one part,
//!   in CSR (neighbor-id) order: `(neighbor, edge id)` plus a range of
//!   entries;
//! * **entries** — one per `(link, part)` pair, in part order within a
//!   link: `(slot, part)`, the slot being the sending node's slot of that
//!   part;
//! * **fan-out** — each slot's list of the entries carrying it, in link
//!   order, paired with the link's neighbor.
//!
//! # Slot state
//!
//! A run leases four flat `u64` columns from the session scratch arena:
//! `best` and its presence flags (one cell per slot), and `pending` and
//! its queued flags (one cell per entry). Each node program borrows its
//! own contiguous slice of every column, so the state holds no `HashMap`
//! and no per-node allocation, and the engine's shards own disjoint
//! slices. Presence is a separate flag because `u64::MAX` is a
//! legitimate value: a node with no value for a part accepts and forwards
//! a `u64::MAX` one, a node already holding `u64::MAX` does not.
//!
//! # Where routes are cached
//!
//! Routes are compiled lazily, at the first aggregation that needs them
//! (never while building a session or its plan):
//!
//! * shortcut SSSP compiles one table per source, shared by the `ρ`
//!   channel flood and every overlay phase;
//! * a Borůvka drive (MST) compiles one table per fragmentation: the
//!   relabel flood's table is the next phase's candidate table;
//!   `components` likewise compiles one per fragmentation it floods;
//! * `Solver::partwise_min` keeps the session plan's table in the session
//!   caches.
//!
//! All of them are dropped with the session caches when
//! `Solver::apply` mutates the graph. They are derived state, not
//! memoized results, so they do not count toward
//! `RepairStats::memos_dropped`.
//!
//! # The send rule is frozen
//!
//! Per round, each link sends the queued update with the smallest
//! `(value, part)`, links in neighbor order. If that pick is stale — the
//! node already holds a strictly better value for the part — it is
//! dropped and the link sends nothing that round. Round counts, message
//! counts and the order of sends all follow from this rule, and the 12
//! golden experiment tables and the telemetry traces pin them
//! byte-for-byte. A faster-converging rule would be a different
//! algorithm with different goldens. [`crate::reference`] holds a
//! `HashMap` engine with the same rule, the differential oracle that
//! pins this one.

use minex_congest::{bits_for, run, CongestConfig, Ctx, NodeProgram, Payload, RunStats, SimError};
use minex_core::{Partition, Shortcut};
use minex_graphs::dist::dist_add;
use minex_graphs::{Graph, NodeId, WeightedGraph};

use crate::solver::ScratchArena;

/// A `(part, value)` flood message with honest bit accounting: part ids
/// cost `⌈log₂ N⌉` bits and values cost `value_bits`.
#[derive(Debug, Clone)]
pub struct PartMsg {
    part: u32,
    value: u64,
    part_bits: usize,
    value_bits: usize,
}

impl PartMsg {
    pub(crate) fn new(part: u32, value: u64, part_bits: usize, value_bits: usize) -> Self {
        PartMsg {
            part,
            value,
            part_bits,
            value_bits,
        }
    }

    pub(crate) fn part(&self) -> u32 {
        self.part
    }

    pub(crate) fn value(&self) -> u64 {
        self.value
    }
}

impl Payload for PartMsg {
    fn bit_size(&self) -> usize {
        self.part_bits + self.value_bits
    }
}

/// Edge → parts CSR: `(offsets, parts)` with edge `e`'s parts at
/// `parts[offsets[e]..offsets[e + 1]]`, each list sorted and deduplicated.
/// Edge `e` carries part `i` if `e ∈ H_i` (a shortcut assignment) or both
/// endpoints lie in `P_i` (an intra-part graph edge).
pub(crate) fn edge_parts(
    g: &Graph,
    parts: &Partition,
    shortcut: &Shortcut,
) -> (Vec<u32>, Vec<u32>) {
    let m = g.m();
    let intra = |u: NodeId, v: NodeId| match (parts.part_of(u), parts.part_of(v)) {
        (Some(a), Some(b)) if a == b => Some(a as u32),
        _ => None,
    };
    let mut offsets = vec![0u32; m + 1];
    for (_, e) in shortcut.assignments() {
        offsets[e + 1] += 1;
    }
    for (e, u, v) in g.edges() {
        if intra(u, v).is_some() {
            offsets[e + 1] += 1;
        }
    }
    for e in 0..m {
        offsets[e + 1] += offsets[e];
    }
    let mut fill: Vec<u32> = offsets[..m].to_vec();
    let mut list = vec![0u32; offsets[m] as usize];
    let mut push = |e: usize, part: u32| {
        list[fill[e] as usize] = part;
        fill[e] += 1;
    };
    for (i, e) in shortcut.assignments() {
        push(e, i as u32);
    }
    for (e, u, v) in g.edges() {
        if let Some(a) = intra(u, v) {
            push(e, a);
        }
    }
    // Sort and deduplicate each edge's list, compacting in place.
    let mut kept = 0usize;
    let mut start = 0usize;
    for e in 0..m {
        let end = offsets[e + 1] as usize;
        let distinct = sort_dedup(&mut list[start..end]);
        list.copy_within(start..start + distinct, kept);
        kept += distinct;
        start = end;
        offsets[e + 1] = kept as u32;
    }
    list.truncate(kept);
    (offsets, list)
}

/// Sorts `list` and moves its distinct values to the front, returning
/// how many there are.
fn sort_dedup(list: &mut [u32]) -> usize {
    list.sort_unstable();
    let mut kept = 0;
    for k in 0..list.len() {
        if kept == 0 || list[k] != list[kept - 1] {
            list[kept] = list[k];
            kept += 1;
        }
    }
    kept
}

/// Marks "no slot" in [`AggregationRoutes::own_slot`] and "no sender" in
/// [`SlotFlood::absorb`].
const NONE: u32 = u32::MAX;

/// The compiled topology of part-wise aggregations over one (graph,
/// partition, shortcut) triple; see the [module docs](self) for the
/// layout. All indices are global (`u32`), so one table serves every run
/// and every engine.
#[derive(Debug, Clone)]
pub(crate) struct AggregationRoutes {
    /// Number of parts in the partition.
    parts: usize,
    /// Node → its slots at `node_slots[v]..node_slots[v + 1]` (`n + 1`).
    node_slots: Vec<u32>,
    /// Slot → part, sorted within each node.
    slot_part: Vec<u32>,
    /// Node → the slot of its own part, or [`NONE`] if it is in no part.
    own_slot: Vec<u32>,
    /// Node → its links at `node_links[v]..node_links[v + 1]` (`n + 1`).
    node_links: Vec<u32>,
    /// Link → `(neighbor, edge id)`, in neighbor order within a node.
    links: Vec<(u32, u32)>,
    /// Link → its entries at `link_entries[l]..link_entries[l + 1]`.
    link_entries: Vec<u32>,
    /// Entry → `(slot, part)`, in part order within a link.
    entries: Vec<(u32, u32)>,
    /// Slot → its fan-out at `slot_fanout[s]..slot_fanout[s + 1]`.
    slot_fanout: Vec<u32>,
    /// Fan-out item → `(entry, neighbor of the entry's link)`.
    fanout: Vec<(u32, u32)>,
}

impl AggregationRoutes {
    /// Compiles the routes of `(g, parts, shortcut)`.
    ///
    /// # Panics
    ///
    /// Panics if the shortcut does not match the partition.
    pub(crate) fn compile(g: &Graph, parts: &Partition, shortcut: &Shortcut) -> Self {
        assert_eq!(shortcut.len(), parts.len(), "shortcut/partition mismatch");
        let n = g.n();
        let (edge_offsets, edge_list) = edge_parts(g, parts, shortcut);
        let parts_of =
            |e: usize| &edge_list[edge_offsets[e] as usize..edge_offsets[e + 1] as usize];
        let mut routes = AggregationRoutes {
            parts: parts.len(),
            node_slots: Vec::with_capacity(n + 1),
            slot_part: Vec::with_capacity(n),
            own_slot: Vec::with_capacity(n),
            node_links: Vec::with_capacity(n + 1),
            links: Vec::new(),
            link_entries: vec![0],
            entries: Vec::with_capacity(2 * edge_list.len()),
            slot_fanout: Vec::new(),
            fanout: Vec::new(),
        };
        routes.node_slots.push(0);
        routes.node_links.push(0);
        for v in 0..n {
            // Slots: the node's own part plus every part its links carry.
            let base = routes.slot_part.len();
            let own = parts.part_of(v).map(|p| p as u32);
            routes.slot_part.extend(own);
            for (_, e) in g.neighbors(v) {
                routes.slot_part.extend_from_slice(parts_of(e));
            }
            let distinct = sort_dedup(&mut routes.slot_part[base..]);
            routes.slot_part.truncate(base + distinct);
            let slots = &routes.slot_part[base..];
            let slot_of = |p: u32| {
                (base + slots.binary_search(&p).expect("slot set covers its links")) as u32
            };
            routes.own_slot.push(own.map_or(NONE, slot_of));
            // Links (CSR rows are neighbor-sorted) and their entries.
            for (w, e) in g.neighbors(v) {
                let carried = parts_of(e);
                if carried.is_empty() {
                    continue;
                }
                routes.links.push((w as u32, e as u32));
                routes
                    .entries
                    .extend(carried.iter().map(|&p| (slot_of(p), p)));
                routes.link_entries.push(routes.entries.len() as u32);
            }
            routes.node_slots.push(routes.slot_part.len() as u32);
            routes.node_links.push(routes.links.len() as u32);
        }
        // Fan-out: a counting sort of the entries by slot; entries are
        // visited in link order, so each slot's list stays in link order.
        let slots = routes.slot_part.len();
        let mut offsets = vec![0u32; slots + 1];
        for &(slot, _) in &routes.entries {
            offsets[slot as usize + 1] += 1;
        }
        for s in 0..slots {
            offsets[s + 1] += offsets[s];
        }
        let mut fill: Vec<u32> = offsets[..slots].to_vec();
        routes.fanout = vec![(0, 0); routes.entries.len()];
        for (link, &(nbr, _)) in routes.links.iter().enumerate() {
            let (start, end) = (routes.link_entries[link], routes.link_entries[link + 1]);
            for entry in start..end {
                let slot = routes.entries[entry as usize].0 as usize;
                routes.fanout[fill[slot] as usize] = (entry, nbr);
                fill[slot] += 1;
            }
        }
        routes.slot_fanout = offsets;
        routes
    }

    fn nodes(&self) -> usize {
        self.own_slot.len()
    }

    /// The slot of `part` at node `v`, if `v` can hold a value for it.
    fn slot_of(&self, v: NodeId, part: u32) -> Option<usize> {
        let base = self.node_slots[v] as usize;
        let slots = &self.slot_part[base..self.node_slots[v + 1] as usize];
        slots.binary_search(&part).ok().map(|i| base + i)
    }

    /// Part-wise MIN of `values` over the compiled triple.
    ///
    /// `value_bits` is the honest encoding width of the values (e.g.
    /// `bits_for(max_weight) + bits_for(m)` for Borůvka's weight/edge
    /// pairs).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`]; in particular, bandwidth violations if
    /// `value_bits` exceeds what the configured `B` allows.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != g.n()`, if the routes were compiled for
    /// another graph, or if a part does not converge (its shortcut leaves
    /// it disconnected).
    pub(crate) fn partwise_min(
        &self,
        g: &Graph,
        values: &[u64],
        value_bits: usize,
        config: CongestConfig,
        scratch: &mut ScratchArena,
    ) -> Result<AggregationResult, SimError> {
        let state = self.aggregate(g, values, value_bits, config, scratch)?;
        let result = AggregationResult {
            minima: self.minima(&state),
            stats: state.stats,
        };
        state.release(scratch);
        Ok(result)
    }

    /// The flood behind [`Self::partwise_min`]: every node seeds its own
    /// part's slot with its value.
    pub(crate) fn aggregate(
        &self,
        g: &Graph,
        values: &[u64],
        value_bits: usize,
        config: CongestConfig,
        scratch: &mut ScratchArena,
    ) -> Result<SlotValues, SimError> {
        assert_eq!(values.len(), g.n(), "one value per node required");
        let seeds = (0..g.n()).filter_map(|v| {
            let slot = self.own_slot[v];
            (slot != NONE).then(|| (v, slot as usize, values[v]))
        });
        self.flood(g, None, seeds, value_bits, config, scratch)
    }

    /// Each part's value, cross-checked: all nodes of a part must agree.
    pub(crate) fn minima(&self, state: &SlotValues) -> Vec<u64> {
        let mut minima: Vec<Option<u64>> = vec![None; self.parts];
        for &slot in &self.own_slot {
            if slot == NONE {
                continue;
            }
            let part = self.slot_part[slot as usize] as usize;
            let value = state.best[slot as usize];
            match minima[part] {
                None => minima[part] = Some(value),
                Some(m0) => assert_eq!(
                    value, m0,
                    "part {part} did not converge (shortcut leaves it disconnected?)"
                ),
            }
        }
        minima
            .into_iter()
            .map(|m| m.expect("parts are non-empty"))
            .collect()
    }

    /// Weighted channel flood: like [`Self::partwise_min`], but a value
    /// crossing edge `e` grows by its weight in `wg`, so part `i` converges to
    /// distances from its seeds inside `G[P_i] + H_i`. `seeds` are
    /// `(node, part, value)` triples; each node must hold a slot for its
    /// seed's part (e.g. lie in that part).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    ///
    /// # Panics
    ///
    /// Panics if a seed names a part its node holds no slot for.
    pub(crate) fn channel_flood(
        &self,
        wg: &WeightedGraph,
        seeds: &[(NodeId, u32, u64)],
        value_bits: usize,
        config: CongestConfig,
        scratch: &mut ScratchArena,
    ) -> Result<SlotValues, SimError> {
        let seeds = seeds.iter().map(|&(v, part, value)| {
            let slot = self.slot_of(v, part).unwrap_or_else(|| {
                panic!("seed ({v}, part {part}) lies outside the part's routes")
            });
            (v, slot, value)
        });
        self.flood(
            wg.graph(),
            Some(wg.weights()),
            seeds,
            value_bits,
            config,
            scratch,
        )
    }

    /// The shared engine: leases the slot columns, splits them into
    /// per-node programs, seeds them, and runs to quiescence.
    fn flood(
        &self,
        g: &Graph,
        weights: Option<&[u64]>,
        seeds: impl Iterator<Item = (NodeId, usize, u64)>,
        value_bits: usize,
        config: CongestConfig,
        scratch: &mut ScratchArena,
    ) -> Result<SlotValues, SimError> {
        let n = g.n();
        assert_eq!(self.nodes(), n, "routes were compiled for another graph");
        let part_bits = bits_for(self.parts.max(2));
        let (slots, entries) = (self.slot_part.len(), self.entries.len());
        let mut best = scratch.lease(slots, 0);
        let mut has_best = scratch.lease(slots, 0);
        let mut pending = scratch.lease(entries, 0);
        let mut queued = scratch.lease(entries, 0);
        let stats = {
            let mut programs: Vec<SlotFlood<'_>> = Vec::with_capacity(n);
            let (mut best, mut has_best) = (&mut best[..], &mut has_best[..]);
            let (mut pending, mut queued) = (&mut pending[..], &mut queued[..]);
            for v in 0..n {
                let slot_base = self.node_slots[v] as usize;
                let slot_len = self.node_slots[v + 1] as usize - slot_base;
                let entry_base = self.link_entries[self.node_links[v] as usize] as usize;
                let entry_len =
                    self.link_entries[self.node_links[v + 1] as usize] as usize - entry_base;
                programs.push(SlotFlood {
                    routes: self,
                    weights,
                    node: v,
                    slot_base,
                    entry_base,
                    best: take_front(&mut best, slot_len),
                    has_best: take_front(&mut has_best, slot_len),
                    pending: take_front(&mut pending, entry_len),
                    queued: take_front(&mut queued, entry_len),
                    queued_count: 0,
                    part_bits,
                    value_bits,
                });
            }
            for (v, slot, value) in seeds {
                programs[v].absorb(slot, value, NONE);
            }
            run(g, &mut programs, config)?
        };
        scratch.give_back(pending);
        scratch.give_back(queued);
        Ok(SlotValues {
            best,
            has_best,
            stats,
        })
    }
}

/// Splits the first `len` cells off `column`, leaving the rest in place.
fn take_front<'a>(column: &mut &'a mut [u64], len: usize) -> &'a mut [u64] {
    let (front, rest) = std::mem::take(column).split_at_mut(len);
    *column = rest;
    front
}

/// Final per-slot values of a flood, in leased columns; hand them back
/// with [`SlotValues::release`].
#[derive(Debug)]
pub(crate) struct SlotValues {
    best: Vec<u64>,
    has_best: Vec<u64>,
    /// Statistics of the run.
    pub(crate) stats: RunStats,
}

impl SlotValues {
    /// Node `v`'s final value for its own part (`None`: `v` is in no part
    /// or never held a value).
    pub(crate) fn own(&self, routes: &AggregationRoutes, v: NodeId) -> Option<u64> {
        let slot = routes.own_slot[v];
        (slot != NONE && self.has_best[slot as usize] != 0).then(|| self.best[slot as usize])
    }

    /// Every node's final values as `(part, value)` pairs sorted by part.
    #[cfg(test)]
    pub(crate) fn per_node(&self, routes: &AggregationRoutes) -> Vec<Vec<(u32, u64)>> {
        (0..routes.nodes())
            .map(|v| {
                let slots = routes.node_slots[v] as usize..routes.node_slots[v + 1] as usize;
                slots
                    .filter(|&s| self.has_best[s] != 0)
                    .map(|s| (routes.slot_part[s], self.best[s]))
                    .collect()
            })
            .collect()
    }

    /// Returns the columns to the arena.
    pub(crate) fn release(self, scratch: &mut ScratchArena) {
        scratch.give_back(self.best);
        scratch.give_back(self.has_best);
    }
}

/// One node of a slot flood: its slices of the leased columns plus the
/// shared routes. `weights` is `None` for plain aggregation and the
/// per-edge weights for a channel distance flood.
#[derive(Debug)]
struct SlotFlood<'a> {
    routes: &'a AggregationRoutes,
    weights: Option<&'a [u64]>,
    node: NodeId,
    slot_base: usize,
    entry_base: usize,
    /// Best value per slot; meaningful where `has_best` is non-zero.
    best: &'a mut [u64],
    has_best: &'a mut [u64],
    /// Queued update per entry; meaningful where `queued` is non-zero.
    pending: &'a mut [u64],
    queued: &'a mut [u64],
    /// Number of non-zero `queued` cells.
    queued_count: usize,
    part_bits: usize,
    value_bits: usize,
}

impl SlotFlood<'_> {
    /// Takes `value` for global slot `slot` if it improves on the held
    /// value (or none is held), queueing it on every link carrying the
    /// slot except the one to `from`.
    fn absorb(&mut self, slot: usize, value: u64, from: u32) {
        let local = slot - self.slot_base;
        if self.has_best[local] != 0 && value >= self.best[local] {
            return;
        }
        self.has_best[local] = 1;
        self.best[local] = value;
        let r = self.routes;
        let fanout = &r.fanout[r.slot_fanout[slot] as usize..r.slot_fanout[slot + 1] as usize];
        for &(entry, nbr) in fanout {
            if nbr == from {
                continue;
            }
            let e = entry as usize - self.entry_base;
            if self.queued[e] == 0 {
                self.queued[e] = 1;
                self.pending[e] = value;
                self.queued_count += 1;
            } else if value < self.pending[e] {
                self.pending[e] = value;
            }
        }
    }
}

impl NodeProgram for SlotFlood<'_> {
    type Msg = PartMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let r = self.routes;
        let v = self.node;
        let links = r.node_links[v] as usize..r.node_links[v + 1] as usize;
        for &(from, ref msg) in ctx.inbox() {
            let value = match self.weights {
                None => msg.value,
                Some(weights) => {
                    let row = &r.links[links.clone()];
                    let link = row
                        .binary_search_by_key(&(from as u32), |&(nb, _)| nb)
                        .expect("sender is a neighbor");
                    dist_add(msg.value, weights[row[link].1 as usize])
                }
            };
            let slot = r
                .slot_of(v, msg.part)
                .expect("a link carries only parts both ends hold");
            self.absorb(slot, value, from as u32);
        }
        if self.queued_count == 0 {
            return;
        }
        // One message per incident edge per round: each link sends its
        // queued update with the smallest (value, part).
        for link in links {
            let entries = r.link_entries[link] as usize..r.link_entries[link + 1] as usize;
            let mut pick: Option<(usize, u64)> = None;
            for entry in entries {
                let e = entry - self.entry_base;
                if self.queued[e] != 0 && pick.map_or(true, |(_, best)| self.pending[e] < best) {
                    pick = Some((entry, self.pending[e]));
                }
            }
            let Some((entry, value)) = pick else {
                continue;
            };
            self.queued[entry - self.entry_base] = 0;
            self.queued_count -= 1;
            // A stale pick (a better flood already won) is dropped, and the
            // link stays silent this round.
            let (slot, part) = r.entries[entry];
            let local = slot as usize - self.slot_base;
            if self.has_best[local] != 0 && self.best[local] < value {
                continue;
            }
            ctx.send(
                r.links[link].0 as NodeId,
                PartMsg::new(part, value, self.part_bits, self.value_bits),
            );
        }
    }

    fn is_done(&self) -> bool {
        self.queued_count == 0
    }
}

/// The outcome of a part-wise aggregation.
#[derive(Debug, Clone)]
pub struct AggregationResult {
    /// The aggregated minimum per part.
    pub minima: Vec<u64>,
    /// Simulation statistics (rounds = the Theorem 1 cost).
    pub stats: RunStats,
}

/// Centralized reference for the part-wise MIN aggregation.
pub fn partwise_min_reference(parts: &Partition, values: &[u64]) -> Vec<u64> {
    parts
        .parts()
        .iter()
        .map(|p| p.iter().map(|&v| values[v]).min().expect("non-empty part"))
        .collect()
}

#[cfg(test)]
// Most of this suite injects hand-built or empty shortcuts to pin the
// aggregation machinery itself — behaviour only reachable through the
// crate-private `AggregationRoutes` seam (a `Solver` session always
// builds its own shortcut).
mod tests {
    use super::*;
    use minex_core::construct::{ShortcutBuilder, SteinerBuilder, WholeTreeBuilder};
    use minex_core::RootedTree;
    use minex_graphs::generators;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn config(n: usize) -> CongestConfig {
        CongestConfig::for_nodes(n).with_bandwidth(96)
    }

    /// Compiles the routes of `(g, parts, shortcut)` and aggregates once.
    fn aggregate_once(
        g: &Graph,
        parts: &Partition,
        shortcut: &Shortcut,
        values: &[u64],
        value_bits: usize,
        config: CongestConfig,
    ) -> Result<AggregationResult, SimError> {
        AggregationRoutes::compile(g, parts, shortcut).partwise_min(
            g,
            values,
            value_bits,
            config,
            &mut ScratchArena::default(),
        )
    }

    fn random_values(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0..1_000_000)).collect()
    }

    #[test]
    fn matches_reference_on_grid_voronoi() {
        let g = generators::triangulated_grid(8, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let seeds: Vec<usize> = (0..6).map(|_| rng.random_range(0..g.n())).collect();
        let bfs = minex_graphs::traversal::multi_source_bfs(&g, &seeds);
        let labels: Vec<Option<usize>> = bfs.source_of.iter().map(|&s| Some(s)).collect();
        let parts = Partition::from_labels(&g, &labels).unwrap();
        let values = random_values(g.n(), 5);
        let out = crate::solver::Solver::for_graph(&g)
            .parts(crate::solver::PartsStrategy::Explicit(parts.clone()))
            .shortcut_builder(SteinerBuilder)
            .config(config(g.n()))
            .build()
            .unwrap()
            .partwise_min(&values, 20)
            .unwrap();
        assert_eq!(out.value.minima, partwise_min_reference(&parts, &values));
        assert!(out.stats.simulated_rounds > 0);
    }

    #[test]
    fn works_without_any_shortcut() {
        // Empty shortcut: aggregation runs over G[P_i] alone — the "naive
        // solution" of Section 1.3.3.
        let g = generators::cycle(24);
        let parts = Partition::new(
            &g,
            vec![(0..8).collect(), (8..16).collect(), (16..24).collect()],
        )
        .unwrap();
        let shortcut = minex_core::Shortcut::empty(3);
        let values = random_values(24, 7);
        let out = aggregate_once(&g, &parts, &shortcut, &values, 20, config(24)).unwrap();
        assert_eq!(out.minima, partwise_min_reference(&parts, &values));
        // Rounds ≈ part diameter.
        assert!(out.stats.rounds >= 5, "rounds={}", out.stats.rounds);
    }

    #[test]
    fn shortcuts_speed_up_the_wheel() {
        // The paper's motivating example, measured: rim parts aggregate
        // slowly alone, fast with spoke shortcuts.
        let n = 128;
        let g = generators::wheel(n);
        let hub = n - 1;
        let t = RootedTree::bfs(&g, hub);
        let rim: Vec<Vec<NodeId>> = vec![(0..n - 1).collect()];
        let parts = Partition::new(&g, rim).unwrap();
        let values = random_values(n, 11);
        let slow = aggregate_once(
            &g,
            &parts,
            &minex_core::Shortcut::empty(1),
            &values,
            20,
            config(n),
        )
        .unwrap();
        let fast_shortcut = WholeTreeBuilder.build(&g, &t, &parts);
        let fast = aggregate_once(&g, &parts, &fast_shortcut, &values, 20, config(n)).unwrap();
        assert_eq!(slow.minima, fast.minima);
        assert!(
            fast.stats.rounds * 4 < slow.stats.rounds,
            "fast={} slow={}",
            fast.stats.rounds,
            slow.stats.rounds
        );
    }

    #[test]
    fn congestion_serializes_shared_edges() {
        // Many single-node parts all given the same tree path: the shared
        // edges must serialize the floods, so rounds grow with part count.
        let g = generators::path(40);
        let t = RootedTree::bfs(&g, 0);
        let k = 10;
        let parts = Partition::new(&g, (0..k).map(|i| vec![4 * i]).collect::<Vec<_>>()).unwrap();
        let shortcut = WholeTreeBuilder.build(&g, &t, &parts);
        let values = random_values(40, 13);
        let out = aggregate_once(&g, &parts, &shortcut, &values, 20, config(40)).unwrap();
        assert_eq!(out.minima, partwise_min_reference(&parts, &values));
        // With congestion k on path edges, rounds must exceed the dilation.
        assert!(out.stats.rounds >= 39, "rounds={}", out.stats.rounds);
    }

    #[test]
    fn single_node_parts_finish_immediately() {
        let g = generators::path(5);
        let parts = Partition::new(&g, vec![vec![2]]).unwrap();
        let shortcut = minex_core::Shortcut::empty(1);
        let values = vec![9, 8, 7, 6, 5];
        let out = aggregate_once(&g, &parts, &shortcut, &values, 10, config(5)).unwrap();
        assert_eq!(out.minima, vec![7]);
        assert_eq!(out.stats.rounds, 0);
    }

    #[test]
    fn bandwidth_violation_reported() {
        let g = generators::path(4);
        let parts = Partition::new(&g, vec![vec![0, 1, 2, 3]]).unwrap();
        let shortcut = minex_core::Shortcut::empty(1);
        let values = vec![1, 2, 3, 4];
        let err = aggregate_once(
            &g,
            &parts,
            &shortcut,
            &values,
            200,
            CongestConfig::for_nodes(4).with_bandwidth(64),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BandwidthExceeded { .. }));
    }
}
