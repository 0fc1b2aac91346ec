//! The sharded round loop: the engine's path for more than one shard.
//!
//! CONGEST rounds are embarrassingly parallel by construction: within a
//! round every node reads only its own inbox and writes only its own
//! outbox. This loop shards the nodes over contiguous node-id ranges:
//! shard 0 runs on the coordinating thread, shards 1.. on persistent worker
//! threads spawned once per run inside a [`std::thread::scope`] (no
//! dependencies). Per round the coordinator mails each worker its
//! deliveries, every shard runs the one per-node body,
//! [`ShardStep::run`], with its own outbox/validation scratch and emits
//! into its own send buffer, and the coordinator merges the send buffers
//! into the next round's delivery buckets **in node-id order**. All
//! round-trip buffers are recycled through the channels, so the
//! steady-state loop performs no allocation and no threads are spawned
//! after round 0.
//!
//! Every shard count is byte-identical to one shard — inbox contents,
//! [`RunStats`], every program output, and every reported error. Since all
//! shards run the same body, the argument is only about what the split
//! and the merge change:
//!
//! * **Inbox order.** One shard emits into `next_inboxes[v]` while
//!   scanning senders in ascending id order, so each inbox is sorted by
//!   sender id (at most one message per sender-edge per round). Shards
//!   cover ascending contiguous ranges and their send buffers are merged in
//!   shard order, each buffer already in ascending sender order — the same
//!   global order.
//! * **Stats.** `messages`/`total_bits` are sums and `max_message_bits` is
//!   a max — order-free reductions of per-shard partials.
//! * **Telemetry.** Each shard fires its per-node events, in the body's
//!   order, into its own fork of the caller's [`Sink`]
//!   ([`Sink::fork_shard`]); the forks ping-pong through the round-task
//!   channels and the coordinator folds them back ([`Sink::merge_shard`])
//!   in ascending node-id shard order on every exit path. Round-boundary
//!   and rejection events fire only on the root sink. A
//!   [`CongestionProfile`](crate::telemetry::CongestionProfile) therefore
//!   accumulates exactly the one-shard counters.
//! * **Quiescence.** `all_done` is the AND and `any_message` the OR of
//!   per-shard flags, evaluated at the same point of the round as with one
//!   shard (after every `on_round` of the round returned).
//! * **Errors.** Validation of one sender's outbox depends only on that
//!   sender's own sends, never on another node's, so each violation is a
//!   node-local fact. Every shard stops at its first violation in (node id,
//!   outbox position) order; the coordinator scans shard reports in
//!   ascending node-range order and reports the first violation found —
//!   exactly the one a single shard would have hit first. (Shard counts do
//!   differ in one way after an `Err`: here, nodes in later shards than the
//!   offender's still executed their `on_round` for the failing round, so
//!   post-error program state — and post-error telemetry totals — depend on
//!   the shard count; [`crate::run`]'s docs restrict program inspection to
//!   successful runs. A worker-side program panic likewise reaches the
//!   caller re-wrapped by the coordinator.)

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;

use minex_graphs::{GraphView, NodeId};

use crate::program::NodeProgram;
use crate::runtime::{CongestConfig, RunStats, ShardStep, SimError};
use crate::soa::{DeliveryColumns, SendColumns};
use crate::telemetry::Sink;

/// One round of work mailed to a worker shard.
struct RoundTask<M, S> {
    round: usize,
    /// This shard's deliveries as (local node index, sender, payload)
    /// columns, in global ascending-sender order.
    deliveries: DeliveryColumns<M>,
    /// The shard's own (drained) send buffer from last round, returned for
    /// reuse.
    sends: SendColumns<M>,
    /// The shard's telemetry fork, ping-ponged so the coordinator can merge
    /// on any exit path.
    sink: S,
}

/// What one shard reports back to the coordinator each round.
struct ShardDone<M, S> {
    /// Validated sends in (sender, outbox) order, for the coordinator to
    /// merge; drained there and recycled back next round.
    sends: SendColumns<M>,
    /// The (drained) delivery buffer, recycled into the coordinator's
    /// bucket for this shard.
    deliveries: DeliveryColumns<M>,
    /// The shard's telemetry fork, handed back after the shard's events.
    sink: S,
    /// The round's send counters (`rounds` is 0).
    stats: RunStats,
    /// Whether every program of the shard is done, or the shard's first
    /// CONGEST violation in (node id, outbox) order.
    result: Result<bool, SimError>,
}

/// A worker's communication endpoints as held by the coordinator.
type WorkerLink<M, S> = (Sender<RoundTask<M, S>>, Receiver<ShardDone<M, S>>);

/// Runs the sharded round loop. `threads >= 2` and `graph.n() >= threads`
/// (the dispatcher in [`crate::run`] guarantees both).
pub(crate) fn run_parallel<P, S>(
    graph: &(dyn GraphView + Sync),
    programs: &mut [P],
    config: CongestConfig,
    threads: usize,
    sink: &mut S,
) -> Result<RunStats, SimError>
where
    P: NodeProgram + Send,
    P::Msg: Send,
    S: Sink,
{
    let n = graph.n();
    debug_assert!(threads >= 2 && threads <= n);
    // Contiguous shards of ceil(n/threads) nodes: shard s owns node ids
    // [s·chunk, min((s+1)·chunk, n)). Contiguity in ascending id order is
    // what makes the in-order merge reproduce the one-shard delivery order.
    let chunk = n.div_ceil(threads);
    thread::scope(|scope| {
        let mut chunks = programs.chunks_mut(chunk);
        let shard0_programs = chunks.next().expect("dispatcher guarantees n >= 1");
        // Workers own shards 1.. for the whole run; dropping the task
        // senders (on any return or panic) is their shutdown signal.
        let mut workers: Vec<WorkerLink<P::Msg, S>> = Vec::new();
        for (w, shard_programs) in chunks.enumerate() {
            let (task_tx, task_rx) = channel::<RoundTask<P::Msg, S>>();
            let (done_tx, done_rx) = channel::<ShardDone<P::Msg, S>>();
            let lo = (w + 1) * chunk;
            scope.spawn(move || worker_loop(graph, config, lo, shard_programs, task_rx, done_tx));
            workers.push((task_tx, done_rx));
        }
        let shards = workers.len() + 1;
        // Shard 0 runs on the coordinator. Per shard s: the next round's
        // delivery bucket, the recycled send buffer, and the parked
        // telemetry fork; the workers' entries ping-pong through the
        // channels. The forks are merged back into the root sink in shard
        // order on every exit path below.
        let mut shard0_inboxes: Vec<Vec<(NodeId, P::Msg)>> =
            vec![Vec::new(); shard0_programs.len()];
        let mut shard0_step = ShardStep::new(graph, config, 0);
        let mut buckets: Vec<DeliveryColumns<P::Msg>> =
            (0..shards).map(|_| DeliveryColumns::new()).collect();
        let mut recycled: Vec<SendColumns<P::Msg>> =
            (0..shards).map(|_| SendColumns::new()).collect();
        let mut sinks: Vec<Option<S>> = (0..shards).map(|_| Some(sink.fork_shard())).collect();
        let merge_sinks = |sink: &mut S, sinks: Vec<Option<S>>| {
            for shard_sink in sinks.into_iter().flatten() {
                sink.merge_shard(shard_sink);
            }
        };
        let mut stats = RunStats::default();
        for round in 0..config.max_rounds {
            sink.on_round_start(round);
            let mut tasks = (0..shards).map(|s| RoundTask {
                round,
                deliveries: std::mem::take(&mut buckets[s]),
                sends: std::mem::take(&mut recycled[s]),
                sink: sinks[s].take().expect("sink parked between rounds"),
            });
            let shard0_task = tasks.next().expect("shard 0 exists");
            for ((task_tx, _), task) in workers.iter().zip(tasks) {
                // A send only fails if the worker panicked; the recv below
                // then panics the coordinator and the scope re-raises.
                let _ = task_tx.send(task);
            }
            // The coordinator works shard 0 while the workers run theirs.
            let mut dones: Vec<ShardDone<P::Msg, S>> = Vec::with_capacity(shards);
            dones.push(run_shard(
                &mut shard0_step,
                shard0_programs,
                &mut shard0_inboxes,
                shard0_task,
            ));
            for (_, done_rx) in &workers {
                dones.push(done_rx.recv().expect("engine worker panicked"));
            }
            // Reduce the reports; shard order == ascending node-id order, so
            // keeping the first error seen is the deterministic selection.
            let mut all_done = true;
            let mut any_message = false;
            let mut first_error: Option<SimError> = None;
            let mut sends_in_order: Vec<SendColumns<P::Msg>> = Vec::with_capacity(shards);
            for (s, done) in dones.into_iter().enumerate() {
                match done.result {
                    Ok(shard_done) => all_done &= shard_done,
                    Err(err) => {
                        first_error.get_or_insert(err);
                    }
                }
                any_message |= done.stats.messages > 0;
                stats.absorb(done.stats);
                // The shard's drained delivery buffer becomes its next
                // bucket (empty but warm), and its telemetry fork parks
                // until the next round (or the final merge).
                buckets[s] = done.deliveries;
                sinks[s] = Some(done.sink);
                sends_in_order.push(done.sends);
            }
            if let Some(err) = first_error {
                merge_sinks(sink, sinks);
                return Err(err);
            }
            // Merge into next-round buckets in shard (== ascending sender
            // id) order, then hand the drained buffers back. The sweep
            // reads only the id columns; payloads move untouched.
            for (s, mut sends) in sends_in_order.into_iter().enumerate() {
                for ((&from, &to), msg) in sends
                    .srcs
                    .iter()
                    .zip(&sends.dsts)
                    .zip(sends.payloads.drain(..))
                {
                    let to = to as NodeId;
                    buckets[to / chunk].push(to % chunk, from as NodeId, msg);
                }
                sends.clear();
                recycled[s] = sends;
            }
            sink.on_round_end(round);
            if all_done && !any_message {
                stats.rounds = round;
                merge_sinks(sink, sinks);
                return Ok(stats);
            }
        }
        merge_sinks(sink, sinks);
        Err(SimError::MaxRoundsExceeded {
            limit: config.max_rounds,
        })
    })
}

/// A worker's whole-run loop: receive a round task, run it, report back.
/// Exits when the coordinator hangs up (run over, error, or coordinator
/// panic).
fn worker_loop<P: NodeProgram, S: Sink>(
    graph: &(dyn GraphView + Sync),
    config: CongestConfig,
    lo: NodeId,
    programs: &mut [P],
    tasks: Receiver<RoundTask<P::Msg, S>>,
    dones: Sender<ShardDone<P::Msg, S>>,
) {
    let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); programs.len()];
    let mut step = ShardStep::new(graph, config, lo);
    while let Ok(task) = tasks.recv() {
        let done = run_shard(&mut step, programs, &mut inboxes, task);
        if dones.send(done).is_err() {
            break;
        }
    }
}

/// Runs one shard's round: moves the task's deliveries into the shard's
/// `inboxes`, then runs the shared [`ShardStep`], appending each validated
/// outbox to the shard's send buffer in (sender, outbox position) order.
fn run_shard<P: NodeProgram, S: Sink>(
    step: &mut ShardStep<'_, P::Msg>,
    programs: &mut [P],
    inboxes: &mut [Vec<(NodeId, P::Msg)>],
    task: RoundTask<P::Msg, S>,
) -> ShardDone<P::Msg, S> {
    let RoundTask {
        round,
        mut deliveries,
        mut sends,
        mut sink,
    } = task;
    deliveries.drain_into(inboxes);
    let result = step.run(round, programs, inboxes, &mut sink, |v, outbox| {
        sends.append_outbox(v, outbox)
    });
    ShardDone {
        sends,
        deliveries,
        sink,
        stats: std::mem::take(&mut step.stats),
        result,
    }
}
