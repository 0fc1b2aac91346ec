//! `serve-mix`: an in-process `minex-serve` daemon with its default
//! configuration, driven over loopback by two closed-loop `Client`s, each
//! with its own session. Each client cycles a fixed script of memo-hit
//! reads, cold reads and `apply` writes (a chord inserted, then deleted on
//! the next write), so simulator work is small and HTTP, fleet, wire and
//! plan repair dominate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use minex_algo::solver::{PartsStrategy, Solver, Tier};
use minex_algo::wire::JsonValue;
use minex_congest::CongestConfig;
use minex_graphs::{generators, EdgeMutation, Graph, NodeId, WeightModel, WeightedGraph};
use minex_serve::{start, Client, CreateSession, ServerConfig, ServerHandle, SessionSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::inproc::{self, timed, Query, Reply, Tally};
use crate::report::{self, median, Call, Figures, Recorder};
use crate::{probes, RunArgs};

const SIDE: usize = 24;
const PARTS: usize = 8;
const CLIENTS: usize = 2;
/// Setup repetitions (daemon start + uploads) whose median is `setup_s`;
/// each takes a few milliseconds, so a run can afford many.
const SETUPS: usize = 9;
/// Requests per script cycle.
const CYCLE: usize = 16;
/// Requests per run, so that at least ten samples lie beyond p99.
const MIN_REQUESTS: usize = 1000;
/// Cycles per client covered by `sim_rounds` and the traced replay.
const CANONICAL_CYCLES: usize = 2;
const EPSILON: f64 = 0.5;

/// One client's network, upload request and fixed script inputs.
struct Tenant {
    upload: CreateSession,
    /// The network exactly as the daemon builds it from the upload.
    network: Arc<WeightedGraph>,
    voronoi: PartsStrategy,
    /// Values of every `partwise_min` (repeated, so memo hits happen).
    values: Vec<u64>,
    /// Source of the repeated exact SSSP.
    hot_source: NodeId,
    /// Seeds of the per-cycle inputs (sources and chords): a fixed one for
    /// the canonical cycles, so `sim_rounds` is the same on every run, and
    /// one drawn from `--seed` for the later cycles.
    canonical_seed: u64,
    seed: u64,
}

impl Tenant {
    /// Client `client`'s fixed network and script, with the inputs of its
    /// later cycles drawn from `seed`.
    fn new(seed: u64, client: usize) -> Tenant {
        let mut rng = StdRng::seed_from_u64(0x6d69_6e65_785f_7376 + client as u64);
        let wg = WeightModel::DistinctShuffled
            .apply(&generators::triangulated_grid(SIDE, SIDE), &mut rng);
        let n = wg.graph().n();
        let voronoi = PartsStrategy::Voronoi {
            parts: PARTS,
            seed: rng.random_range(0..u64::MAX),
        };
        let mut upload = CreateSession::from_weighted(&wg);
        upload.parts = Some(voronoi.clone());
        upload.threads = Some(1);
        Tenant {
            network: Arc::new(as_uploaded(&upload)),
            upload,
            voronoi,
            values: (0..n).map(|_| rng.random_range(0..1u64 << 32)).collect(),
            hot_source: rng.random_range(0..n),
            canonical_seed: rng.random_range(0..u64::MAX),
            seed: seed
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(client as u64 + 1),
        }
    }

    /// The `i`-th request of this client's script.
    fn request(&self, i: usize) -> Query {
        let g = self.network.graph();
        let cycle = i / CYCLE;
        let seed = if cycle < CANONICAL_CYCLES {
            self.canonical_seed
        } else {
            self.seed
        };
        let mut rng = StdRng::seed_from_u64(seed ^ (cycle as u64).wrapping_mul(0x9E37_79B9));
        let (u, v) = loop {
            let (u, v) = (rng.random_range(0..g.n()), rng.random_range(0..g.n()));
            if u < v && !g.has_edge(u, v) {
                break (u, v);
            }
        };
        let weight = rng.random_range(1..=4096u64);
        let fresh = |rng: &mut StdRng| loop {
            let s = rng.random_range(0..g.n());
            if s != self.hot_source {
                break s;
            }
        };
        let (cold_exact, cold_scaled) = (fresh(&mut rng), fresh(&mut rng));
        let hot = Query::Sssp(self.hot_source, Tier::Exact);
        let partwise = Query::Partwise(self.values.clone());
        match i % CYCLE {
            0 => Query::Apply(vec![EdgeMutation::Insert { u, v, weight }]),
            1 | 4 | 10 | 15 => Query::Mst,
            2 | 5 | 14 => partwise,
            3 | 6 | 12 => hot,
            7 => Query::Sssp(cold_exact, Tier::Exact),
            8 => Query::Apply(vec![EdgeMutation::Delete { u, v }]),
            9 | 11 => Query::Components,
            _ => Query::Sssp(cold_scaled, Tier::Scaled { epsilon: EPSILON }),
        }
    }

    /// An in-process session configured as the daemon configures this
    /// upload, through the daemon's own session spec.
    fn session(&self) -> Solver {
        let n = self.network.graph().n();
        SessionSpec {
            wg: Arc::clone(&self.network),
            parts: self.voronoi.clone(),
            builder: "auto-capped".into(),
            config: CongestConfig::for_nodes(n).with_threads(1),
            trace: false,
        }
        .build()
        .expect("replay session")
    }
}

/// Builds the network from an upload the way the daemon does: streamed
/// CSR construction, weights placed by edge lookup.
fn as_uploaded(upload: &CreateSession) -> WeightedGraph {
    let g = Graph::from_edge_stream(upload.n, || upload.edges.iter().map(|&(u, v, _)| (u, v)))
        .expect("generated graphs are simple");
    let mut weights = vec![0u64; g.m()];
    for &(u, v, w) in &upload.edges {
        weights[g.edge_between(u, v).expect("uploaded edge")] = w;
    }
    WeightedGraph::new(g, weights)
}

/// One served request as the client saw it.
struct Served {
    ms: f64,
    status: u16,
    body: String,
}

/// Runs one client's closed loop until `deadline` has passed and it has
/// sent its share of [`MIN_REQUESTS`], stopping at a cycle boundary.
/// Returns the requests and the process's peak resident memory when this
/// client's canonical cycles ended.
fn client_loop(
    mut client: Client,
    session: &str,
    tenant: &Tenant,
    deadline: Instant,
) -> (Vec<Served>, f64) {
    let path = format!("/v1/sessions/{session}/query");
    let mut served = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        for _ in 0..CYCLE {
            let body = tenant.request(served.len()).to_wire();
            let start = Instant::now();
            let out = client.request_raw("POST", &path, Some(&body));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok((status, body)) => served.push(Served { ms, status, body }),
                Err(e) => {
                    eprintln!("transport failure: {e}");
                    served.push(Served {
                        ms,
                        status: 0,
                        body: String::new(),
                    });
                    return (served, peak_rss_mb);
                }
            }
        }
        let cycles = served.len() / CYCLE;
        if cycles == CANONICAL_CYCLES {
            peak_rss_mb = probes::peak_rss_mb();
        }
        if Instant::now() >= deadline
            && cycles >= CANONICAL_CYCLES
            && served.len() * CLIENTS >= MIN_REQUESTS
        {
            return (served, peak_rss_mb);
        }
    }
}

/// A started daemon with one uploaded session per tenant.
struct Daemon {
    handle: ServerHandle,
    clients: Vec<(Client, String)>,
}

fn start_daemon(tenants: &[Tenant], create_ms: &mut Vec<f64>) -> Daemon {
    let handle = start(ServerConfig::default()).expect("start daemon");
    let clients = tenants
        .iter()
        .map(|t| {
            let mut client = Client::connect(handle.addr()).expect("connect");
            let (session, ms) = timed(|| client.create_session(&t.upload));
            create_ms.push(ms);
            (client, session.expect("create session"))
        })
        .collect();
    Daemon { handle, clients }
}

pub fn run(args: &RunArgs) -> (Recorder, Figures) {
    let mut rec = Recorder::default();
    let (mut gen_ms, mut create_ms) = (Vec::new(), Vec::new());
    let mut daemon = None;
    let mut tenants = Vec::new();
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            let Daemon { handle, clients } = d;
            drop(clients);
            handle.shutdown();
        }
        let start = Instant::now();
        let (t, ms) = timed(|| (0..CLIENTS).map(|c| Tenant::new(args.seed, c)).collect());
        tenants = t;
        gen_ms.push(ms);
        daemon = Some(start_daemon(&tenants, &mut create_ms));
        rec.setups_s.push(start.elapsed().as_secs_f64());
    }
    let Daemon { handle, clients } = daemon.expect("a daemon was started");

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let (served, rss): (Vec<Vec<Served>>, Vec<f64>) = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .zip(&tenants)
            .map(|((client, session), tenant)| {
                scope.spawn(move || client_loop(client, &session, tenant, deadline))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .unzip()
    });
    rec.busy_s = start.elapsed().as_secs_f64();
    handle.shutdown();
    rec.peak_rss_mb = rss.into_iter().fold(0.0, f64::max);

    // Replay every client's script on an in-process session and compare
    // each served body byte for byte; check each answer against its
    // sequential reference as well.
    let mut inproc_rec = Recorder::default();
    let (mut plan_ms, mut repair_ms) = (Vec::new(), Vec::new());
    let (mut quality, mut parts_rebuilt, mut shed) = (0usize, 0usize, 0usize);
    for (c, (tenant, served)) in tenants.iter().zip(&served).enumerate() {
        // The daemon plans lazily, on the first query that needs a plan;
        // the replay session must too, so plan cost is taken on another.
        let (mut planned, ms) = timed(|| {
            let mut s = tenant.session();
            s.plan().expect("replay plan");
            s
        });
        plan_ms.push(ms);
        quality += planned.plan().expect("cached plan").quality().quality;
        let mut solver = tenant.session();
        for (i, got) in served.iter().enumerate() {
            let q = tenant.request(i);
            let (cycle, canonical) = (i / CYCLE, i / CYCLE < CANONICAL_CYCLES);
            let pass = cycle * CLIENTS + c;
            rec.attempted += 1;
            if got.status != 200 {
                rec.failed += 1;
                let code = JsonValue::parse(&got.body).ok().and_then(|v| {
                    v.get("code")
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                });
                if code.as_deref() == Some("OVERLOADED") {
                    // A shed request never reached the session.
                    shed += 1;
                    continue;
                }
            }
            let slot = i % CYCLE;
            let reply = inproc::call(&mut solver, &q, &mut inproc_rec, slot, pass, canonical);
            if let Some(Reply::Apply(stats)) = &reply {
                repair_ms.push(inproc_rec.calls.last().expect("recorded").ms);
                if canonical {
                    parts_rebuilt += stats.plan.parts_rebuilt;
                }
            }
            if got.status != 200 {
                continue;
            }
            let want = reply.as_ref().map(Reply::encode);
            rec.check(want.as_deref() == Some(got.body.as_str()), || {
                format!("client {c} request {i}: served body differs from the in-process replay")
            });
            rec.calls.push(Call {
                kind: q.kind(),
                slot: i % CYCLE,
                pass,
                canonical,
                ms: got.ms,
                rounds: reply.as_ref().map_or(0, Reply::rounds),
                nodes: tenant.network.graph().n(),
            });
        }
    }
    rec.mismatches.append(&mut inproc_rec.mismatches);

    let mut layers = Figures::default();
    if !args.trace {
        return (rec, layers);
    }
    report::algo_kind_layers(&inproc_rec, &mut layers);
    // Both medians are taken as `p50_ms` is, so the overhead is `p50_ms`
    // minus the in-process time.
    let inproc_ms = median(&inproc_rec.slot_medians());
    let served_ms = median(&rec.slot_medians());
    let n_inproc = inproc_rec.calls.len();
    layers.set("serve.inproc_ms", inproc_ms, "ms", n_inproc);
    layers.set(
        "serve.overhead_ms",
        served_ms - inproc_ms,
        "ms",
        rec.calls.len(),
    );
    layers.set(
        "serve.create_session_ms",
        median(&create_ms),
        "ms",
        create_ms.len(),
    );
    layers.set("serve.shed", shed as f64, "count", rec.attempted);
    layers.set("graphs.generate_ms", median(&gen_ms), "ms", gen_ms.len());
    layers.set("core.plan_ms", median(&plan_ms), "ms", plan_ms.len());
    layers.set("core.quality", quality as f64, "count", CLIENTS);
    layers.set("core.repair_ms", median(&repair_ms), "ms", repair_ms.len());
    layers.set("core.parts_rebuilt", parts_rebuilt as f64, "count", CLIENTS);
    let graphs: Vec<&WeightedGraph> = tenants.iter().map(|t| t.network.as_ref()).collect();
    layers.set("graphs.csr_bytes", probes::csr_bytes(&graphs), "bytes", 1);
    probes::congest_primitives(&graphs, 8, args.seed, &mut layers);

    // Traced replay of the canonical cycles: counts, memo hit share and
    // wire codec cost.
    let mut tally = Tally::default();
    for tenant in &tenants {
        let mut solver = tenant.session();
        solver.enable_trace();
        for i in 0..CANONICAL_CYCLES * CYCLE {
            tally.traced_call(&mut solver, &tenant.request(i), &mut rec);
        }
        tally.absorb_trace(solver.trace().expect("tracing is on"));
    }
    tally.reconcile(rec.sim_rounds(), &mut rec);
    tally.layers(inproc::canonical_ms(&inproc_rec), &mut layers);
    (rec, layers)
}
