//! Calls into each layer, timed from outside the program.
//!
//! Every function here drives one layer through its public API on a
//! workload's own input and records a span named after the layer metric
//! it feeds. The workloads use the same functions on their measured path
//! (the dashboard refresh and the contact-rule queries) and, in traced
//! runs, to replay their input through one layer at a time (the router
//! pass among them).

use crate::model::FRAME;
use crate::trace::Tracer;
use panda_core::mech::Mechanism;
use panda_core::release::chunk_rng;
use panda_core::{GraphExponential, PolicyIndex, ReleasePool};
use panda_geo::{CellId, GridMap};
use panda_mobility::{Timestamp, TrajectoryDb, UserId};
use panda_net::wire::{decode_frame, encode_submit_batch, Frame};
use panda_net::{GatewayClient, RouterConfig, RouterStats, ShardBackend, ShardRouter};
use panda_surveillance::analysis::estimate_r0_contacts;
use panda_surveillance::ingest::{IngestConfig, IngestPipeline, IngestStats, PendingReport};
use panda_surveillance::monitoring::{movement_matrix, occupancy_by_area};
use panda_surveillance::protocol::LocationReport;
use panda_surveillance::{merge_reported_dbs, ContactTracer, Server, ShardNode};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span names. Each is the per-layer metric it feeds, minus the unit.
pub mod span {
    pub const CODEC: &str = "net.wire.codec";
    pub const ACK: &str = "net.router.ack";
    pub const DRAIN: &str = "surveillance.ingest.drain";
    pub const PIPELINE: &str = "surveillance.ingest.pipeline";
    pub const RELEASE: &str = "core.mech.release";
    pub const COLD_TABLE: &str = "core.index.cold_table";
    pub const BUILD: &str = "core.policy.build";
    pub const FIRST_TOUCH: &str = "graph.distances.first_touch";
    pub const LAND: &str = "surveillance.server.land";
    pub const REPORTED_DB: &str = "surveillance.server.reported_db";
    pub const RESEND_LAND: &str = "surveillance.server.resend_land";
    pub const DASHBOARD: &str = "surveillance.monitoring.dashboard";
    pub const R0: &str = "surveillance.analysis.r0";
    pub const RESEND: &str = "surveillance.client.resend";
    pub const FIND_CONTACTS: &str = "surveillance.tracing.find_contacts";
}

/// Transmission probability and infectious period behind the dashboard's
/// contact-based R0 estimate.
pub const P_TRANSMIT: f64 = 0.05;
pub const INFECTIOUS_EPOCHS: f64 = 24.0;

/// The mechanism every workload releases with.
pub fn mechanism() -> Arc<dyn Mechanism + Send + Sync> {
    Arc::new(GraphExponential)
}

/// Ingest settings shared by the workloads: release inline on the
/// collector (one lane), everything else the pipeline's defaults.
pub fn ingest_config(eps: f64, seed: u64, queue_capacity: usize) -> IngestConfig {
    IngestConfig {
        eps,
        seed,
        queue_capacity,
        release_lanes: 1,
        ..IngestConfig::default()
    }
}

/// Encodes the stream as `SubmitBatch` frames and decodes them again;
/// returns the encoded bytes per report.
pub fn codec(stream: &[PendingReport], tr: &mut Tracer) -> Result<f64, String> {
    let mut buf = Vec::with_capacity(64 * 1024);
    let (mut bytes, mut decoded) = (0usize, 0usize);
    let id = tr.open(span::CODEC);
    for chunk in stream.chunks(FRAME) {
        buf.clear();
        encode_submit_batch(chunk, &mut buf);
        bytes += buf.len();
        match decode_frame(black_box(&buf)) {
            Ok((Frame::SubmitBatch(reports), used)) if used == buf.len() && reports == chunk => {
                decoded += reports.len();
            }
            Ok(_) => return Err("a SubmitBatch frame decoded to something else".into()),
            Err(e) => return Err(format!("a SubmitBatch frame failed to decode: {e:?}")),
        }
    }
    tr.close(id);
    if decoded != stream.len() {
        return Err(format!("decoded {decoded} of {} reports", stream.len()));
    }
    Ok(bytes as f64 / stream.len().max(1) as f64)
}

/// Releases the stream's true cells through `Mechanism::perturb_batch_into`
/// in frame-sized chunks (one RNG stream per chunk).
pub fn release(
    stream: &[PendingReport],
    index: &PolicyIndex,
    eps: f64,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Vec<LocationReport>, String> {
    let mech = GraphExponential;
    let cells: Vec<CellId> = stream.iter().map(|r| r.cell).collect();
    let mut out = vec![CellId(0); cells.len()];
    let id = tr.open(span::RELEASE);
    for (k, (locs, slot)) in cells.chunks(FRAME).zip(out.chunks_mut(FRAME)).enumerate() {
        let mut rng = chunk_rng(seed, k as u64);
        mech.perturb_batch_into(index, eps, locs, &mut rng, slot)
            .map_err(|e| format!("release failed: {e}"))?;
    }
    tr.close(id);
    Ok(stream
        .iter()
        .zip(out)
        .map(|(r, cell)| LocationReport {
            user: r.user,
            epoch: r.epoch,
            cell,
            resend: r.resend,
        })
        .collect())
}

/// Lands released reports on a fresh server with `Server::receive_batch`,
/// one frame-sized batch per call.
pub fn land(grid: &GridMap, released: &[LocationReport], tr: &mut Tracer) -> Result<(), String> {
    let server = Server::new(grid.clone());
    let batches: Vec<Vec<LocationReport>> = released.chunks(FRAME).map(<[_]>::to_vec).collect();
    let id = tr.open(span::LAND);
    for batch in batches {
        server.receive_batch(batch);
    }
    tr.close(id);
    if server.n_received() != released.len() {
        return Err(format!(
            "landed {} of {} reports",
            server.n_received(),
            released.len()
        ));
    }
    Ok(())
}

/// What an in-process pipeline pass measured.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    pub ns: u64,
    pub stats: IngestStats,
    pub flush_p50_ms: f64,
    pub flush_p99_ms: f64,
    pub touches: u64,
}

/// Pushes the stream into one `IngestPipeline` through the blocking
/// `IngestHandle::submit_batch` and drains it.
pub fn pipeline(
    stream: &[PendingReport],
    index: &Arc<PolicyIndex>,
    config: IngestConfig,
    grid: &GridMap,
    tr: &mut Tracer,
) -> Result<PipelineRun, String> {
    let server = Arc::new(Server::new(grid.clone()));
    let touches0 = index.distribution_cache_touches();
    let pool = Arc::new(ReleasePool::new(1));
    let pipeline = IngestPipeline::spawn_on(
        Arc::clone(&server),
        Arc::clone(index),
        mechanism(),
        config,
        pool,
    );
    let registry = pipeline.metrics();
    let handle = pipeline.handle();
    let id = tr.open(span::PIPELINE);
    let t0 = Instant::now();
    for chunk in stream.chunks(FRAME) {
        handle
            .submit_batch(chunk)
            .map_err(|e| format!("in-process submit failed: {e}"))?;
    }
    drop(handle);
    let stats = pipeline.shutdown();
    let ns = t0.elapsed().as_nanos() as u64;
    tr.close(id);
    if stats.landed != stream.len() || server.n_received() != stream.len() {
        return Err(format!(
            "pipeline landed {} of {} reports",
            stats.landed,
            stream.len()
        ));
    }
    let snapshot = registry.snapshot();
    let flush = snapshot
        .histogram("panda_ingest_flush_ns")
        .cloned()
        .unwrap_or_default();
    Ok(PipelineRun {
        ns,
        stats,
        flush_p50_ms: flush.quantile(0.5) as f64 / 1e6,
        flush_p99_ms: flush.quantile(0.99) as f64 / 1e6,
        touches: index.distribution_cache_touches() - touches0,
    })
}

/// A router data plane in front of in-process shard nodes, with one client
/// connected to it.
pub struct Cluster {
    servers: Vec<Arc<Server>>,
    nodes: Vec<ShardNode>,
    router: ShardRouter,
    client: GatewayClient,
    frames: u64,
}

/// Counters of a [`Cluster`] over its lifetime, read when it closes.
#[derive(Debug, Clone)]
pub struct RouteRun {
    pub frames: u64,
    pub router: RouterStats,
    pub retries: u64,
}

/// How often a round polls the nodes' landed counters while they drain.
const LAND_POLL: Duration = Duration::from_micros(50);

impl Cluster {
    /// Spawns `n_nodes` shard nodes releasing under `index` and binds a
    /// router over them on a loopback port.
    pub fn bind(
        grid: &GridMap,
        index: &Arc<PolicyIndex>,
        config: &IngestConfig,
        n_nodes: usize,
    ) -> Result<Self, String> {
        let servers: Vec<Arc<Server>> = (0..n_nodes)
            .map(|_| Arc::new(Server::new(grid.clone())))
            .collect();
        let nodes: Vec<ShardNode> = servers
            .iter()
            .map(|s| {
                ShardNode::spawn(
                    Arc::clone(s),
                    Arc::clone(index),
                    mechanism(),
                    config.clone(),
                )
            })
            .collect();
        let backends = nodes
            .iter()
            .map(|n| ShardBackend::Local(Arc::new(n.handle())))
            .collect();
        let router = ShardRouter::bind("127.0.0.1:0", backends, RouterConfig::default())
            .map_err(|e| format!("router bind failed: {e}"))?;
        let client = GatewayClient::connect(router.local_addr())
            .map_err(|e| format!("connect failed: {e}"))?;
        Ok(Cluster {
            servers,
            nodes,
            router,
            client,
            frames: 0,
        })
    }

    /// Reports landed on every node so far.
    pub fn landed(&self) -> usize {
        self.servers.iter().map(|s| s.n_received()).sum()
    }

    /// Sends the stream in frame-sized `SubmitBatch` frames, closed loop
    /// (each frame waits for its ack), then waits until every report has
    /// landed. Returns the time from the first submit until then.
    pub fn round(&mut self, stream: &[PendingReport], tr: &mut Tracer) -> Result<u64, String> {
        let target = self.landed() + stream.len();
        let t0 = Instant::now();
        for frame in stream.chunks(FRAME) {
            let id = tr.open(span::ACK);
            self.client
                .submit_batch(frame)
                .map_err(|e| format!("frame {} failed: {e}", self.frames))?;
            tr.close(id);
            self.frames += 1;
        }
        let id = tr.open(span::DRAIN);
        while self.landed() < target {
            std::thread::sleep(LAND_POLL);
        }
        tr.close(id);
        Ok(t0.elapsed().as_nanos() as u64)
    }

    /// Closes the client, the router and the nodes (which drain first).
    pub fn close(self) -> Result<RouteRun, String> {
        let retries = self.client.backpressure_retries();
        self.client
            .shutdown()
            .map_err(|e| format!("client shutdown failed: {e}"))?;
        let router = self.router.shutdown();
        for node in self.nodes {
            node.shutdown();
        }
        Ok(RouteRun {
            frames: self.frames,
            router,
            retries,
        })
    }
}

/// Touches each component of a fresh policy once through
/// `PolicyIndex::distance`, in the order the period's cells meet them;
/// returns how many components were touched.
pub fn first_touch(index: &PolicyIndex, cells: &[CellId], tr: &mut Tracer) -> usize {
    let mut seen = std::collections::BTreeSet::new();
    for &c in cells {
        if index.policy().is_isolated_cell(c) || !seen.insert(index.policy().component_of(c)) {
            continue;
        }
        tr.time(span::FIRST_TOUCH, || black_box(index.distance(c, c)));
    }
    seen.len()
}

/// Builds each cell's sampling table on an index that has none yet
/// (`Mechanism::sampler` once per distinct, non-isolated cell).
pub fn cold_tables(
    index: &PolicyIndex,
    cells: &[CellId],
    eps: f64,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mech = GraphExponential;
    for &c in cells {
        if index.policy().is_isolated_cell(c) {
            continue;
        }
        tr.time(span::COLD_TABLE, || {
            mech.sampler(index, eps, c).map(|s| {
                black_box(s);
            })
        })
        .map_err(|e| format!("sampler failed: {e}"))?;
    }
    Ok(())
}

/// The server's view over `[0, horizon)`, merged across shard nodes.
pub fn reported_view(servers: &[Arc<Server>], grid: &GridMap, horizon: Timestamp) -> TrajectoryDb {
    match servers {
        [one] => one.reported_db(horizon),
        many => merge_reported_dbs(grid.clone(), many, horizon),
    }
}

/// One dashboard refresh: the server's view, area occupancy, the movement
/// matrix and the contact-based R0 estimate.
pub struct Refresh {
    pub db: TrajectoryDb,
    pub occupancy: Vec<Vec<u32>>,
    pub movement: Vec<Vec<u32>>,
    pub r0: f64,
}

pub fn refresh(
    servers: &[Arc<Server>],
    grid: &GridMap,
    horizon: Timestamp,
    block: u32,
    tr: &mut Tracer,
) -> Refresh {
    let db = tr.time(span::REPORTED_DB, || reported_view(servers, grid, horizon));
    let (occupancy, movement) = tr.time(span::DASHBOARD, || {
        (occupancy_by_area(&db, block), movement_matrix(&db, block))
    });
    let r0 = tr.time(span::R0, || {
        estimate_r0_contacts(&db, P_TRANSMIT, INFECTIOUS_EPOCHS)
    });
    Refresh {
        db,
        occupancy,
        movement,
        r0,
    }
}

/// A diagnosed user and the history they disclose.
#[derive(Debug, Clone)]
pub struct Patient {
    pub user: UserId,
    pub history: Vec<(Timestamp, CellId)>,
}

/// The first `n` of the seed's shuffled users with their whole history:
/// the diagnosed users the ingest workloads run the contact rule for.
pub fn contact_users(truth: &TrajectoryDb, seed: u64, n: usize) -> Vec<Patient> {
    crate::model::shuffled_users(truth, seed)[..n]
        .iter()
        .map(|&user| Patient {
            user,
            history: crate::model::history(truth, user, 0, truth.horizon()),
        })
        .collect()
}

/// The contact rule on the server's view for each patient (step 4 of the
/// §3.2 round): the view is materialised once, then the rule runs per
/// patient over `[from, to)`.
pub fn contact_queries(
    servers: &[Arc<Server>],
    grid: &GridMap,
    horizon: Timestamp,
    patients: &[Patient],
    window: (Timestamp, Timestamp),
    tr: &mut Tracer,
) -> Vec<Vec<UserId>> {
    let db = tr.time(span::REPORTED_DB, || reported_view(servers, grid, horizon));
    let tracer = ContactTracer::default();
    patients
        .iter()
        .map(|p| {
            tr.time(span::FIND_CONTACTS, || {
                tracer.find_contacts(&db, p.user, &p.history, window.0, window.1)
            })
        })
        .collect()
}
