//! A report stream replayed through the ingest layers one at a time, and
//! the per-layer metrics derived from those passes.

use crate::layers::{self, span, Cluster, PipelineRun, RouteRun};
use crate::report::LayerSet;
use crate::trace::{median, quantile, Tracer};
use panda_core::mech::Mechanism;
use panda_core::{GraphExponential, PolicyIndex};
use panda_geo::GridMap;
use panda_surveillance::ingest::{IngestConfig, PendingReport};
use std::sync::Arc;

/// Shard nodes behind the router.
pub const NODES: usize = 2;

/// Builds every cell's sampling table (and with it every component's
/// distance table), so releases under `index` run warm.
pub fn warm(index: &PolicyIndex, grid: &GridMap, eps: f64) -> Result<(), String> {
    for c in grid.cells() {
        GraphExponential
            .sampler(index, eps, c)
            .map_err(|e| format!("warming cell {} failed: {e}", c.0))?;
    }
    Ok(())
}

/// One replay of a stream: the wire codec, release alone, landing alone
/// and the in-process pipeline, each over the whole stream.
#[derive(Debug, Clone)]
pub struct StreamPass {
    pub bytes_per_report: f64,
    pub codec_ns: u64,
    pub release_ns: u64,
    pub land_ns: u64,
    pub pipeline: PipelineRun,
}

/// Replays `stream` through each ingest layer under the warm `index`.
pub fn stream_pass(
    stream: &[PendingReport],
    index: &Arc<PolicyIndex>,
    eps: f64,
    seed: u64,
    grid: &GridMap,
    tr: &mut Tracer,
) -> Result<StreamPass, String> {
    let spans0 = tr.spans().len();
    let bytes_per_report = layers::codec(stream, tr)?;
    let released = layers::release(stream, index, eps, seed, tr)?;
    layers::land(grid, &released, tr)?;
    let config = layers::ingest_config(eps, seed, IngestConfig::default().queue_capacity);
    let pipeline = layers::pipeline(stream, index, config, grid, tr)?;
    let total = |name: &str| -> u64 {
        tr.spans()[spans0..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns())
            .sum()
    };
    Ok(StreamPass {
        bytes_per_report,
        codec_ns: total(span::CODEC),
        release_ns: total(span::RELEASE),
        land_ns: total(span::LAND),
        pipeline,
    })
}

/// Sends `stream` through a router in front of [`NODES`] in-process shard
/// nodes whose queues hold the whole stream.
pub fn route_pass(
    stream: &[PendingReport],
    index: &Arc<PolicyIndex>,
    eps: f64,
    seed: u64,
    grid: &GridMap,
    tr: &mut Tracer,
) -> Result<RouteRun, String> {
    let config = layers::ingest_config(eps, seed, stream.len().max(1));
    let mut cluster = Cluster::bind(grid, index, &config, NODES)?;
    cluster.round(stream, tr)?;
    cluster.close()
}

/// Sets the ingest-layer metrics from the passes over an `n`-report
/// stream and the router runs (the `net.router.ack` spans in `tr`).
pub fn set_stream_metrics(
    passes: &[StreamPass],
    routes: &[RouteRun],
    n: usize,
    tr: &Tracer,
    l: &mut LayerSet,
) {
    let n = n.max(1) as f64;
    let per_report =
        |f: &dyn Fn(&StreamPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    l.set(
        "net.wire.bytes_per_report",
        per_report(&|p| p.bytes_per_report),
    );
    l.set(
        "net.wire.codec_ns_per_report",
        per_report(&|p| p.codec_ns as f64 / n),
    );
    l.set(
        "core.mech.release_ns_per_report",
        per_report(&|p| p.release_ns as f64 / n),
    );
    l.set(
        "surveillance.server.land_ns_per_report",
        per_report(&|p| p.land_ns as f64 / n),
    );
    l.set(
        "surveillance.ingest.inproc_rps",
        per_report(&|p| n / (p.pipeline.ns as f64 / 1e9)),
    );
    l.set(
        "surveillance.ingest.queue_hop_ns_per_report",
        per_report(&|p| (p.pipeline.ns as f64 - p.release_ns as f64 - p.land_ns as f64) / n),
    );
    l.set(
        "surveillance.ingest.flush_ms_p50",
        per_report(&|p| p.pipeline.flush_p50_ms),
    );
    l.set(
        "surveillance.ingest.flush_ms_p99",
        per_report(&|p| p.pipeline.flush_p99_ms),
    );
    l.set(
        "surveillance.ingest.reports_per_flush",
        per_report(&|p| p.pipeline.stats.landed as f64 / p.pipeline.stats.batches.max(1) as f64),
    );
    l.set(
        "core.index.touches_per_report",
        per_report(&|p| p.pipeline.touches as f64 / n),
    );
    let acks = tr.durations(span::ACK);
    l.set("net.router.ack_p50_ms", quantile(&acks, 0.5) / 1e6);
    l.set("net.router.ack_p99_ms", quantile(&acks, 0.99) / 1e6);
    let frames: u64 = routes.iter().map(|r| r.frames).sum();
    let fanout: u64 = routes.iter().map(|r| r.router.fanout_batches).sum();
    l.set(
        "net.router.fanout_per_frame",
        fanout as f64 / frames.max(1) as f64,
    );
    l.set(
        "net.client.backpressure_retries",
        routes.iter().map(|r| r.retries).sum::<u64>() as f64,
    );
}
