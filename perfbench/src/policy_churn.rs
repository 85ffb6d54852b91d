//! `policy_churn`: in-process ingest under a policy that changes every few
//! epochs.
//!
//! One producer streams a population, epoch after epoch, through the
//! blocking `IngestHandle::submit_batch` into one `IngestPipeline` that
//! starts under the large-block `Gb` partition (warmed at set-up). Every
//! `SWITCH_EVERY` epochs a user is diagnosed: the operator builds a fresh
//! `Gc` from their history with `PolicyConfigurator::update_on_diagnosis`,
//! gives it a new `PolicyIndex`, and installs it with
//! `IngestPipeline::switch_policy`. Each fresh policy pays its distance
//! tables (one BFS per cell of each clique component it meets) and its
//! sampling tables cold. The wire and the router are not on this path.
//!
//! A round streams the whole population through a fresh pipeline and
//! server with the same diagnosis schedule, so every round lands the same
//! database. After the stream has landed, the round serves eight dashboard
//! refreshes and contact-rule passes for 32 diagnosed users (the round's
//! five first).

use crate::ingest_checks::{self, InstallMisses};
use crate::layers::{self, Patient};
use crate::model::{self, BlockModel, FRAME};
use crate::replay;
use crate::report::{Op, Outcome};
use crate::trace::{median, Tracer};
use crate::Args;
use panda_core::{PolicyIndex, ReleasePool};
use panda_geo::GridMap;
use panda_mobility::{Timestamp, TrajectoryDb};
use panda_surveillance::ingest::{IngestConfig, IngestPipeline, PendingReport};
use panda_surveillance::{PolicyConfigurator, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GRID: u32 = 64;
const CELL_M: f64 = 250.0;
const USERS: u32 = 1000;
const DAYS: u32 = 1;
/// `Ga` blocks (the dashboard's areas) and `Gb` blocks (the pipeline's
/// policy), in cells.
const COARSE: u32 = 32;
const FINE: u32 = 16;
/// ε per report: 24 epochs spend at most 24 of the default budget of 50.
const EPS: f64 = 1.0;
/// Epochs between diagnoses (policy installs).
const SWITCH_EVERY: Timestamp = 4;
/// Users the contact rule runs for after each round.
const CONTACT_USERS: usize = 32;
/// Refreshes and contact-query passes served after each round: rounds
/// are long (every install pays its distance tables), so each round
/// contributes several read-side samples.
const QUERIES_PER_ROUND: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Users of the re-send probe's cohort (traced runs only).
const PROBE_USERS: usize = 256;

struct Setup {
    truth: TrajectoryDb,
    grid: GridMap,
    stream: Vec<PendingReport>,
    configurator: PolicyConfigurator,
    gb: Arc<PolicyIndex>,
    /// `patients[k]` is diagnosed at epoch `(k + 1) · SWITCH_EVERY` and
    /// discloses every epoch before it.
    patients: Vec<Patient>,
    /// Users the contact rule runs for after each round: the diagnosed
    /// ones first, with their whole history.
    contacts: Vec<Patient>,
    ingest_seed: u64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let truth = model::population(seed, GRID, CELL_M, USERS, DAYS);
    let grid = truth.grid().clone();
    let horizon = truth.horizon();
    let stream = model::epoch_stream(&truth, 0, horizon);
    let configurator = PolicyConfigurator::new(grid.clone(), COARSE, FINE);
    let gb = Arc::new(PolicyIndex::new(configurator.for_analysis()));
    replay::warm(&gb, &grid, EPS)?;
    let patients = (1..horizon.div_ceil(SWITCH_EVERY))
        .zip(model::shuffled_users(&truth, seed))
        .map(|(k, user)| Patient {
            user,
            history: model::history(&truth, user, 0, k * SWITCH_EVERY),
        })
        .collect();
    let contacts = layers::contact_users(&truth, seed, CONTACT_USERS);
    Ok(Setup {
        truth,
        grid,
        stream,
        configurator,
        gb,
        patients,
        contacts,
        ingest_seed: model::sub_seed(seed, 3),
    })
}

/// The policy model index of epoch `t`: 0 for `Gb`, `k` for the `Gc`
/// installed at epoch `k · SWITCH_EVERY`.
fn model_of(t: Timestamp) -> usize {
    (t / SWITCH_EVERY) as usize
}

/// One round: the stream through a fresh pipeline, with the diagnosis
/// schedule's installs between epochs. Returns the server, landed count
/// and first-submit-to-drained time.
fn stream_round(s: &Setup, tr: &mut Tracer) -> Result<(Arc<Server>, usize, u64, usize), String> {
    let users = s.truth.n_users();
    let server = Arc::new(Server::new(s.grid.clone()));
    let config = layers::ingest_config(EPS, s.ingest_seed, IngestConfig::default().queue_capacity);
    let pipeline = IngestPipeline::spawn_on(
        Arc::clone(&server),
        Arc::clone(&s.gb),
        layers::mechanism(),
        config,
        Arc::new(ReleasePool::new(1)),
    );
    let handle = pipeline.handle();
    let t0 = Instant::now();
    for (t, epoch) in s.stream.chunks(users).enumerate() {
        let t = t as Timestamp;
        if t > 0 && t.is_multiple_of(SWITCH_EVERY) {
            let id = tr.open("e2e.install");
            let patient = &s.patients[model_of(t) - 1];
            let gc = s.configurator.update_on_diagnosis(&patient.history);
            pipeline.switch_policy(Arc::new(PolicyIndex::new(gc)));
            tr.close(id);
        }
        let id = tr.open("e2e.submit");
        for chunk in epoch.chunks(FRAME) {
            handle
                .submit_batch(chunk)
                .map_err(|e| format!("submit failed at epoch {t}: {e}"))?;
        }
        tr.close(id);
    }
    drop(handle);
    let id = tr.open(layers::span::DRAIN);
    let stats = pipeline.shutdown();
    tr.close(id);
    let ns = t0.elapsed().as_nanos() as u64;
    Ok((server, stats.landed, ns, stats.policy_switches))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        drop(s.take());
        let t0 = Instant::now();
        let st = setup(args.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        s = Some(st);
    }
    let s = s.expect("at least one set-up");
    let mut out = Outcome {
        setup_s: median(&setup_s),
        ..Outcome::default()
    };
    let horizon = s.truth.horizon();
    let n = s.stream.len();
    let installs = s.patients.len();
    let mut models = vec![BlockModel::new(&s.grid, FINE, &[])];
    models.extend(
        s.patients
            .iter()
            .map(|p| BlockModel::new(&s.grid, FINE, &model::distinct_cells(&p.history))),
    );
    let eps = vec![EPS; models.len()];

    let mut tracer = Tracer::new(args.trace);
    let mut off = Tracer::new(false);
    let (mut rps, mut query_ns, mut trace_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ns, mut untraced_ns, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    let (mut passes, mut misses): (Vec<replay::StreamPass>, Vec<InstallMisses>) =
        (Vec::new(), Vec::new());
    let mut digest0 = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut round: u32 = 0;
    loop {
        let traced = args.trace && round % 2 == 1;
        let tr = if traced { &mut tracer } else { &mut off };
        tr.set_round(round);
        let (server, landed, ns, switches) = stream_round(&s, tr)?;
        rps.push(n as f64 / (ns as f64 / 1e9));
        out.checks.every_round(
            "every diagnosis installed a policy",
            if switches == installs {
                Ok(format!("{installs} installs per round"))
            } else {
                Err(format!(
                    "round {round}: {switches} installs, expected {installs}"
                ))
            },
        );
        let servers = [server];

        let mut last = None;
        for _ in 0..QUERIES_PER_ROUND {
            let t0 = Instant::now();
            let rf = layers::refresh(&servers, &s.grid, horizon, COARSE, tr);
            query_ns.push(t0.elapsed().as_nanos() as f64);
            let t1 = Instant::now();
            layers::contact_queries(&servers, &s.grid, horizon, &s.contacts, (0, horizon), tr);
            trace_ns.push(t1.elapsed().as_nanos() as f64);
            last = Some(rf);
        }
        let rf = last.expect("at least one refresh per round");

        let counted = if servers[0].n_received() == landed {
            landed
        } else {
            usize::MAX
        };
        let d = ingest_checks::every_round(
            &mut out.checks,
            round,
            counted,
            n,
            &rf,
            s.truth.n_users(),
            horizon,
        );
        if let Some(d0) = digest0 {
            out.checks.every_round(
                "landed DB repeats every round",
                if d == d0 {
                    Ok("every round lands the same DB".into())
                } else {
                    Err(format!(
                        "round {round}: digest {d:016x}, first round {d0:016x}"
                    ))
                },
            );
        }
        if digest0.is_none() {
            digest0 = Some(d);
            out.util_mean_dist = ingest_checks::releases(
                &mut out.checks,
                &s.truth,
                &servers,
                &rf.db,
                &models,
                &eps,
                |_, t| model_of(t),
            )?;
        }
        if traced {
            traced_ns.push(ns as f64);
            let pass = replay::stream_pass(&s.stream, &s.gb, EPS, s.ingest_seed, &s.grid, tr)?;
            let users = s.truth.n_users();
            let spans0 = tr.spans().len();
            for (k, patient) in s.patients.iter().enumerate() {
                let from = (k + 1) * SWITCH_EVERY as usize * users;
                let to = (from + SWITCH_EVERY as usize * users).min(n);
                misses.push(ingest_checks::install(
                    &s.configurator,
                    patient,
                    &s.stream[from..to],
                    EPS,
                    tr,
                )?);
            }
            let install_ns: u64 = tr.spans()[spans0..]
                .iter()
                .filter(|sp| sp.parent.is_none())
                .map(|sp| sp.ns())
                .sum();
            residual.push(
                100.0 * (ns as f64 - (pass.release_ns + pass.land_ns + install_ns) as f64)
                    / ns as f64,
            );
            passes.push(pass);
        } else {
            untraced_ns.push(ns as f64);
        }
        round += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let rounds = u64::from(round);
    out.rounds = round;
    out.digest = digest0.unwrap_or_default();
    out.ops = vec![
        Op {
            kind: "reports",
            attempted: rounds * n as u64,
            failed: 0,
        },
        Op {
            kind: "policy_installs",
            attempted: rounds * installs as u64,
            failed: 0,
        },
        Op {
            kind: "refreshes",
            attempted: rounds * QUERIES_PER_ROUND as u64,
            failed: 0,
        },
        Op {
            kind: "contact_queries",
            attempted: rounds * (QUERIES_PER_ROUND * CONTACT_USERS) as u64,
            failed: 0,
        },
    ];
    out.ingest_rps = median(&rps);
    out.query_ms = median(&query_ns) / 1e6;
    out.trace_ms = median(&trace_ns) / 1e6;

    if args.trace {
        let mut routes = Vec::new();
        let mut rt = Tracer::new(true);
        routes.push(replay::route_pass(
            &s.stream,
            &s.gb,
            EPS,
            s.ingest_seed,
            &s.grid,
            &mut rt,
        )?);
        replay::set_stream_metrics(&passes, &routes, n, &rt, &mut out.layers);
        ingest_checks::query_metrics(&tracer, &mut out.layers);
        ingest_checks::install_metrics(&tracer, &misses, &mut out.layers);
        crate::trace_rounds::resend_probe(
            &s.truth,
            &s.configurator,
            PROBE_USERS,
            args.seed,
            &mut out.layers,
        )?;
        out.layers.set("trace.residual_pct", median(&residual));
        out.layers.set(
            "trace.overhead_pct",
            100.0 * (median(&traced_ns) - median(&untraced_ns)) / median(&untraced_ns),
        );
        tracer
            .write_jsonl(&crate::spans_path(args))
            .map_err(|e| format!("writing spans failed: {e}"))?;
    }
    Ok(out)
}
