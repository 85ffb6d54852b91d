//! `trace_rounds`: dashboard refreshes and §3.2 contact-tracing rounds over
//! a server that already holds a population's routine reports.
//!
//! Set-up lands every client's routine reports through `Client::report`.
//! Each round then serves one dashboard refresh (`Server::reported_db`,
//! area occupancy, the movement matrix and the contact-based R0) followed
//! by one `dynamic_trace` round: the patient discloses, the configurator
//! builds `Gc`, every other client re-sends its window under `Gc`, and the
//! contact rule runs on the server's view.
//!
//! Every round starts from the client state set-up left (the cohort is
//! rebuilt, untimed, before the round), so no client's budget runs dry,
//! no re-send is cut short and every round does the same work. Round `r`
//! traces patient `r mod PATIENTS` with an RNG keyed by that index, so the
//! landed database after a round is a pure function of the seed and the
//! patient, whatever the run length.

use crate::layers::{self, span, Patient};
use crate::model::{self, BlockModel, Release};
use crate::replay;
use crate::report::{LayerSet, Op, Outcome};
use crate::trace::{median, Tracer};
use crate::Args;
use panda_core::{GraphExponential, LocationPolicyGraph, PolicyIndex};
use panda_geo::{CellId, GridMap};
use panda_mobility::{Timestamp, TrajectoryDb, UserId};
use panda_surveillance::protocol::ResendRequest;
use panda_surveillance::tracing::dynamic_trace;
use panda_surveillance::{
    Client, ClientConfig, ContactRule, ContactTracer, PolicyConfigurator, Server, TraceOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const GRID: u32 = 32;
const CELL_M: f64 = 500.0;
const USERS: u32 = 1000;
const DAYS: u32 = 2;
/// `Ga` blocks (the dashboard's areas) and `Gb` blocks (the clients'
/// policy), in cells.
const COARSE: u32 = 16;
const FINE: u32 = 8;
/// ε per routine report and per re-sent epoch. With the default budget of
/// 50, a client's 48 routine reports (24) plus one 24-epoch re-send (24)
/// always fit.
pub const EPS_ROUTINE: f64 = 0.5;
pub const EPS_RESEND: f64 = 1.0;
/// Patients traced in turn.
const PATIENTS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Clients holding `truth`'s trajectories under `policy`, each charged for
/// its routine reports of every epoch (what `Client::report` at set-up
/// spent).
fn cohort(truth: &TrajectoryDb, policy: &LocationPolicyGraph, charge_routine: bool) -> Vec<Client> {
    truth
        .trajectories()
        .iter()
        .map(|tr| {
            let mut c = Client::new(
                tr.user,
                ClientConfig::default(),
                policy.clone(),
                Box::new(GraphExponential),
                EPS_ROUTINE,
            );
            for (t, &cell) in tr.cells.iter().enumerate() {
                c.observe(t as Timestamp, cell);
            }
            if charge_routine {
                c.plan_routine(truth.horizon());
            }
            c
        })
        .collect()
}

/// Every client reports every epoch through `Client::report`; the reports
/// land on `server`. Returns the reports landed.
fn report_routine(
    clients: &mut [Client],
    server: &Server,
    horizon: Timestamp,
    rng: &mut StdRng,
) -> Result<usize, String> {
    let mut landed = 0;
    for c in clients.iter_mut() {
        let reports = (0..horizon)
            .map(|t| c.report(t, rng))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("routine report of user {} failed: {e}", c.user()))?;
        landed += reports.len();
        server.receive_batch(reports);
    }
    Ok(landed)
}

/// The steps of `dynamic_trace`, one public call at a time, each inside a
/// span. Consumes the RNG exactly as `dynamic_trace` does, so both land the
/// same database. The fresh `Gc`'s components are touched once through
/// `PolicyIndex::distance` before the re-sends (`window_cells` are the
/// cells the re-sends will meet), which moves the distance-table builds out
/// of the first client's re-send into their own spans.
#[allow(clippy::too_many_arguments)]
pub fn replay_round(
    clients: &mut [Client],
    server: &Server,
    configurator: &PolicyConfigurator,
    truth: &TrajectoryDb,
    patient: UserId,
    window: (Timestamp, Timestamp),
    window_cells: &[CellId],
    rng: &mut StdRng,
    tr: &mut Tracer,
) -> Result<TraceOutcome, String> {
    let (from, to) = window;
    let patient_client = clients
        .iter_mut()
        .find(|c| c.user() == patient)
        .ok_or("patient client missing")?;
    let disclose = LocationPolicyGraph::isolated(configurator.grid().clone());
    let request = ResendRequest {
        user: patient,
        from,
        to,
        policy: disclose,
        eps_per_epoch: EPS_RESEND,
    };
    let patient_reports = tr
        .time(span::RESEND, || patient_client.handle_resend(&request, rng))
        .map_err(|e| format!("patient disclosure failed: {e}"))?;
    let history: Vec<(Timestamp, CellId)> =
        patient_reports.iter().map(|r| (r.epoch, r.cell)).collect();
    tr.time(span::RESEND_LAND, || {
        server.receive_all(patient_reports.iter().copied())
    });
    server.record_diagnosis(patient, to);
    server.record_infected_visits(&history);
    let gc = tr.time(span::BUILD, || configurator.update_on_diagnosis(&history));
    layers::first_touch(&PolicyIndex::new(gc.clone()), window_cells, tr);
    let mut resend_count = 0;
    for client in clients.iter_mut().filter(|c| c.user() != patient) {
        let request = ResendRequest {
            user: client.user(),
            from,
            to,
            policy: gc.clone(),
            eps_per_epoch: EPS_RESEND,
        };
        let reports = tr
            .time(span::RESEND, || client.handle_resend(&request, rng))
            .map_err(|e| format!("re-send of user {} failed: {e}", client.user()))?;
        resend_count += reports.len();
        tr.time(span::RESEND_LAND, || server.receive_all(reports));
    }
    let tracer = ContactTracer {
        rule: ContactRule::default(),
    };
    let reported = tr.time(span::REPORTED_DB, || server.reported_db(to));
    let flagged = tr.time(span::FIND_CONTACTS, || {
        tracer.find_contacts(&reported, patient, &history, from, to)
    });
    let true_history = model::history(truth, patient, from, to);
    let ground_truth = tr.time(span::FIND_CONTACTS, || {
        tracer.find_contacts(truth, patient, &true_history, from, to)
    });
    Ok(TraceOutcome::evaluate(flagged, ground_truth, resend_count))
}

/// Distinct true cells of every user over `[from, to)`.
fn window_cells(truth: &TrajectoryDb, from: Timestamp, to: Timestamp) -> Vec<CellId> {
    let mut cells: Vec<CellId> = truth
        .trajectories()
        .iter()
        .flat_map(|tr| tr.cells[from as usize..to as usize].iter().copied())
        .collect();
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// One replayed tracing round over a small cohort of `truth`'s first
/// users, for workloads whose own path has no re-sends. The cohort reports
/// its routine epochs, then re-sends the second half of the horizon; sets
/// the re-send metrics.
pub fn resend_probe(
    truth: &TrajectoryDb,
    configurator: &PolicyConfigurator,
    users: usize,
    seed: u64,
    l: &mut LayerSet,
) -> Result<(), String> {
    let sub = TrajectoryDb::new(truth.grid().clone(), truth.trajectories()[..users].to_vec());
    let horizon = sub.horizon();
    let server = Server::new(sub.grid().clone());
    let mut clients = cohort(&sub, &configurator.for_analysis(), false);
    let mut rng = StdRng::seed_from_u64(model::sub_seed(seed, 7));
    report_routine(&mut clients, &server, horizon, &mut rng)?;
    let window = (horizon / 2, horizon);
    let cells = window_cells(&sub, window.0, window.1);
    let patient = sub.trajectories()[0].user;
    let mut tr = Tracer::new(true);
    let outcome = replay_round(
        &mut clients,
        &server,
        configurator,
        &sub,
        patient,
        window,
        &cells,
        &mut rng,
        &mut tr,
    )?;
    l.set(
        "surveillance.client.resend_ms",
        tr.per_round_totals(span::RESEND).iter().sum::<f64>() / 1e6,
    );
    l.set(
        "surveillance.server.resend_land_ms",
        tr.per_round_totals(span::RESEND_LAND).iter().sum::<f64>() / 1e6,
    );
    l.set(
        "surveillance.client.resends_per_round",
        outcome.resend_count as f64,
    );
    Ok(())
}

struct Setup {
    truth: TrajectoryDb,
    grid: GridMap,
    configurator: PolicyConfigurator,
    gb: LocationPolicyGraph,
    server: Arc<Server>,
    patients: Vec<Patient>,
    window_cells: Vec<CellId>,
    routine_landed: usize,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let truth = model::population(seed, GRID, CELL_M, USERS, DAYS);
    let grid = truth.grid().clone();
    let horizon = truth.horizon();
    let configurator = PolicyConfigurator::new(grid.clone(), COARSE, FINE);
    let gb = configurator.for_analysis();
    let server = Arc::new(Server::new(grid.clone()));
    let mut clients = cohort(&truth, &gb, false);
    let mut rng = StdRng::seed_from_u64(model::sub_seed(seed, 4));
    let routine_landed = report_routine(&mut clients, &server, horizon, &mut rng)?;
    let window = window();
    let patients = model::shuffled_users(&truth, seed)[..PATIENTS]
        .iter()
        .map(|&user| Patient {
            user,
            history: model::history(&truth, user, window.0, window.1),
        })
        .collect();
    let window_cells = window_cells(&truth, window.0, window.1);
    Ok(Setup {
        truth,
        grid,
        configurator,
        gb,
        server,
        patients,
        window_cells,
        routine_landed,
    })
}

fn window() -> (Timestamp, Timestamp) {
    let horizon = DAYS * model::EPOCHS_PER_DAY;
    (horizon / 2, horizon)
}

/// Checks every landed report of the database after a round traced
/// `patient`: routine epochs under `Gb`, the window exact for the patient
/// and under `Gc` for everyone else.
fn check_landed(
    s: &Setup,
    db: &TrajectoryDb,
    patient: &Patient,
) -> Result<model::ReleaseReport, String> {
    let (from, _) = window();
    let gc_cells = model::distinct_cells(&patient.history);
    let models = [
        BlockModel::new(&s.grid, FINE, &[]),
        BlockModel::exact(&s.grid),
        BlockModel::new(&s.grid, FINE, &gc_cells),
    ];
    let eps = [EPS_ROUTINE, EPS_RESEND, EPS_RESEND];
    let releases: Vec<Release> =
        model::pair_releases(&s.truth, db, 0, s.truth.horizon(), |u, t| {
            if t < from {
                0
            } else if u == patient.user {
                1
            } else {
                2
            }
        })?;
    let report = model::check_releases(&models, &eps, &releases);
    if report.passed() {
        Ok(report)
    } else {
        Err(format!(
            "{} ({})",
            report.summary(),
            report.first_violation.clone().unwrap_or_default()
        ))
    }
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
    let users = s.truth.n_users();
    let window = window();
    out.checks.add(
        "routine reports landed",
        if s.routine_landed == users * horizon as usize && s.server.n_received() == s.routine_landed
        {
            Ok(format!("{} reports", s.routine_landed))
        } else {
            Err(format!(
                "{} of {} landed",
                s.server.n_received(),
                users * horizon as usize
            ))
        },
    );

    let mut tracer = Tracer::new(args.trace);
    let mut off = Tracer::new(false);
    let mut digests: Vec<u64> = Vec::new();
    let (mut query_ns, mut trace_ns, mut landed_rps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ns, mut untraced_ns, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    let mut resends_per_round = 0usize;
    let expected_resends = (users - 1) * (window.1 - window.0) as usize;
    let deadline = Instant::now() + std::time::Duration::from_secs(args.seconds);
    let mut round: u32 = 0;
    let mut received_before = s.server.n_received();
    loop {
        // Whole cycles of patients, so every run repeats the same rounds. A
        // traced run alternates whole cycles, so each patient's replayed
        // rounds are compared with the digest `dynamic_trace` landed.
        let traced = args.trace && (round as usize / PATIENTS) % 2 == 1;
        for k in 0..PATIENTS {
            let tr = if traced { &mut tracer } else { &mut off };
            tr.set_round(round);
            let patient = &s.patients[k];
            let mut clients = cohort(&s.truth, &s.gb, true);
            let mut rng = StdRng::seed_from_u64(model::sub_seed(args.seed, 100 + k as u64));

            let t0 = Instant::now();
            let rf = layers::refresh(
                std::slice::from_ref(&s.server),
                &s.grid,
                horizon,
                COARSE,
                tr,
            );
            let refresh_ns = t0.elapsed().as_nanos() as f64;
            out.checks.every_round(
                "dashboard sums",
                model::check_dashboard(&rf.occupancy, &rf.movement, rf.r0, users, horizon)
                    .map(|()| "occupancy and movement sum to the population".into()),
            );
            drop(rf);

            let t1 = Instant::now();
            let outcome = if traced {
                replay_round(
                    &mut clients,
                    &s.server,
                    &s.configurator,
                    &s.truth,
                    patient.user,
                    window,
                    &s.window_cells,
                    &mut rng,
                    tr,
                )?
            } else {
                dynamic_trace(
                    &mut clients,
                    &s.server,
                    &s.configurator,
                    &s.truth,
                    patient.user,
                    window,
                    EPS_RESEND,
                    ContactRule::default(),
                    &mut rng,
                )
            };
            let round_ns = t1.elapsed().as_nanos() as f64;
            let landed = s.server.n_received() - received_before;
            received_before = s.server.n_received();
            query_ns.push(refresh_ns);
            trace_ns.push(round_ns);
            landed_rps.push(landed as f64 / (round_ns / 1e9));
            if traced {
                traced_ns.push(refresh_ns + round_ns);
                let covered: u64 = [
                    span::REPORTED_DB,
                    span::DASHBOARD,
                    span::R0,
                    span::RESEND,
                    span::RESEND_LAND,
                    span::BUILD,
                    span::FIRST_TOUCH,
                    span::FIND_CONTACTS,
                ]
                .iter()
                .map(|n| tr.round_total(n, round))
                .sum();
                residual.push(
                    100.0 * (refresh_ns + round_ns - covered as f64) / (refresh_ns + round_ns),
                );
            } else {
                untraced_ns.push(refresh_ns + round_ns);
            }

            // Output checks.
            let brute = model::brute_force_contacts(
                &s.truth,
                patient.user,
                window.0,
                window.1,
                ContactRule::default().min_co_occurrences,
            );
            out.checks.every_round(
                "contacts = brute-force rule on true trajectories",
                if outcome.flagged == brute && outcome.ground_truth == brute {
                    Ok(format!(
                        "patient {} flagged {} contacts",
                        patient.user,
                        brute.len()
                    ))
                } else {
                    Err(format!(
                        "round {round}: flagged {:?}, brute force {:?}",
                        outcome.flagged, brute
                    ))
                },
            );
            out.checks.every_round(
                "every client re-sent its whole window",
                if outcome.resend_count == expected_resends && landed == expected_resends + (window.1 - window.0) as usize {
                    Ok(format!("{expected_resends} re-sends per round"))
                } else {
                    Err(format!(
                        "round {round}: {} re-sends and {landed} landed, expected {expected_resends} re-sends",
                        outcome.resend_count
                    ))
                },
            );
            resends_per_round = outcome.resend_count;
            let db = s.server.reported_db(horizon);
            let d = model::digest(&db);
            if digests.len() < PATIENTS {
                digests.push(d);
                let checked = check_landed(&s, &db, patient);
                if let Ok(r) = &checked {
                    if k == 0 {
                        out.util_mean_dist = r.mean_dist_m;
                    }
                }
                out.checks.every_round(
                    "released cells follow the policy in force",
                    checked.map(|r| r.summary()),
                );
            } else {
                out.checks.every_round(
                    "landed DB repeats per patient",
                    if d == digests[k] {
                        Ok("every round of a patient lands the same DB".into())
                    } else {
                        Err(format!(
                            "round {round}: digest {d:016x}, first round of this patient {:016x}",
                            digests[k]
                        ))
                    },
                );
            }
            round += 1;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let rounds = u64::from(round);
    out.rounds = round;
    out.digest = digests.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &d| {
        (h ^ d).wrapping_mul(0x0100_0000_01b3)
    });
    out.ops = vec![
        Op {
            kind: "refreshes",
            attempted: rounds,
            failed: 0,
        },
        Op {
            kind: "tracing_rounds",
            attempted: rounds,
            failed: 0,
        },
        Op {
            kind: "policy_installs",
            attempted: rounds,
            failed: 0,
        },
        Op {
            kind: "reports",
            attempted: rounds * (expected_resends + (window.1 - window.0) as usize) as u64,
            failed: 0,
        },
    ];
    out.query_ms = median(&query_ns) / 1e6;
    out.trace_ms = median(&trace_ns) / 1e6;
    out.ingest_rps = median(&landed_rps);

    if args.trace {
        layer_metrics(&s, &mut out, &tracer, args.seed, resends_per_round)?;
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

/// Per-layer metrics: the traced rounds' own spans, plus the routine
/// stream replayed through the wire, router, pipeline, release and landing
/// layers, and one fresh `Gc` index's cold tables.
fn layer_metrics(
    s: &Setup,
    out: &mut Outcome,
    tracer: &Tracer,
    seed: u64,
    resends_per_round: usize,
) -> Result<(), String> {
    let l = &mut out.layers;
    let ms = |v: f64| v / 1e6;
    l.set(
        "surveillance.server.reported_db_ms",
        ms(median(&tracer.durations(span::REPORTED_DB))),
    );
    l.set(
        "surveillance.monitoring.dashboard_ms",
        ms(median(&tracer.durations(span::DASHBOARD))),
    );
    l.set(
        "surveillance.analysis.r0_ms",
        ms(median(&tracer.durations(span::R0))),
    );
    l.set(
        "surveillance.client.resend_ms",
        ms(median(&tracer.per_round_totals(span::RESEND))),
    );
    l.set(
        "surveillance.server.resend_land_ms",
        ms(median(&tracer.per_round_totals(span::RESEND_LAND))),
    );
    l.set(
        "surveillance.client.resends_per_round",
        resends_per_round as f64,
    );
    l.set(
        "surveillance.tracing.find_contacts_ms",
        ms(median(&tracer.per_round_totals(span::FIND_CONTACTS))),
    );
    l.set(
        "core.policy.build_ms",
        ms(median(&tracer.durations(span::BUILD))),
    );
    l.set(
        "graph.distances.first_touch_ms",
        ms(median(&tracer.durations(span::FIRST_TOUCH))),
    );

    // The routine stream through the ingest layers, under a warm Gb index.
    let stream = model::epoch_stream(&s.truth, 0, s.truth.horizon());
    let index = Arc::new(PolicyIndex::new(s.gb.clone()));
    replay::warm(&index, &s.grid, EPS_ROUTINE)?;
    let mut rt = Tracer::new(true);
    let ingest_seed = model::sub_seed(seed, 3);
    let pass = replay::stream_pass(&stream, &index, EPS_ROUTINE, ingest_seed, &s.grid, &mut rt)?;
    let route = replay::route_pass(&stream, &index, EPS_ROUTINE, ingest_seed, &s.grid, &mut rt)?;
    replay::set_stream_metrics(&[pass], &[route], stream.len(), &rt, l);
    // A fresh Gc index's cold tables over the window's cells.
    let gc = s.configurator.update_on_diagnosis(&s.patients[0].history);
    let fresh = PolicyIndex::new(gc);
    layers::cold_tables(&fresh, &s.window_cells, EPS_RESEND, &mut rt)?;
    l.set(
        "core.index.cold_table_us",
        median(&rt.durations(span::COLD_TABLE)) / 1e3,
    );
    l.set(
        "core.index.table_misses_per_switch",
        fresh.distribution_cache_stats().misses as f64,
    );
    l.set(
        "core.index.row_misses_per_switch",
        fresh.row_cache_stats().misses as f64,
    );
    Ok(())
}
