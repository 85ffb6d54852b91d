//! Output checks and layer probes of the ingest workload (`policy_churn`).

use crate::layers::{self, span, Patient, Refresh};
use crate::model::{self, BlockModel};
use crate::report::{Checks, LayerSet};
use crate::trace::{median, Tracer};
use panda_core::PolicyIndex;
use panda_geo::CellId;
use panda_mobility::{Timestamp, TrajectoryDb, UserId};
use panda_surveillance::ingest::PendingReport;
use panda_surveillance::{ClientConfig, PolicyConfigurator, Server};
use std::sync::Arc;

/// Checks that hold after every round: every submitted report landed once
/// and the dashboard sums. Returns the digest of the round's landed DB.
pub fn every_round(
    checks: &mut Checks,
    round: u32,
    landed: usize,
    submitted: usize,
    rf: &Refresh,
    users: usize,
    horizon: Timestamp,
) -> u64 {
    checks.every_round(
        "reports landed = submitted",
        if landed == submitted {
            Ok(format!("{submitted} reports per round"))
        } else {
            Err(format!(
                "round {round}: {landed} landed, {submitted} submitted"
            ))
        },
    );
    checks.every_round(
        "dashboard sums",
        model::check_dashboard(&rf.occupancy, &rf.movement, rf.r0, users, horizon)
            .map(|()| "occupancy and movement sum to the population".into()),
    );
    model::digest(&rf.db)
}

/// Full release checks on one round's landed DB: every `(user, epoch)`
/// landed, every released cell inside the policy active at its epoch, the
/// mean distance and ring distribution against the closed form, and each
/// user's ε spend within the default client budget. Returns the mean
/// released-to-true distance (metres).
pub fn releases(
    checks: &mut Checks,
    truth: &TrajectoryDb,
    servers: &[Arc<Server>],
    db: &TrajectoryDb,
    models: &[BlockModel],
    eps: &[f64],
    model_of: impl Fn(UserId, Timestamp) -> usize,
) -> Result<f64, String> {
    let missing = truth
        .trajectories()
        .iter()
        .flat_map(|tr| (0..truth.horizon()).map(move |t| (tr.user, t)))
        .filter(|&(u, t)| servers.iter().all(|s| s.reported_cell(u, t).is_none()))
        .count();
    checks.add(
        "every (user, epoch) landed",
        if missing == 0 {
            Ok(format!(
                "{} users x {} epochs",
                truth.n_users(),
                truth.horizon()
            ))
        } else {
            Err(format!("{missing} (user, epoch) pairs missing"))
        },
    );
    let releases = model::pair_releases(truth, db, 0, truth.horizon(), &model_of)?;
    let report = model::check_releases(models, eps, &releases);
    checks.add(
        "released cells follow the policy in force",
        if report.passed() {
            Ok(report.summary())
        } else {
            Err(format!(
                "{} ({})",
                report.summary(),
                report.first_violation.clone().unwrap_or_default()
            ))
        },
    );
    let budget = ClientConfig::default().budget;
    let worst = truth
        .trajectories()
        .iter()
        .map(|tr| {
            (0..truth.horizon())
                .filter(|&t| {
                    let m = model_of(tr.user, t);
                    !models[m].is_isolated(tr.cells[t as usize])
                })
                .map(|t| eps[model_of(tr.user, t)])
                .sum::<f64>()
        })
        .fold(0.0, f64::max);
    checks.add(
        "per-user ε spend within the default budget",
        if worst <= budget {
            Ok(format!("largest spend {worst} of {budget}"))
        } else {
            Err(format!(
                "a user spends {worst}, over the budget of {budget}"
            ))
        },
    );
    Ok(report.mean_dist_m)
}

/// Sets the read-side metrics from the refresh and contact-query spans.
pub fn query_metrics(tracer: &Tracer, l: &mut LayerSet) {
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
        "surveillance.tracing.find_contacts_ms",
        ms(median(&tracer.per_round_totals(span::FIND_CONTACTS))),
    );
}

/// Cache misses of one fresh index.
#[derive(Debug, Clone, Copy)]
pub struct InstallMisses {
    pub tables: u64,
    pub rows: u64,
}

/// Replays one policy install: builds `Gc` for `patient` with
/// `update_on_diagnosis`, touches each component the period's cells meet
/// once, and builds each of those cells' sampling tables on the fresh
/// index.
pub fn install(
    configurator: &PolicyConfigurator,
    patient: &Patient,
    period: &[PendingReport],
    eps: f64,
    tr: &mut Tracer,
) -> Result<InstallMisses, String> {
    let gc = tr.time(span::BUILD, || {
        configurator.update_on_diagnosis(&patient.history)
    });
    let index = PolicyIndex::new(gc);
    let mut cells: Vec<CellId> = period.iter().map(|r| r.cell).collect();
    cells.sort_unstable();
    cells.dedup();
    layers::first_touch(&index, &cells, tr);
    layers::cold_tables(&index, &cells, eps, tr)?;
    Ok(InstallMisses {
        tables: index.distribution_cache_stats().misses,
        rows: index.row_cache_stats().misses,
    })
}

/// Sets the policy-install metrics from the install spans and misses.
pub fn install_metrics(tracer: &Tracer, misses: &[InstallMisses], l: &mut LayerSet) {
    l.set(
        "core.policy.build_ms",
        median(&tracer.durations(span::BUILD)) / 1e6,
    );
    l.set(
        "graph.distances.first_touch_ms",
        median(&tracer.durations(span::FIRST_TOUCH)) / 1e6,
    );
    l.set(
        "core.index.cold_table_us",
        median(&tracer.durations(span::COLD_TABLE)) / 1e3,
    );
    let per = |f: fn(&InstallMisses) -> u64| {
        misses.iter().map(f).sum::<u64>() as f64 / misses.len().max(1) as f64
    };
    l.set("core.index.table_misses_per_switch", per(|m| m.tables));
    l.set("core.index.row_misses_per_switch", per(|m| m.rows));
}
