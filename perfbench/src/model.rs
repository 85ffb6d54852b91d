//! Inputs and output checks shared by the workloads.
//!
//! Everything a check compares against is computed here, by the benchmark,
//! from the definitions: block membership from cell coordinates, the
//! graph-exponential output law from `Pr[z] ∝ exp(−ε·d_G(s, z)/2)` with
//! `d_G` = 0 on the true cell and 1 elsewhere in its clique block, and the
//! contact rule from a brute-force co-location count over the true
//! trajectories. No check reads stored output.

use panda_geo::{CellId, GridMap};
use panda_mobility::geolife_like::{beijing_grid, generate_geolife_like, GeoLifeLikeConfig};
use panda_mobility::{Timestamp, TrajectoryDb, UserId};
use panda_surveillance::ingest::PendingReport;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Epochs per simulated day (hourly reports).
pub const EPOCHS_PER_DAY: u32 = 24;

/// Reports per wire frame and per in-process batch.
pub const FRAME: usize = 256;

/// Independent sub-seeds of one `--seed`, so each random input has its own
/// stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    panda_core::release::splitmix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A GeoLife-like population on an `n × n` Beijing-anchored grid.
pub fn population(seed: u64, n: u32, cell_m: f64, users: u32, days: u32) -> TrajectoryDb {
    let grid = beijing_grid(n, cell_m);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    let config = GeoLifeLikeConfig {
        n_users: users,
        days,
        epochs_per_day: EPOCHS_PER_DAY,
        ..GeoLifeLikeConfig::default()
    };
    generate_geolife_like(&mut rng, &grid, &config)
}

/// Every user's true cell for each epoch in `[from, to)`, epoch-major (all
/// users of epoch `t` before any report of `t + 1`): the order a population
/// reporting every epoch produces.
pub fn epoch_stream(truth: &TrajectoryDb, from: Timestamp, to: Timestamp) -> Vec<PendingReport> {
    let mut out = Vec::with_capacity(truth.n_users() * (to - from) as usize);
    for t in from..to {
        for tr in truth.trajectories() {
            out.push(PendingReport {
                user: tr.user,
                epoch: t,
                cell: tr.cells[t as usize],
                resend: false,
            });
        }
    }
    out
}

/// A user's true `(epoch, cell)` history over `[from, to)`.
pub fn history(
    truth: &TrajectoryDb,
    user: UserId,
    from: Timestamp,
    to: Timestamp,
) -> Vec<(Timestamp, CellId)> {
    (from..to)
        .map(|t| (t, truth.cell_of(user, t).expect("user in population")))
        .collect()
}

/// The population's users in an order shuffled by the seed: diagnoses and
/// contact queries take users from its front.
pub fn shuffled_users(truth: &TrajectoryDb, seed: u64) -> Vec<UserId> {
    let mut users: Vec<UserId> = truth.trajectories().iter().map(|t| t.user).collect();
    users.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, 2)));
    users
}

/// The distinct cells of a history — what a diagnosis isolates.
pub fn distinct_cells(history: &[(Timestamp, CellId)]) -> Vec<CellId> {
    let mut cells: Vec<CellId> = history.iter().map(|&(_, c)| c).collect();
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// The benchmark's own model of a clique-partition policy (`Ga`, `Gb`) with
/// some cells isolated (`Gc`), used to check what the program released.
#[derive(Debug, Clone)]
pub struct BlockModel {
    width: u32,
    height: u32,
    cell_m: f64,
    block: u32,
    isolated: Vec<bool>,
}

/// First two moments of the released-to-true distance of one true cell.
#[derive(Debug, Clone, Copy)]
struct Moments {
    mean: f64,
    var: f64,
}

impl BlockModel {
    pub fn new(grid: &GridMap, block: u32, isolated: &[CellId]) -> Self {
        let mut flags = vec![false; grid.n_cells() as usize];
        for c in isolated {
            flags[c.0 as usize] = true;
        }
        BlockModel {
            width: grid.width(),
            height: grid.height(),
            cell_m: grid.cell_size(),
            block,
            isolated: flags,
        }
    }

    /// All cells released exactly (the identity policy of a disclosing
    /// patient).
    pub fn exact(grid: &GridMap) -> Self {
        BlockModel {
            width: grid.width(),
            height: grid.height(),
            cell_m: grid.cell_size(),
            block: 1,
            isolated: vec![true; grid.n_cells() as usize],
        }
    }

    fn xy(&self, c: u32) -> (u32, u32) {
        (c % self.width, c / self.width)
    }

    fn block_of(&self, c: u32) -> (u32, u32) {
        let (x, y) = self.xy(c);
        (x / self.block, y / self.block)
    }

    pub fn is_isolated(&self, c: CellId) -> bool {
        self.isolated[c.0 as usize]
    }

    /// The release support of true cell `c`: itself when isolated,
    /// otherwise the non-isolated cells of its block.
    fn support(&self, c: u32) -> Vec<u32> {
        if self.isolated[c as usize] {
            return vec![c];
        }
        let (bx, by) = self.block_of(c);
        let mut cells = Vec::new();
        for y in by * self.block..((by + 1) * self.block).min(self.height) {
            for x in bx * self.block..((bx + 1) * self.block).min(self.width) {
                let z = y * self.width + x;
                if !self.isolated[z as usize] {
                    cells.push(z);
                }
            }
        }
        cells
    }

    /// Whether releasing `released` for true cell `truth` stays inside the
    /// policy: same block and not onto an isolated cell, or exact for an
    /// isolated true cell.
    pub fn admits(&self, truth: CellId, released: CellId) -> bool {
        if self.isolated[truth.0 as usize] {
            released == truth
        } else {
            !self.isolated[released.0 as usize]
                && self.block_of(truth.0) == self.block_of(released.0)
        }
    }

    /// Euclidean distance between cell centres, in metres.
    pub fn dist_m(&self, a: CellId, b: CellId) -> f64 {
        let (ax, ay) = self.xy(a.0);
        let (bx, by) = self.xy(b.0);
        let dx = f64::from(ax) - f64::from(bx);
        let dy = f64::from(ay) - f64::from(by);
        self.cell_m * (dx * dx + dy * dy).sqrt()
    }

    /// Graph-exponential weights over the support of `c`: 1 on `c` itself,
    /// `exp(−ε/2)` on every other support cell (they are all one hop away in
    /// the clique).
    fn weights(&self, c: u32, eps: f64) -> Vec<(u32, f64)> {
        let w = (-eps / 2.0).exp();
        self.support(c)
            .into_iter()
            .map(|z| (z, if z == c { 1.0 } else { w }))
            .collect()
    }

    fn moments(&self, c: CellId, eps: f64) -> Moments {
        let weights = self.weights(c.0, eps);
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        let (mut m1, mut m2) = (0.0, 0.0);
        for (z, w) in weights {
            let d = self.dist_m(c, CellId(z));
            m1 += w * d;
            m2 += w * d * d;
        }
        let mean = m1 / total;
        Moments {
            mean,
            var: (m2 / total - mean * mean).max(0.0),
        }
    }

    /// Probabilities of the Chebyshev rings `0, 1, 2, …` (in cells) around
    /// `c` under the closed form.
    fn ring_probabilities(&self, c: CellId, eps: f64) -> Vec<f64> {
        let weights = self.weights(c.0, eps);
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        let mut rings = Vec::new();
        for (z, w) in weights {
            let r = self.ring(c, CellId(z));
            if rings.len() <= r {
                rings.resize(r + 1, 0.0);
            }
            rings[r] += w / total;
        }
        rings
    }

    fn ring(&self, a: CellId, b: CellId) -> usize {
        let (ax, ay) = self.xy(a.0);
        let (bx, by) = self.xy(b.0);
        ax.abs_diff(bx).max(ay.abs_diff(by)) as usize
    }
}

/// One landed report seen by the checks: the policy model active at its
/// epoch, its ε, the true cell and the released cell.
#[derive(Debug, Clone, Copy)]
pub struct Release {
    pub model: usize,
    pub truth: CellId,
    pub released: CellId,
}

/// What the release checks found.
#[derive(Debug, Clone, Default)]
pub struct ReleaseReport {
    pub n: usize,
    pub violations: usize,
    pub first_violation: Option<String>,
    /// Mean released-to-true distance, metres.
    pub mean_dist_m: f64,
    /// Closed-form expectation of that mean.
    pub expected_dist_m: f64,
    /// Deviation in standard errors of the closed form.
    pub z: f64,
    /// Releases onto the true cell itself against the closed form's
    /// `1 / (1 + (k − 1)·exp(−ε/2))` per release, in standard errors: the
    /// ratio GEM fixes between staying and moving one hop.
    pub stay_z: f64,
    /// Chi-square of the busiest true cells' ring counts, pooled.
    pub chi2: f64,
    pub chi2_df: usize,
    pub chi2_critical: f64,
    /// Chi-square of the ring counts of every release against the sum of
    /// each release's ring probabilities — the high-power test of the law.
    pub ring_chi2: f64,
    pub ring_df: usize,
    pub ring_critical: f64,
}

/// Standard errors the observed mean distance may stray from the closed
/// form before the check fails (two-sided p ≈ 2·10⁻⁹ for a correct
/// sampler).
pub const MEAN_TOLERANCE_SE: f64 = 6.0;

/// Standard-normal quantile of the chi-square test's false-alarm rate
/// (p ≈ 10⁻⁶).
const CHI2_Z: f64 = 4.753;

/// True cells (the busiest non-isolated ones) whose released distribution
/// the chi-square test compares with the closed form.
const CHI2_CELLS: usize = 8;

/// Smallest expected count of a chi-square bin; sparser rings are merged
/// outward.
const CHI2_MIN_EXPECTED: f64 = 5.0;

impl ReleaseReport {
    pub fn passed(&self) -> bool {
        self.violations == 0
            && self.z.abs() <= MEAN_TOLERANCE_SE
            && self.stay_z.abs() <= MEAN_TOLERANCE_SE
            && (self.chi2_df == 0 || self.chi2 <= self.chi2_critical)
            && (self.ring_df == 0 || self.ring_chi2 <= self.ring_critical)
    }

    pub fn summary(&self) -> String {
        format!(
            "releases={} violations={} mean_dist_m={:.3} expected_m={:.3} z={:.3} stay_z={:.3} busiest-cells chi2={:.2}/df={} (critical {:.2}) all-releases chi2={:.2}/df={} (critical {:.2})",
            self.n,
            self.violations,
            self.mean_dist_m,
            self.expected_dist_m,
            self.z,
            self.stay_z,
            self.chi2,
            self.chi2_df,
            self.chi2_critical,
            self.ring_chi2,
            self.ring_df,
            self.ring_critical
        )
    }
}

/// Checks landed reports against the models (`models[i]` released at
/// `eps[i]`): containment of every release, the mean distance against the
/// closed-form expectation, and a pooled chi-square over Chebyshev rings on
/// the busiest true cells.
pub fn check_releases(models: &[BlockModel], eps: &[f64], releases: &[Release]) -> ReleaseReport {
    let mut report = ReleaseReport {
        n: releases.len(),
        ..ReleaseReport::default()
    };
    let mut memo: BTreeMap<(usize, u32), (Moments, Vec<f64>)> = BTreeMap::new();
    // Per model: expected and observed releases per Chebyshev ring.
    let mut pooled: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); models.len()];
    let (mut sum_d, mut sum_mean, mut sum_var) = (0.0, 0.0, 0.0);
    let (mut stays, mut stay_mean, mut stay_var) = (0.0, 0.0, 0.0);
    // (model, true cell) → released cells, for the chi-square.
    let mut by_cell: BTreeMap<(usize, u32), Vec<CellId>> = BTreeMap::new();
    for r in releases {
        let model = &models[r.model];
        if !model.admits(r.truth, r.released) {
            report.violations += 1;
            if report.first_violation.is_none() {
                report.first_violation = Some(format!(
                    "model {} released cell {} for true cell {}",
                    r.model, r.released.0, r.truth.0
                ));
            }
        }
        let (m, rings) = memo.entry((r.model, r.truth.0)).or_insert_with(|| {
            (
                model.moments(r.truth, eps[r.model]),
                model.ring_probabilities(r.truth, eps[r.model]),
            )
        });
        sum_d += model.dist_m(r.truth, r.released);
        sum_mean += m.mean;
        sum_var += m.var;
        if !model.is_isolated(r.truth) {
            let (expected, observed) = &mut pooled[r.model];
            if expected.len() < rings.len() {
                expected.resize(rings.len(), 0.0);
                observed.resize(rings.len(), 0.0);
            }
            for (e, p) in expected.iter_mut().zip(rings.iter()) {
                *e += p;
            }
            let ring = model.ring(r.truth, r.released);
            if ring < observed.len() {
                observed[ring] += 1.0;
            }
            let p0 = rings[0];
            stays += f64::from(u8::from(ring == 0));
            stay_mean += p0;
            stay_var += p0 * (1.0 - p0);
            by_cell
                .entry((r.model, r.truth.0))
                .or_default()
                .push(r.released);
        }
    }
    if !releases.is_empty() {
        let n = releases.len() as f64;
        report.mean_dist_m = sum_d / n;
        report.expected_dist_m = sum_mean / n;
        report.stay_z = if stay_var > 0.0 {
            (stays - stay_mean) / stay_var.sqrt()
        } else {
            0.0
        };
        report.z = if sum_var > 0.0 {
            (sum_d - sum_mean) / sum_var.sqrt()
        } else if sum_d == sum_mean {
            0.0
        } else {
            f64::INFINITY
        };
    }
    // Chi-square on the busiest true cells.
    let mut busiest: Vec<(&(usize, u32), &Vec<CellId>)> = by_cell.iter().collect();
    busiest.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
    for (&(model_id, cell), released) in busiest.into_iter().take(CHI2_CELLS) {
        let model = &models[model_id];
        let truth = CellId(cell);
        let probs = model.ring_probabilities(truth, eps[model_id]);
        let mut observed = vec![0.0; probs.len()];
        for &z in released {
            observed[model.ring(truth, z)] += 1.0;
        }
        let n = released.len() as f64;
        let expected: Vec<f64> = probs.iter().map(|p| p * n).collect();
        if let Some((stat, df)) = chi2(&expected, &observed) {
            report.chi2 += stat;
            report.chi2_df += df;
        }
    }
    for (expected, observed) in &pooled {
        if let Some((stat, df)) = chi2(expected, observed) {
            report.ring_chi2 += stat;
            report.ring_df += df;
        }
    }
    report.chi2_critical = chi2_critical(report.chi2_df);
    report.ring_critical = chi2_critical(report.ring_df);
    report
}

/// Pearson's statistic over ring bins, merging rings outward until each
/// bin expects [`CHI2_MIN_EXPECTED`] draws; `None` with fewer than two bins.
fn chi2(expected: &[f64], observed: &[f64]) -> Option<(f64, usize)> {
    let mut bins: Vec<(f64, f64)> = Vec::new();
    let (mut o, mut e) = (0.0, 0.0);
    for (exp, obs) in expected.iter().zip(observed) {
        o += obs;
        e += exp;
        if e >= CHI2_MIN_EXPECTED {
            bins.push((o, e));
            o = 0.0;
            e = 0.0;
        }
    }
    if e > 0.0 || o > 0.0 {
        match bins.last_mut() {
            Some(last) => {
                last.0 += o;
                last.1 += e;
            }
            None => bins.push((o, e)),
        }
    }
    (bins.len() >= 2).then(|| {
        let stat = bins.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
        (stat, bins.len() - 1)
    })
}

/// The chi-square quantile at the false-alarm rate of [`CHI2_Z`]
/// (Wilson–Hilferty approximation); 0 for no degrees of freedom.
fn chi2_critical(df: usize) -> f64 {
    if df == 0 {
        return 0.0;
    }
    let k = df as f64;
    let a = 2.0 / (9.0 * k);
    k * (1.0 - a + CHI2_Z * a.sqrt()).powi(3)
}

/// FNV-1a digest of a landed database: every user's released cell at every
/// epoch, in user order.
pub fn digest(db: &TrajectoryDb) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for tr in db.trajectories() {
        eat(tr.user.0);
        for c in &tr.cells {
            eat(c.0);
        }
    }
    h
}

/// Pairs each landed report with its true cell, failing when a report is
/// missing or a user is unknown. `model_of(user, epoch)` names the policy
/// model active for that report.
pub fn pair_releases(
    truth: &TrajectoryDb,
    landed: &TrajectoryDb,
    from: Timestamp,
    to: Timestamp,
    model_of: impl Fn(UserId, Timestamp) -> usize,
) -> Result<Vec<Release>, String> {
    if landed.n_users() != truth.n_users() {
        return Err(format!(
            "landed DB holds {} users, population has {}",
            landed.n_users(),
            truth.n_users()
        ));
    }
    let mut out = Vec::with_capacity(truth.n_users() * (to - from) as usize);
    for (tt, lt) in truth.trajectories().iter().zip(landed.trajectories()) {
        if tt.user != lt.user {
            return Err(format!(
                "landed user {} where {} was expected",
                lt.user, tt.user
            ));
        }
        for t in from..to {
            out.push(Release {
                model: model_of(tt.user, t),
                truth: tt.cells[t as usize],
                released: lt.cells[t as usize],
            });
        }
    }
    Ok(out)
}

/// Dashboard invariants: every epoch's area occupancy sums to the
/// population, the movement matrix counts `users × (horizon − 1)`
/// transitions, and the R0 estimate is a finite non-negative number.
pub fn check_dashboard(
    occupancy: &[Vec<u32>],
    movement: &[Vec<u32>],
    r0: f64,
    users: usize,
    horizon: Timestamp,
) -> Result<(), String> {
    if !(r0.is_finite() && r0 >= 0.0) {
        return Err(format!("R0 estimate {r0}"));
    }
    if occupancy.len() != horizon as usize {
        return Err(format!(
            "occupancy has {} epochs, expected {horizon}",
            occupancy.len()
        ));
    }
    for (t, row) in occupancy.iter().enumerate() {
        let sum: u64 = row.iter().map(|&v| u64::from(v)).sum();
        if sum != users as u64 {
            return Err(format!(
                "occupancy at epoch {t} sums to {sum}, expected {users}"
            ));
        }
    }
    let moves: u64 = movement.iter().flatten().map(|&v| u64::from(v)).sum();
    let expected = users as u64 * u64::from(horizon.saturating_sub(1));
    if moves != expected {
        return Err(format!(
            "movement matrix sums to {moves}, expected {expected}"
        ));
    }
    Ok(())
}

/// The contact rule evaluated by brute force on the true trajectories:
/// users other than the patient sharing the patient's cell in at least
/// `min_co` epochs of `[from, to)`, sorted.
pub fn brute_force_contacts(
    truth: &TrajectoryDb,
    patient: UserId,
    from: Timestamp,
    to: Timestamp,
    min_co: u32,
) -> Vec<UserId> {
    let p = truth.trajectory(patient).expect("patient in population");
    let mut flagged: Vec<UserId> = truth
        .trajectories()
        .iter()
        .filter(|tr| tr.user != patient)
        .filter(|tr| {
            let co = (from..to)
                .filter(|&t| tr.cells[t as usize] == p.cells[t as usize])
                .count();
            co as u32 >= min_co
        })
        .map(|tr| tr.user)
        .collect();
    flagged.sort_unstable();
    flagged
}

/// The host's CPU time counters (`/proc/stat`, all CPUs): stolen and
/// total ticks. Their change over a run is the share of the machine's time
/// the hypervisor gave to other guests — the main source of run-to-run
/// spread on a shared host.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_mobility::Trajectory;
    use rand::Rng;

    fn grid() -> GridMap {
        GridMap::new(4, 4, 100.0)
    }

    #[test]
    fn admits_follows_blocks_and_isolation() {
        let g = grid();
        let m = BlockModel::new(&g, 2, &[g.cell(1, 1)]);
        assert!(m.admits(g.cell(0, 0), g.cell(1, 0)));
        assert!(!m.admits(g.cell(0, 0), g.cell(2, 0)), "other block");
        assert!(
            !m.admits(g.cell(0, 0), g.cell(1, 1)),
            "onto an isolated cell"
        );
        assert!(m.admits(g.cell(1, 1), g.cell(1, 1)));
        assert!(
            !m.admits(g.cell(1, 1), g.cell(0, 0)),
            "isolated cells land exactly"
        );
    }

    #[test]
    fn moments_match_enumeration() {
        let g = grid();
        let m = BlockModel::new(&g, 4, &[g.cell(3, 3)]);
        let eps = 1.0;
        let c = g.cell(0, 0);
        let support: Vec<CellId> = g.cells().filter(|&z| z != g.cell(3, 3)).collect();
        let w = |z: CellId| if z == c { 1.0 } else { (-eps / 2.0f64).exp() };
        let total: f64 = support.iter().map(|&z| w(z)).sum();
        let mean: f64 = support
            .iter()
            .map(|&z| w(z) * g.distance(c, z))
            .sum::<f64>()
            / total;
        let got = m.moments(c, eps);
        assert!((got.mean - mean).abs() < 1e-9, "{} vs {mean}", got.mean);
        let rings: f64 = m.ring_probabilities(c, eps).iter().sum();
        assert!((rings - 1.0).abs() < 1e-12);
    }

    /// Draws from the closed form itself: the checks must pass; always
    /// releasing the true cell must fail them.
    #[test]
    fn release_checks_accept_the_law_and_reject_a_biased_sampler() {
        let g = GridMap::new(8, 8, 100.0);
        let m = BlockModel::new(&g, 4, &[]);
        let eps = 1.0;
        let mut rng = StdRng::seed_from_u64(3);
        let mut fair = Vec::new();
        let mut stuck = Vec::new();
        for i in 0..20_000u32 {
            let truth = CellId(i % 64);
            let weights = m.weights(truth.0, eps);
            let total: f64 = weights.iter().map(|&(_, w)| w).sum();
            let mut u = rng.gen_range(0.0..total);
            let mut released = weights.last().expect("non-empty support").0;
            for &(z, w) in &weights {
                if u < w {
                    released = z;
                    break;
                }
                u -= w;
            }
            fair.push(Release {
                model: 0,
                truth,
                released: CellId(released),
            });
            stuck.push(Release {
                model: 0,
                truth,
                released: truth,
            });
        }
        let ok = check_releases(std::slice::from_ref(&m), &[eps], &fair);
        assert!(ok.passed(), "{}", ok.summary());
        let bad = check_releases(std::slice::from_ref(&m), &[eps], &stuck);
        assert!(!bad.passed(), "{}", bad.summary());
    }

    #[test]
    fn brute_force_rule_counts_co_locations() {
        let g = grid();
        let c = |x, y| g.cell(x, y);
        let db = TrajectoryDb::new(
            g.clone(),
            vec![
                Trajectory {
                    user: UserId(0),
                    cells: vec![c(0, 0), c(1, 1), c(1, 1), c(2, 2)],
                },
                Trajectory {
                    user: UserId(1),
                    cells: vec![c(3, 3), c(1, 1), c(1, 1), c(0, 3)],
                },
                Trajectory {
                    user: UserId(2),
                    cells: vec![c(0, 0), c(0, 1), c(0, 1), c(0, 1)],
                },
            ],
        );
        assert_eq!(
            brute_force_contacts(&db, UserId(0), 0, 4, 2),
            vec![UserId(1)]
        );
        assert_eq!(
            brute_force_contacts(&db, UserId(0), 0, 4, 1),
            vec![UserId(1), UserId(2)]
        );
        assert!(brute_force_contacts(&db, UserId(0), 2, 4, 2).is_empty());
    }

    #[test]
    fn dashboard_check_counts_population_and_transitions() {
        let occupancy = vec![vec![2, 1], vec![3, 0]];
        let movement = vec![vec![2, 0], vec![1, 0]];
        assert!(check_dashboard(&occupancy, &movement, 0.5, 3, 2).is_ok());
        assert!(check_dashboard(&occupancy, &movement, 0.5, 4, 2).is_err());
        assert!(check_dashboard(&occupancy, &movement, f64::NAN, 3, 2).is_err());
    }
}
