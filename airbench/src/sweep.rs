//! The planner workload: Figure 5 sweep points on many small Figure 4
//! catalogues, one `sweep_channels(cfg, [n])` call per point.

use std::time::Instant;

use airsched_analysis::experiment::{
    sweep_channels, ExperimentConfig, LintCounts, PointLint, SweepPoint,
};
use airsched_core::bound::minimum_channels;
use airsched_core::delay::Weighting;
use airsched_core::group::GroupLadder;
use airsched_core::program::BroadcastProgram;
use airsched_core::types::{ChannelId, GridPos, SlotIndex};
use airsched_core::{mpb, opt, pamad};
use airsched_lint::{lint, LintConfig, LintInput, RuleId, Severity};
use airsched_sim::access::measure;
use airsched_workload::{
    AccessPattern, GroupSizeDistribution, NormalizedRequest, RequestGenerator, WorkloadSpec,
};

use crate::checks::{brute_force_access, theorem31_minimum, AccessTotals};
use crate::spans::{Layer, Tracer};
use crate::stats::{median, per_op_fastest, quantile};
use crate::{peak_rss_mb, Metric, Outcome};

/// Pages per catalogue.
const PAGES: u64 = 100;
/// Groups per catalogue (t = 4, 8, 16, 32).
const GROUPS: usize = 4;
/// Requests measured per point (the paper's 3000).
const REQUESTS: usize = 3000;
/// Request seeds per distribution in one round.
const REPS: u64 = 2;
/// Builds of the catalogues per round; the round's `setup_s` is their
/// mean, since one build takes only a fraction of a millisecond.
const SETUP_BUILDS: u32 = 20;

/// One catalogue: a configuration and what the benchmark derives from it
/// by itself.
struct Unit {
    cfg: ExperimentConfig,
    ladder: GroupLadder,
    /// Theorem 3.1's minimum, computed by the benchmark.
    minimum: u32,
    requests: Vec<NormalizedRequest>,
}

fn units(seed: u64) -> Vec<Unit> {
    let mut out = Vec::new();
    for rep in 0..REPS {
        for dist in GroupSizeDistribution::ALL {
            let cfg = ExperimentConfig {
                spec: WorkloadSpec::new(PAGES, GROUPS, 4, 2).distribution(dist),
                requests: REQUESTS,
                seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(rep),
                weighting: Weighting::PaperEq2,
                access: AccessPattern::Uniform,
            };
            let ladder = cfg.ladder().expect("the catalogue builds");
            let groups: Vec<(u64, u64)> = ladder
                .times()
                .iter()
                .copied()
                .zip(ladder.page_counts().iter().copied())
                .collect();
            let minimum = u32::try_from(theorem31_minimum(&groups)).expect("fits in u32");
            let requests =
                RequestGenerator::new(&ladder, cfg.access, cfg.seed).take_normalized(cfg.requests);
            out.push(Unit {
                cfg,
                ladder,
                minimum,
                requests,
            });
        }
    }
    out
}

/// The three programs a point measures, as the planner returns them.
fn programs(unit: &Unit, n: u32) -> [BroadcastProgram; 3] {
    let w = unit.cfg.weighting;
    [
        pamad::schedule_with(&unit.ladder, n, w)
            .expect("n > 0")
            .into_program(),
        mpb::schedule(&unit.ladder, n)
            .expect("n > 0")
            .into_program(),
        opt::search_r_structured(&unit.ladder, n, w)
            .place(&unit.ladder, n)
            .expect("n > 0")
            .into_program(),
    ]
}

/// Brute-force access totals of `program` over the unit's requests.
fn brute_force(unit: &Unit, program: &BroadcastProgram) -> Option<AccessTotals> {
    let cycle = program.cycle_len();
    brute_force_access(
        program.channels(),
        cycle,
        |ch, col| program.page_at(GridPos::new(ChannelId::new(ch), SlotIndex::new(col))),
        |page| unit.ladder.expected_time_of(page).map_or(0, |t| t.slots()),
        unit.requests.iter().map(|r| {
            let req = r.materialize(cycle);
            (req.page, req.arrival)
        }),
    )
}

/// How a checked point failed.
enum Failure {
    /// The OPT program parks parallel copies of a page in one column
    /// (structural lint `DuplicateInColumn`, warn). The programs depend only
    /// on the catalogue and `n`, never on the seed, so the same points fail
    /// in every run; see `CHANGES.md`.
    OptDuplicates,
    /// Anything else.
    Broken(String),
}

/// Checks one point against the benchmark's own computations: the
/// feasibility verdict against Theorem 3.1, a clean structural lint, and
/// each AvgD against a brute-force mean over the same requests on the
/// program the planner returns. Returns PAMAD's access totals, and the
/// known OPT fault when that is the only thing wrong.
fn check_point(
    unit: &Unit,
    n: u32,
    point: &SweepPoint,
    programs: &[BroadcastProgram; 3],
) -> Result<(AccessTotals, Option<Failure>), Failure> {
    let at = format!(
        "{:?} seed {} n={n}",
        unit.cfg.spec.current_distribution(),
        unit.cfg.seed
    );
    if point.channels != n {
        return Err(Failure::Broken(format!(
            "{at}: point reports {} channels",
            point.channels
        )));
    }
    if point.feasible != (n >= unit.minimum) {
        return Err(Failure::Broken(format!(
            "{at}: feasible={} but Theorem 3.1 needs {} channels",
            point.feasible, unit.minimum
        )));
    }
    let mut known = None;
    if !point.lint.is_clean() {
        let only_opt_duplicates = point.lint.pamad.is_clean()
            && point.lint.mpb.is_clean()
            && lint(
                &LintInput::for_program(&programs[2], &unit.ladder),
                &LintConfig::structural(),
            )
            .diagnostics()
            .iter()
            .all(|d| d.rule == RuleId::DuplicateInColumn && d.severity == Severity::Warn);
        if !only_opt_duplicates {
            return Err(Failure::Broken(format!("{at}: lint {:?}", point.lint)));
        }
        known = Some(Failure::OptDuplicates);
    }
    let reported = [point.pamad, point.mpb, point.opt];
    let mut pamad = AccessTotals::default();
    for (i, (program, avgd)) in programs.iter().zip(reported).enumerate() {
        let Some(totals) = brute_force(unit, program) else {
            return Err(Failure::Broken(format!(
                "{at}: program {i} leaves a page off the air"
            )));
        };
        if totals.avg_delay().to_bits() != avgd.to_bits() {
            return Err(Failure::Broken(format!(
                "{at}: program {i} AvgD {avgd} but brute force gives {}",
                totals.avg_delay()
            )));
        }
        if i == 0 {
            pamad = totals;
        }
    }
    Ok((pamad, known))
}

/// Structural lint counts, as `sweep_channels` takes them.
fn lint_counts(program: &BroadcastProgram, ladder: &GroupLadder) -> LintCounts {
    let report = lint(
        &LintInput::for_program(program, ladder),
        &LintConfig::structural(),
    );
    LintCounts {
        deny: report.count_at(Severity::Deny),
        warn: report.count_at(Severity::Warn),
    }
}

/// One sweep point rebuilt from the layers' public functions, in
/// `sweep_channels`' order, with a span around each call.
fn traced_point(unit: &Unit, n: u32, tracer: &mut Tracer) -> (SweepPoint, [BroadcastProgram; 3]) {
    let cfg = &unit.cfg;
    let t0 = tracer.now();
    let root = tracer.open(Layer::Point, t0);
    // What `sweep_channels` does before its first layer call; its cost is
    // part of the residual.
    let ladder = cfg.ladder().expect("the catalogue builds");
    let _ = minimum_channels(&ladder);
    let normalized =
        RequestGenerator::new(&ladder, cfg.access, cfg.seed).take_normalized(cfg.requests);

    let a = tracer.now();
    let pamad_program = pamad::schedule_with(&ladder, n, cfg.weighting)
        .expect("n > 0")
        .into_program();
    let b = tracer.now();
    tracer.record(Layer::Pamad, a, b, root);
    let mpb_program = mpb::schedule(&ladder, n).expect("n > 0").into_program();
    let c = tracer.now();
    tracer.record(Layer::Mpb, b, c, root);
    let search = opt::search_r_structured(&ladder, n, cfg.weighting);
    let opt_program = search.place(&ladder, n).expect("n > 0").into_program();
    let d = tracer.now();
    tracer.record(Layer::Opt, c, d, root);

    let programs = [pamad_program, mpb_program, opt_program];
    let mut avgd = [0.0; 3];
    for (slot, program) in avgd.iter_mut().zip(&programs) {
        let m0 = tracer.now();
        let requests: Vec<_> = normalized
            .iter()
            .map(|r| r.materialize(program.cycle_len()))
            .collect();
        *slot = measure(program, &ladder, &requests).0.avg_delay();
        tracer.record(Layer::Measure, m0, tracer.now(), root);
    }
    let lint = PointLint {
        pamad: lint_counts(&programs[0], &ladder),
        mpb: lint_counts(&programs[1], &ladder),
        opt: lint_counts(&programs[2], &ladder),
    };
    let s0 = tracer.now();
    let feasible = airsched_solve::check_ladder(&ladder, n)
        .expect("n > 0")
        .is_feasible();
    let t1 = tracer.now();
    tracer.record(Layer::Solve, s0, t1, root);
    tracer.close(root, t1);

    let point = SweepPoint {
        channels: n,
        pamad: avgd[0],
        mpb: avgd[1],
        opt: avgd[2],
        opt_evaluated: search.evaluated(),
        opt_pruned: search.pruned(),
        lint,
        feasible,
    };
    (point, programs)
}

/// What one round produced; everything but the timings repeats exactly.
#[derive(Debug, Default)]
struct Round {
    point_ms: Vec<f64>,
    quality: Quality,
    /// Building the round's catalogues and request streams, seconds.
    setup_s: f64,
    points: u64,
    failed: u64,
    broken: u64,
    errors: Vec<String>,
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Quality {
    /// Sum of PAMAD's AvgD over the points.
    avgd_sum: f64,
    /// PAMAD's access totals over every point's requests.
    pamad: AccessTotals,
    opt_evaluated: u64,
    opt_pruned: u64,
}

/// One round: the catalogues built afresh, then every point of every
/// catalogue. Untraced, a point is one `sweep_channels` call; traced, it is
/// [`traced_point`].
fn round(seed: u64, tracer: &mut Tracer) -> Round {
    let mut out = Round::default();
    let t0 = Instant::now();
    let mut units = units(seed);
    for _ in 1..SETUP_BUILDS {
        units = self::units(seed);
    }
    out.setup_s = t0.elapsed().as_secs_f64() / f64::from(SETUP_BUILDS);
    for unit in &units {
        for n in 1..=unit.minimum {
            let (point, programs, ms) = if tracer.enabled() {
                let t0 = tracer.now();
                let (point, programs) = traced_point(unit, n, tracer);
                (Ok(point), programs, (tracer.now() - t0) as f64 / 1e6)
            } else {
                let t0 = Instant::now();
                let sweep = sweep_channels(&unit.cfg, [n]);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let point = match sweep {
                    Ok(s) if s.points.len() == 1 && s.min_channels == unit.minimum => {
                        Ok(s.points[0])
                    }
                    Ok(s) => Err(format!(
                        "n={n}: {} points, minimum {} (benchmark: {})",
                        s.points.len(),
                        s.min_channels,
                        unit.minimum
                    )),
                    Err(e) => Err(format!("n={n}: {e}")),
                };
                (point, programs(unit, n), ms)
            };
            out.point_ms.push(ms);
            out.points += 1;
            let checked = point.map_err(Failure::Broken).and_then(|p| {
                let (totals, known) = check_point(unit, n, &p, &programs)?;
                out.quality.avgd_sum += p.pamad;
                out.quality.opt_evaluated += p.opt_evaluated;
                out.quality.opt_pruned += p.opt_pruned;
                let q = &mut out.quality.pamad;
                q.requests += totals.requests;
                q.wait += totals.wait;
                q.delay += totals.delay;
                q.max_wait = q.max_wait.max(totals.max_wait);
                known.map_or(Ok(()), Err)
            });
            match checked {
                Ok(()) => {}
                Err(Failure::OptDuplicates) => out.failed += 1,
                Err(Failure::Broken(e)) => {
                    out.failed += 1;
                    out.broken += 1;
                    if out.errors.len() < 5 {
                        out.errors.push(e);
                    }
                }
            }
        }
    }
    out
}

/// Runs whole rounds until `seconds` have passed. With `trace`, rounds
/// alternate untraced and traced.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let started = Instant::now();
    let mut tracer = Tracer::new(false);
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut rss_mb = 0.0;
    loop {
        let traced = trace && rounds.len() % 2 == 1;
        tracer.set_enabled(traced);
        rounds.push((traced, round(seed, &mut tracer)));
        if rounds.len() == 1 {
            rss_mb = peak_rss_mb();
        }
        let enough = !trace || rounds.len() >= 2;
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let mut out = Outcome::default();
    let first = rounds[0].1.quality;
    for (_, r) in &rounds {
        out.attempted += r.points;
        out.failed += r.failed;
        out.broken += r.broken;
        out.errors.extend(r.errors.iter().cloned());
        if r.quality != first {
            out.failed += 1;
            out.broken += 1;
            out.errors.push(format!(
                "a round of the same seed planned differently: {:?} vs {first:?}",
                r.quality
            ));
        }
    }
    let pick = |traced: bool| {
        per_op_fastest(
            rounds
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, r)| r.point_ms.as_slice()),
        )
    };
    let untraced = pick(false);
    let setups: Vec<f64> = rounds.iter().map(|(_, r)| r.setup_s).collect();
    let points = rounds[0].1.points as f64;
    out.e2e = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", rss_mb, "MB"),
        Metric::new(
            "ops_per_s",
            untraced.len() as f64 / (untraced.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        Metric::new("op_p50_us", quantile(&untraced, 0.5) * 1e3, "us"),
        Metric::new("op_p90_us", quantile(&untraced, 0.9) * 1e3, "us"),
        Metric::new(
            "wait_mean_slots",
            first.pamad.wait as f64 / first.pamad.requests.max(1) as f64,
            "slots",
        ),
    ];
    if !trace {
        return out;
    }
    let traced = pick(true);
    let t = tracer.totals();
    let per_call = |layer: Layer| {
        let l = t[layer as usize];
        if l.count == 0 {
            0.0
        } else {
            l.busy_ns as f64 / l.count as f64 / 1e6
        }
    };
    let n_points = t[Layer::Point as usize].count.max(1) as f64;
    out.span_report = tracer.report(Layer::Point);
    out.layers = vec![
        Metric::new("pamad.schedule_ms", per_call(Layer::Pamad), "ms"),
        Metric::new("mpb.schedule_ms", per_call(Layer::Mpb), "ms"),
        Metric::new("opt.search_ms", per_call(Layer::Opt), "ms"),
        Metric::new("opt.evaluated", first.opt_evaluated as f64, "count"),
        Metric::new("opt.pruned", first.opt_pruned as f64, "count"),
        Metric::new("access.measure_ms", per_call(Layer::Measure), "ms"),
        Metric::new("solve.check_ms", per_call(Layer::Solve), "ms"),
        Metric::new("sweep.point_ms", per_call(Layer::Point), "ms"),
        Metric::new(
            "sweep.residual_ms",
            t[Layer::Point as usize].self_ns as f64 / n_points / 1e6,
            "ms",
        ),
        Metric::new("avgd_pamad_slots", first.avgd_sum / points, "slots"),
        Metric::new(
            "trace.overhead_pct",
            (median(&traced) / median(&untraced) - 1.0) * 100.0,
            "%",
        ),
    ];
    out
}
