//! The serving workloads: the Figure 4 catalogue on a live [`Station`],
//! every slot subscribed, ticked, encoded, decoded and checked.
//!
//! Pipeline per slot: arrivals (generated before the slot's clock starts)
//! → `Station::subscribe` → (`fail_channel` / `restore_channel` /
//! `expire` + `publish` on scheduled slots) → `Station::tick_into` →
//! `SlotBroadcaster::encode_slot` → wire → `Frame::decode_prefix` →
//! sampled clients' `Receiver`s → the delivery ledger.

use std::time::Instant;

use airsched_core::group::GroupLadder;
use airsched_core::types::{ChannelId, PageId};
use airsched_obs::Obs;
use airsched_proto::{FixedPayloads, Frame, Receiver};
use airsched_server::{FaultPlan, Mode, SlotBroadcaster, Station, TickBuf};
use airsched_trace::{Trace, TraceConfig};
use airsched_workload::{AccessPattern, GroupSizeDistribution, RequestGenerator, WorkloadSpec};
use bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::checks::{analytic_wait, theorem31_minimum, Ledger};
use crate::spans::{Layer, Tracer};
use crate::stats::{mean, median, per_op_fastest, quantile};
use crate::{peak_rss_mb, Metric, Outcome};

/// The payload every data frame carries.
const PAYLOAD: &[u8] = b"airsched page payload";

/// How one serving workload is shaped.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Channels above Theorem 3.1's minimum.
    pub spare_channels: u32,
    /// Subscriptions per slot, every arrival slot.
    pub per_slot: usize,
    /// Zipf exponent of page choice; `None` is uniform.
    pub zipf: Option<f64>,
    /// Every `sample_every`-th client gets a `Receiver`.
    pub sample_every: u64,
    /// Injector stall and corruption rates plus the fault and republish
    /// schedule; `false` serves a fault-free station.
    pub replan: bool,
}

/// `serve_steady`: the hot path at Theorem 3.1's minimum.
pub const STEADY: ServeSpec = ServeSpec {
    spare_channels: 0,
    per_slot: 4000,
    zipf: None,
    sample_every: 256,
    replan: false,
};

/// `serve_replan`: the plan-change path, two channels above the minimum.
pub const REPLAN: ServeSpec = ServeSpec {
    spare_channels: 2,
    per_slot: 200,
    zipf: Some(0.9),
    sample_every: 16,
    replan: true,
};

/// The catalogue's cycle: its largest expected time.
const CYCLE: u64 = 512;
/// Slots that receive arrivals: three whole cycles, so every arrival
/// phase is equally represented. Slots from the second cycle on, once the
/// waiting set has filled, are the timed operations.
const ARRIVAL_SLOTS: u64 = 3 * CYCLE;
/// A fault episode starts every this many slots.
const EPISODE_EVERY: u64 = 128;
/// Slots between an episode's first failure and its first restore.
const EPISODE_HOLD: u64 = 16;
/// Channels failed per episode, cycled in this order: one or two down
/// re-pack with SUSC, three or four down fall to PAMAD best-effort.
const EPISODE_DOWN: [usize; 4] = [1, 2, 3, 4];
/// Offset within an episode of the expected-time swap of two pages.
const SWAP_AT: u64 = 64;
/// Injector rates for `serve_replan`: low enough that the health monitor
/// watches but rarely flags.
const STALL_RATE: f64 = 0.001;
const CORRUPTION_RATE: f64 = 0.002;
/// Slots allowed to drain the waiting set after the last arrival.
const DRAIN_LIMIT: u64 = 4 * CYCLE;

#[derive(Debug, Clone, Copy)]
enum Action {
    Fail(ChannelId),
    Restore(ChannelId),
    Swap(PageId, PageId),
}

/// Everything a round replays, generated once per run from the seed.
struct Inputs {
    spec: ServeSpec,
    channels: u32,
    expected: Vec<u64>,
    arrivals: Vec<PageId>,
    actions: Vec<(u64, Action)>,
    fault_seed: u64,
}

impl Inputs {
    fn new(spec: ServeSpec, seed: u64) -> Self {
        let ladder = WorkloadSpec::paper_defaults()
            .distribution(GroupSizeDistribution::Uniform)
            .build()
            .expect("the Figure 4 ladder builds");
        let groups: Vec<(u64, u64)> = ladder
            .times()
            .iter()
            .copied()
            .zip(ladder.page_counts().iter().copied())
            .collect();
        let minimum = u32::try_from(theorem31_minimum(&groups)).expect("fits in u32");
        let channels = minimum + spec.spare_channels;
        let expected: Vec<u64> = ladder
            .pages()
            .map(|(_, g)| ladder.time_of(g).slots())
            .collect();
        let pattern = match spec.zipf {
            None => AccessPattern::Uniform,
            Some(theta) => AccessPattern::Zipf { theta },
        };
        let mut gen = RequestGenerator::new(&ladder, pattern, seed);
        let total = spec.per_slot * usize::try_from(ARRIVAL_SLOTS).expect("fits");
        let arrivals = (0..total).map(|_| gen.next_request(1).page).collect();
        let actions = if spec.replan {
            schedule_actions(&ladder, channels, seed)
        } else {
            Vec::new()
        };
        Self {
            spec,
            channels,
            expected,
            arrivals,
            actions,
            fault_seed: seed ^ 0x00fa_0175_eed0,
        }
    }

    /// The slot client `id` subscribed in.
    fn since_of(&self, id: u64) -> u64 {
        id / self.spec.per_slot as u64
    }
}

/// The seeded fault and republish schedule: one episode per
/// [`EPISODE_EVERY`] slots failing [`EPISODE_DOWN`]`[e % 4]` distinct
/// channels one slot apart, restoring them one slot apart
/// [`EPISODE_HOLD`] slots later, and one swap of two pages' expected
/// times per episode once every channel is back.
fn schedule_actions(ladder: &GroupLadder, channels: u32, seed: u64) -> Vec<(u64, Action)> {
    let mut rng = SmallRng::seed_from_u64(seed.rotate_left(17) ^ 0xa17e_5eed);
    let mut current: Vec<u64> = ladder
        .pages()
        .map(|(_, g)| ladder.time_of(g).slots())
        .collect();
    let mut actions = Vec::new();
    let mut episode = 0;
    let mut start = EPISODE_EVERY / 2;
    while start + EPISODE_EVERY <= ARRIVAL_SLOTS {
        let k = EPISODE_DOWN[episode % EPISODE_DOWN.len()];
        let mut down: Vec<u32> = Vec::with_capacity(k);
        while down.len() < k {
            let ch = rng.gen_range(0..channels);
            if !down.contains(&ch) {
                down.push(ch);
            }
        }
        for (i, &ch) in down.iter().enumerate() {
            actions.push((start + i as u64, Action::Fail(ChannelId::new(ch))));
            actions.push((
                start + EPISODE_HOLD + i as u64,
                Action::Restore(ChannelId::new(ch)),
            ));
        }
        let pages = u32::try_from(current.len()).expect("fits in u32");
        let (p, q) = loop {
            let p = rng.gen_range(0..pages);
            let q = rng.gen_range(0..pages);
            if current[p as usize] != current[q as usize] {
                break (p, q);
            }
        };
        current.swap(p as usize, q as usize);
        actions.push((
            start + SWAP_AT,
            Action::Swap(PageId::new(p), PageId::new(q)),
        ));
        episode += 1;
        start += EPISODE_EVERY;
    }
    actions.sort_by_key(|&(slot, _)| slot);
    actions
}

/// What one round produced. Everything but the timings repeats exactly
/// for a given seed.
#[derive(Debug, Default)]
struct Round {
    setup_s: f64,
    /// Time of each slot from one cycle on, microseconds.
    slot_us: Vec<f64>,
    /// Fault call to the next slot's encode, milliseconds.
    failover_ms: Vec<f64>,
    /// Fault call alone, milliseconds, by the mode it returned.
    failover_call_ms: [Vec<f64>; 3],
    /// Swap durations, microseconds.
    republish_us: Vec<f64>,
    /// Mean of the waiting-set size after each timed slot.
    waiting_mean: f64,
    /// `Receiver::consume` / `consume_corrupt` calls in the timed slots.
    consumes: u64,
    quality: Quality,
    slots: u64,
    failed: u64,
    errors: Vec<String>,
}

/// The exact outputs a round must repeat.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Quality {
    delivered: u64,
    total_wait: u64,
    max_wait: u64,
    late: u64,
    mode_changes: u64,
    plan_rejections: u64,
    rebuilds: u64,
    fresh_fallbacks: u64,
    frames: u64,
    bytes: u64,
}

impl Quality {
    fn mean_wait(&self) -> f64 {
        self.total_wait as f64 / self.delivered.max(1) as f64
    }
}

/// Builds the station the way `airsched run` does: faults (when asked),
/// the catalogue, an obs handle with an 8192-event flight recorder, a
/// tracer at its default sampling, and a template-cached broadcaster
/// reporting to the same obs handle.
fn build_station(inputs: &Inputs) -> (Station, SlotBroadcaster<FixedPayloads>, Obs, Trace) {
    let mut station = if inputs.spec.replan {
        let plan = FaultPlan::seeded(inputs.fault_seed)
            .with_stalls(STALL_RATE)
            .with_corruption(CORRUPTION_RATE);
        Station::with_faults(inputs.channels, CYCLE, &plan)
    } else {
        Station::new(inputs.channels, CYCLE)
    }
    .expect("station builds");
    for (i, &t) in inputs.expected.iter().enumerate() {
        station
            .publish(PageId::new(u32::try_from(i).expect("fits")), t)
            .expect("the catalogue fits its Theorem 3.1 minimum");
    }
    let obs = Obs::with_recorder_capacity(8192);
    let trace = Trace::new(TraceConfig::default());
    station.attach_obs(&obs);
    station.attach_trace(&trace);
    let mut tx = SlotBroadcaster::new(FixedPayloads::new(Bytes::from_static(PAYLOAD)));
    tx.attach_obs(&obs);
    (station, tx, obs, trace)
}

/// One round: a fresh station serving every arrival slot, then drained
/// until nobody waits.
#[allow(clippy::too_many_lines)]
fn round(inputs: &Inputs, tracer: &mut Tracer) -> Round {
    let spec = inputs.spec;
    let mut out = Round::default();
    let setup_from = Instant::now();
    let (mut station, mut tx, _obs, _trace) = build_station(inputs);
    out.setup_s = setup_from.elapsed().as_secs_f64();

    let pages = inputs.expected.len();
    let mut ledger = Ledger::new(inputs.expected.clone());
    let mut buf = TickBuf::new();
    let mut wire = BytesMut::with_capacity(8192);
    let mut frames: Vec<Frame> = Vec::with_capacity(inputs.channels as usize);
    let mut receivers: Vec<Vec<(u64, Receiver)>> = vec![Vec::new(); pages];
    let mut rx_got: Vec<u64> = Vec::new();
    let mut rx_sent: Vec<u64> = Vec::new();
    let mut last_air: Vec<Option<u64>> = vec![None; pages];
    let mut first_cycle: Vec<Vec<u64>> = vec![Vec::new(); pages];
    let mut next_action = 0;
    let mut next_id = 0u64;
    let mut waiting_sum = 0u64;
    let mut bytes = 0u64;

    // Spans cover only the timed slots, like the end-to-end figures.
    let traced = tracer.enabled();
    let mut slot = 0u64;
    loop {
        let arriving = slot < ARRIVAL_SLOTS;
        let timed = arriving && slot >= CYCLE;
        tracer.set_enabled(traced && timed);
        let mut consumes = 0;
        if !arriving && station.stats().waiting == 0 {
            break;
        }
        if slot >= ARRIVAL_SLOTS + DRAIN_LIMIT {
            out.failed += 1;
            out.errors.push(format!(
                "{} clients still waiting {DRAIN_LIMIT} slots after the last arrival",
                station.stats().waiting
            ));
            break;
        }
        let mut fault: Result<(), String> = Ok(());
        let batch: &[PageId] = if arriving {
            let from = usize::try_from(slot).expect("fits") * spec.per_slot;
            &inputs.arrivals[from..from + spec.per_slot]
        } else {
            &[]
        };

        // ---- the timed slot ----
        let t0 = tracer.now();
        let root = tracer.open(Layer::Slot, t0);
        let first_id = next_id;
        for &page in batch {
            match station.subscribe(page) {
                Ok(id) if id.raw() == next_id => next_id += 1,
                Ok(id) => {
                    fault = Err(format!(
                        "slot {slot}: subscribe returned {id}, expected client{next_id}"
                    ));
                    next_id = id.raw() + 1;
                }
                Err(e) => fault = Err(format!("slot {slot}: subscribe {page}: {e}")),
            }
        }
        let t_sub = tracer.mark();
        tracer.record(Layer::Subscribe, t0, t_sub, root);

        // Sampled clients tune their receivers in.
        let sampled_from = first_id.next_multiple_of(spec.sample_every);
        for id in (sampled_from..next_id).step_by(spec.sample_every as usize) {
            let page = batch[(id - first_id) as usize];
            receivers[page.index() as usize].push((id, Receiver::new([page])));
        }
        tracer.record(Layer::Receive, t_sub, tracer.mark(), root);

        let mut failover_from = None;
        while let Some(&(at, action)) = inputs.actions.get(next_action) {
            if at != slot {
                break;
            }
            next_action += 1;
            let a0 = tracer.now();
            match action {
                Action::Fail(ch) | Action::Restore(ch) => {
                    let mode = if matches!(action, Action::Fail(_)) {
                        station.fail_channel(ch)
                    } else {
                        station.restore_channel(ch)
                    };
                    let a1 = tracer.now();
                    tracer.record(Layer::Failover, a0, a1, root);
                    let kind = match mode {
                        Mode::Repacked => 0,
                        Mode::BestEffort => 1,
                        Mode::Valid => 2,
                        Mode::Offline => {
                            fault = Err(format!("slot {slot}: station went offline"));
                            continue;
                        }
                    };
                    out.failover_call_ms[kind].push((a1 - a0) as f64 / 1e6);
                    failover_from = Some(a0);
                }
                Action::Swap(p, q) => {
                    let (tp, tq) = (ledger.expected(p), ledger.expected(q));
                    let swapped = station
                        .expire(p)
                        .and_then(|()| station.expire(q))
                        .and_then(|()| station.publish(p, tq))
                        .and_then(|()| station.publish(q, tp));
                    let a1 = tracer.now();
                    tracer.record(Layer::Republish, a0, a1, root);
                    out.republish_us.push((a1 - a0) as f64 / 1e3);
                    match swapped {
                        Ok(()) => {
                            ledger.set_expected(p, tq);
                            ledger.set_expected(q, tp);
                        }
                        Err(e) => fault = Err(format!("slot {slot}: swapping {p} and {q}: {e}")),
                    }
                }
            }
        }

        let t_tick = tracer.mark();
        station.tick_into(&mut buf);
        let t_enc = tracer.mark();
        tracer.record(Layer::Tick, t_tick, t_enc, root);

        wire.clear();
        let rebuilds = tx.rebuilds();
        let encoded = tx.encode_slot(&station, buf.on_air(), buf.time(), &mut wire);
        let t_dec = if failover_from.is_some() {
            tracer.now()
        } else {
            tracer.mark()
        };
        let layer = if tx.rebuilds() > rebuilds {
            Layer::Rebuild
        } else {
            Layer::Encode
        };
        tracer.record(layer, t_enc, t_dec, root);
        if let Some(from) = failover_from {
            out.failover_ms.push((t_dec - from) as f64 / 1e6);
        }
        bytes += wire.len() as u64;
        if let Err(e) = encoded {
            fault = Err(format!("slot {slot}: encode: {e}"));
        }

        frames.clear();
        let mut at = 0;
        while at < wire.len() {
            match Frame::decode_prefix(&wire[at..]) {
                Ok((frame, used)) => {
                    frames.push(frame);
                    at += used;
                }
                Err(e) => {
                    fault = Err(format!(
                        "slot {slot}: frame {} does not decode: {e}",
                        frames.len()
                    ));
                    break;
                }
            }
        }
        let t_rx = tracer.mark();
        tracer.record(Layer::Decode, t_dec, t_rx, root);

        rx_got.clear();
        for (ch, frame) in frames.iter().enumerate() {
            let Some(page) = frame.page else { continue };
            let listening = &mut receivers[page.index() as usize];
            if listening.is_empty() {
                continue;
            }
            if buf.corrupted().get(ch).copied().unwrap_or(false) {
                for (_, rx) in listening.iter_mut() {
                    rx.consume_corrupt(frame);
                }
                consumes += listening.len() as u64;
            } else {
                for (id, rx) in listening.iter_mut() {
                    if rx.consume(frame).is_some() {
                        rx_got.push(*id);
                    }
                }
                consumes += listening.len() as u64;
                listening.retain(|(_, rx)| !rx.is_satisfied());
            }
        }
        let t1 = tracer.now();
        tracer.record(Layer::Receive, t_rx, t1, root);
        tracer.close(root, t1);
        // ---- end of the timed slot; the checks run off the clock ----

        for (i, &page) in batch.iter().enumerate() {
            ledger.subscribe(page, first_id + i as u64);
        }
        if fault.is_ok() {
            fault = check_slot(
                inputs,
                slot,
                &buf,
                &frames,
                &mut ledger,
                &mut last_air,
                &mut first_cycle,
                &mut rx_got,
                &mut rx_sent,
            );
        }
        tracer.record(Layer::Check, t1, tracer.mark(), None);

        if timed {
            out.slot_us.push((t1 - t0) as f64 / 1e3);
            out.consumes += consumes;
            waiting_sum += station.stats().waiting;
        }
        out.slots += 1;
        if let Err(e) = fault {
            out.failed += 1;
            if out.errors.len() < 5 {
                out.errors.push(e);
            }
        }
        slot += 1;
    }
    tracer.set_enabled(traced);
    out.waiting_mean = waiting_sum as f64 / out.slot_us.len().max(1) as f64;

    let stats = station.stats();
    out.quality = Quality {
        delivered: stats.delivered,
        total_wait: stats.total_wait,
        max_wait: ledger.max_wait,
        late: stats.delivered - stats.on_time,
        mode_changes: stats.mode_changes,
        plan_rejections: stats.plan_rejections,
        rebuilds: tx.rebuilds(),
        fresh_fallbacks: tx.fresh_fallbacks(),
        frames: out.slots * u64::from(inputs.channels),
        bytes,
    };
    let end = finish_checks(inputs, &station, &ledger, &last_air, &first_cycle, slot);
    if let Err(e) = end {
        out.failed += 1;
        out.errors.push(e);
    }
    out
}

/// The per-slot output checks.
#[allow(clippy::too_many_arguments)]
fn check_slot(
    inputs: &Inputs,
    slot: u64,
    buf: &TickBuf,
    frames: &[Frame],
    ledger: &mut Ledger,
    last_air: &mut [Option<u64>],
    first_cycle: &mut [Vec<u64>],
    rx_got: &mut [u64],
    rx_sent: &mut Vec<u64>,
) -> Result<(), String> {
    // The decoded wire is exactly the tick's on-air grid.
    if frames.len() != buf.on_air().len() {
        return Err(format!(
            "slot {slot}: {} frames decoded for {} channels",
            frames.len(),
            buf.on_air().len()
        ));
    }
    for (ch, (frame, &page)) in frames.iter().zip(buf.on_air()).enumerate() {
        let payload_ok = match page {
            Some(_) => frame.payload.as_ref() == PAYLOAD,
            None => frame.payload.is_empty(),
        };
        if frame.channel.index() as usize != ch
            || frame.slot_time != slot
            || frame.page != page
            || !payload_ok
        {
            return Err(format!(
                "slot {slot}: channel {ch} decoded {frame:?}, on air {page:?}"
            ));
        }
    }
    // Every delivery lands on its page's first intact airing.
    ledger.check_slot(
        slot,
        buf.on_air(),
        buf.corrupted(),
        buf.deliveries(),
        |id| inputs.since_of(id),
    )?;
    // Sampled clients' receivers hear their page in the delivery slot.
    rx_sent.clear();
    rx_sent.extend(
        buf.deliveries()
            .iter()
            .map(|d| d.client.raw())
            .filter(|id| id % inputs.spec.sample_every == 0),
    );
    rx_sent.sort_unstable();
    rx_got.sort_unstable();
    if rx_sent.as_slice() != &*rx_got {
        return Err(format!(
            "slot {slot}: receivers got {rx_got:?}, station delivered {rx_sent:?}"
        ));
    }
    if inputs.spec.replan {
        return Ok(());
    }
    // Fault-free SUSC at the minimum: no page's gap exceeds its expected
    // time (from the wire) and nobody is served late.
    for frame in frames {
        let Some(page) = frame.page else { continue };
        let idx = page.index() as usize;
        let gap = last_air[idx].map_or(slot + 1, |last| slot - last);
        if gap > inputs.expected[idx] {
            return Err(format!(
                "slot {slot}: {page} aired after a gap of {gap} > {}",
                inputs.expected[idx]
            ));
        }
        last_air[idx] = Some(slot);
        if slot < CYCLE && first_cycle[idx].last() != Some(&slot) {
            first_cycle[idx].push(slot);
        }
    }
    if let Some(d) = buf.deliveries().iter().find(|d| !d.within_deadline) {
        return Err(format!(
            "slot {slot}: {} served late after {} slots",
            d.client, d.wait
        ));
    }
    Ok(())
}

/// Checks once the round has drained: the ledger agrees with the
/// station's statistics, nobody waits, and on the fault-free station
/// every page aired in the final window and the served mean wait matches
/// the analytic mean over the program's gaps.
fn finish_checks(
    inputs: &Inputs,
    station: &Station,
    ledger: &Ledger,
    last_air: &[Option<u64>],
    first_cycle: &[Vec<u64>],
    slots: u64,
) -> Result<(), String> {
    let stats = station.stats();
    if stats.waiting != 0 || ledger.waiting() != 0 {
        return Err(format!(
            "not drained: station {} waiting, ledger {}",
            stats.waiting,
            ledger.waiting()
        ));
    }
    if (stats.delivered, stats.total_wait) != (ledger.delivered, ledger.total_wait) {
        return Err(format!(
            "station counts {} deliveries / {} slots waited, ledger {} / {}",
            stats.delivered, stats.total_wait, ledger.delivered, ledger.total_wait
        ));
    }
    if inputs.spec.replan {
        return Ok(());
    }
    for (idx, last) in last_air.iter().enumerate() {
        let gap = last.map_or(slots, |l| slots - 1 - l);
        if gap >= inputs.expected[idx] {
            return Err(format!("page{idx} silent for the last {gap} slots"));
        }
    }
    let (mean_wait, second) = analytic_wait(first_cycle, CYCLE);
    let served = ledger.total_wait as f64 / ledger.delivered as f64;
    let bound = 4.0 * ((second - mean_wait * mean_wait) / ledger.delivered as f64).sqrt();
    if (served - mean_wait).abs() > bound {
        return Err(format!(
            "served mean wait {served:.4} is off the analytic {mean_wait:.4} by more than {bound:.4}"
        ));
    }
    Ok(())
}

/// Runs whole rounds until `seconds` have passed. With `trace`, rounds
/// alternate untraced and traced, and the per-layer metrics come from the
/// traced ones.
pub fn run(spec: ServeSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let inputs = Inputs::new(spec, seed);
    let started = Instant::now();
    let mut tracer = Tracer::new(false);
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut rss_mb = 0.0;
    loop {
        let traced = trace && rounds.len() % 2 == 1;
        tracer.set_enabled(traced);
        rounds.push((traced, round(&inputs, &mut tracer)));
        if rounds.len() == 1 {
            rss_mb = peak_rss_mb();
        }
        let enough = !trace || rounds.len() >= 2;
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    summarize(&inputs, &rounds, &tracer, trace, rss_mb)
}

#[allow(clippy::too_many_lines)]
fn summarize(
    inputs: &Inputs,
    rounds: &[(bool, Round)],
    tracer: &Tracer,
    trace: bool,
    rss_mb: f64,
) -> Outcome {
    let mut out = Outcome::default();
    let first = &rounds[0].1;
    for (_, r) in rounds {
        out.attempted += r.slots;
        out.failed += r.failed;
        out.broken += r.failed;
        out.errors.extend(r.errors.iter().cloned());
        if r.quality != first.quality {
            out.failed += 1;
            out.broken += 1;
            out.errors.push(format!(
                "a round of the same seed served differently: {:?} vs {:?}",
                r.quality, first.quality
            ));
        }
    }
    let pick = |traced: bool| {
        rounds
            .iter()
            .filter(move |(t, _)| *t == traced)
            .map(|(_, r)| r)
    };
    let untraced_slots = per_op_fastest(pick(false).map(|r| r.slot_us.as_slice()));
    let setups: Vec<f64> = rounds.iter().map(|(_, r)| r.setup_s).collect();
    let q = first.quality;

    out.e2e = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", rss_mb, "MB"),
        Metric::new(
            "ops_per_s",
            untraced_slots.len() as f64 / (untraced_slots.iter().sum::<f64>() / 1e6),
            "1/s",
        ),
        Metric::new("op_p50_us", quantile(&untraced_slots, 0.5), "us"),
        Metric::new("op_p90_us", quantile(&untraced_slots, 0.9), "us"),
        Metric::new("wait_mean_slots", q.mean_wait(), "slots"),
    ];
    if !trace {
        return out;
    }

    let traced_slots = per_op_fastest(pick(true).map(|r| r.slot_us.as_slice()));
    let failover: Vec<f64> = pick(true)
        .flat_map(|r| r.failover_ms.iter().copied())
        .collect();
    let call = |k: usize| {
        mean(
            &pick(true)
                .flat_map(|r| r.failover_call_ms[k].iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let republish: Vec<f64> = pick(true)
        .flat_map(|r| r.republish_us.iter().copied())
        .collect();
    let t = tracer.totals();
    let per = |layer: Layer, n: f64, scale: f64| {
        let busy = t[layer as usize].busy_ns as f64;
        if n == 0.0 {
            0.0
        } else {
            busy / n / scale
        }
    };
    let slots = t[Layer::Slot as usize].count as f64;
    let subscribes = slots * inputs.spec.per_slot as f64;
    let frames = slots * f64::from(inputs.channels);
    let consumed: f64 = pick(true).map(|r| r.consumes as f64).sum();
    let slot_us = per(Layer::Slot, slots, 1e3);
    let residual_us = t[Layer::Slot as usize].self_ns as f64 / slots.max(1.0) / 1e3;
    let overhead = quantile(&traced_slots, 0.5) / quantile(&untraced_slots, 0.5) - 1.0;

    out.span_report = tracer.report(Layer::Slot);
    out.layers = vec![
        Metric::new(
            "station.subscribe_ns",
            per(Layer::Subscribe, subscribes, 1.0),
            "ns",
        ),
        Metric::new(
            "station.waiting_mean",
            mean(&pick(true).map(|r| r.waiting_mean).collect::<Vec<_>>()),
            "clients",
        ),
        Metric::new("station.tick_ns", per(Layer::Tick, slots, 1.0), "ns"),
        Metric::new("station.deliveries", q.delivered as f64, "count"),
        Metric::new(
            "transmit.encode_ns",
            per(Layer::Encode, t[Layer::Encode as usize].count as f64, 1.0),
            "ns",
        ),
        Metric::new(
            "transmit.bytes",
            q.bytes as f64 / first.slots as f64,
            "B/slot",
        ),
        Metric::new(
            "transmit.rebuild_us",
            per(Layer::Rebuild, t[Layer::Rebuild as usize].count as f64, 1e3),
            "us",
        ),
        Metric::new("transmit.rebuilds", q.rebuilds as f64, "count"),
        Metric::new(
            "transmit.fresh_fallbacks",
            q.fresh_fallbacks as f64,
            "count",
        ),
        Metric::new("frame.decode_ns", per(Layer::Decode, frames, 1.0), "ns"),
        Metric::new("frame.frames", q.frames as f64, "count"),
        Metric::new(
            "receiver.consume_ns",
            per(Layer::Receive, consumed, 1.0),
            "ns",
        ),
        Metric::new("bench.check_ns", per(Layer::Check, slots, 1.0), "ns"),
        Metric::new("station.repack_ms", call(0), "ms"),
        Metric::new("station.best_effort_ms", call(1), "ms"),
        Metric::new("station.recover_ms", call(2), "ms"),
        Metric::new("station.republish_us", mean(&republish), "us"),
        Metric::new("station.mode_changes", q.mode_changes as f64, "count"),
        Metric::new("station.plan_rejections", q.plan_rejections as f64, "count"),
        Metric::new("station.late_deliveries", q.late as f64, "count"),
        Metric::new("failover_p50_ms", quantile(&failover, 0.5), "ms"),
        Metric::new("failover_p90_ms", quantile(&failover, 0.9), "ms"),
        Metric::new("slot_p99_us", quantile(&untraced_slots, 0.99), "us"),
        Metric::new("wait_max_slots", q.max_wait as f64, "slots"),
        Metric::new("serve.slot_us", slot_us, "us"),
        Metric::new("serve.residual_us", residual_us, "us"),
        Metric::new("trace.overhead_pct", overhead * 100.0, "%"),
    ];
    out
}
