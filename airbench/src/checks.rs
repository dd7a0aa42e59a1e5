//! Output checks computed apart from the program: Theorem 3.1's bound,
//! the analytic mean wait of a periodic program, a brute-force AvgD, and
//! the delivery ledger that replays every subscription against the wire.

use airsched_core::types::PageId;
use airsched_server::Delivery;

/// Theorem 3.1's minimum channel count `⌈Σ P_i / t_i⌉` for `(t_i, P_i)`
/// groups, in exact integer arithmetic over the times' least common
/// multiple.
///
/// # Panics
///
/// Panics on an empty ladder, a zero time, or overflow.
pub fn theorem31_minimum(groups: &[(u64, u64)]) -> u64 {
    assert!(!groups.is_empty(), "a ladder has at least one group");
    let lcm = groups.iter().fold(1u64, |acc, &(t, _)| {
        assert!(t > 0, "expected times are positive");
        acc / gcd(acc, t) * t
    });
    let demand: u64 = groups
        .iter()
        .map(|&(t, pages)| pages.checked_mul(lcm / t).expect("demand fits in u64"))
        .sum();
    demand.div_ceil(lcm)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The cyclic gaps between a page's airing columns in a `cycle`-slot
/// program (`columns` ascending, non-empty).
fn cyclic_gaps(columns: &[u64], cycle: u64) -> impl Iterator<Item = u64> + '_ {
    let wrap = columns[0] + cycle - columns[columns.len() - 1];
    columns.windows(2).map(|w| w[1] - w[0]).chain([wrap])
}

/// The analytic wait of a client arriving at a uniformly random slot and
/// asking for a uniformly random page: a gap of `g` slots ending at an
/// airing holds `g` arrivals waiting `1 ..= g` slots, so a page's mean
/// wait is `Σ g(g+1)/2 / cycle`. Returns the mean and the second moment
/// (`Σ g(g+1)(2g+1)/6 / cycle`, averaged the same way).
///
/// # Panics
///
/// Panics if a page never airs.
pub fn analytic_wait(columns: &[Vec<u64>], cycle: u64) -> (f64, f64) {
    let mut first = 0u128;
    let mut second = 0u128;
    for cols in columns {
        assert!(!cols.is_empty(), "every page airs at least once per cycle");
        for g in cyclic_gaps(cols, cycle) {
            let g = u128::from(g);
            first += g * (g + 1) / 2;
            second += g * (g + 1) * (2 * g + 1) / 6;
        }
    }
    let arrivals = (u128::from(cycle) * columns.len() as u128) as f64;
    (first as f64 / arrivals, second as f64 / arrivals)
}

/// Brute-force access totals of one program over requests `(page,
/// arrival column)`: a client arriving at the start of slot `a` waits
/// until the end of the page's first airing at or after `a`, and its
/// delay is `(wait - t)⁺`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessTotals {
    /// Requests resolved.
    pub requests: u64,
    /// Sum of waits, slots.
    pub wait: u64,
    /// Sum of delays beyond the expected time, slots.
    pub delay: u64,
    /// Longest wait, slots.
    pub max_wait: u64,
}

impl AccessTotals {
    /// AvgD: mean delay per request (0 without requests).
    pub fn avg_delay(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.delay as f64 / self.requests as f64
        }
    }
}

/// Resolves every request against a grid given as `cell(channel, column)`
/// by scanning it; `None` if a requested page never airs.
pub fn brute_force_access(
    channels: u32,
    cycle: u64,
    cell: impl Fn(u32, u64) -> Option<PageId>,
    expected: impl Fn(PageId) -> u64,
    requests: impl IntoIterator<Item = (PageId, u64)>,
) -> Option<AccessTotals> {
    let mut columns: Vec<Vec<u64>> = Vec::new();
    for col in 0..cycle {
        for ch in 0..channels {
            if let Some(page) = cell(ch, col) {
                let idx = page.index() as usize;
                if columns.len() <= idx {
                    columns.resize(idx + 1, Vec::new());
                }
                if columns[idx].last() != Some(&col) {
                    columns[idx].push(col);
                }
            }
        }
    }
    let mut totals = AccessTotals::default();
    for (page, arrival) in requests {
        let cols = columns
            .get(page.index() as usize)
            .filter(|c| !c.is_empty())?;
        let next = cols.iter().copied().find(|&c| c >= arrival);
        let wait = match next {
            Some(c) => c - arrival + 1,
            None => cycle - arrival + cols[0] + 1,
        };
        totals.requests += 1;
        totals.wait += wait;
        totals.delay += wait.saturating_sub(expected(page));
        totals.max_wait = totals.max_wait.max(wait);
    }
    Some(totals)
}

/// Replays a station's subscriptions against what went out on the air.
///
/// Client ids are dense and assigned in subscription order, so the
/// benchmark recovers a client's subscription slot from its id
/// (`since_of`). Per page the ledger keeps only the count, the sum and the
/// sum of squares of the pending client ids and the slot of the page's
/// last intact airing, so its memory is bounded by the catalogue, not by
/// the clients served. A page's deliveries in a slot must match its
/// pending set in all three moments, which pins down that exactly the
/// clients that asked for the page since its last intact airing were
/// served.
#[derive(Debug, Clone)]
pub struct Ledger {
    expected: Vec<u64>,
    pending: Vec<IdSet>,
    /// Slot of the page's last intact airing; `None` before the first.
    last_served: Vec<Option<u64>>,
    /// This slot's deliveries per page, and the pages they touched.
    slot: Vec<IdSet>,
    touched: Vec<usize>,
    /// Sum and maximum of every checked delivery's wait.
    pub total_wait: u64,
    /// Longest checked wait.
    pub max_wait: u64,
    /// Deliveries checked.
    pub delivered: u64,
    /// Deliveries past their page's expected time.
    pub late: u64,
}

/// Count, sum and sum of squares of a set of client ids: two such sets
/// agree exactly unless ids were both duplicated and dropped in a way
/// that preserves the first two moments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct IdSet {
    n: u64,
    sum: u128,
    sq: u128,
}

impl IdSet {
    fn add(&mut self, id: u64) {
        self.n += 1;
        self.sum += u128::from(id);
        self.sq += u128::from(id) * u128::from(id);
    }
}

impl Ledger {
    /// A ledger over pages with the given expected times.
    pub fn new(expected: Vec<u64>) -> Self {
        let n = expected.len();
        Self {
            expected,
            pending: vec![IdSet::default(); n],
            last_served: vec![None; n],
            slot: vec![IdSet::default(); n],
            touched: Vec::new(),
            total_wait: 0,
            max_wait: 0,
            delivered: 0,
            late: 0,
        }
    }

    /// Records a subscription of client `id` to `page`.
    pub fn subscribe(&mut self, page: PageId, id: u64) {
        self.pending[page.index() as usize].add(id);
    }

    /// Changes a page's expected time (a republish).
    pub fn set_expected(&mut self, page: PageId, expected: u64) {
        self.expected[page.index() as usize] = expected;
    }

    /// The expected time of `page`.
    pub fn expected(&self, page: PageId) -> u64 {
        self.expected[page.index() as usize]
    }

    /// Clients still waiting, by the ledger's count.
    pub fn waiting(&self) -> u64 {
        self.pending.iter().map(|p| p.n).sum()
    }

    /// Checks one slot's deliveries: each has `wait = slot - since + 1` and
    /// the deadline verdict of the page's expected time, every page that
    /// aired intact this slot served exactly its pending clients, and no
    /// other page delivered anything.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn check_slot(
        &mut self,
        slot: u64,
        on_air: &[Option<PageId>],
        corrupted: &[bool],
        deliveries: &[Delivery],
        since_of: impl Fn(u64) -> u64,
    ) -> Result<(), String> {
        let mut verdict = Ok(());
        for d in deliveries {
            let id = d.client.raw();
            let idx = d.page.index() as usize;
            let since = since_of(id);
            if since > slot || idx >= self.expected.len() {
                verdict = Err(format!(
                    "slot {slot}: {} on {} is from the future",
                    d.client, d.page
                ));
                break;
            }
            let wait = slot - since + 1;
            let on_time = wait <= self.expected[idx];
            if d.wait != wait || d.within_deadline != on_time {
                verdict = Err(format!(
                    "slot {slot}: {} waited {wait} (on time {on_time}), station says {} ({})",
                    d.client, d.wait, d.within_deadline
                ));
                break;
            }
            if self.slot[idx].n == 0 {
                self.touched.push(idx);
            }
            self.slot[idx].add(id);
            self.total_wait += wait;
            self.max_wait = self.max_wait.max(wait);
            self.delivered += 1;
            self.late += u64::from(!on_time);
        }
        if verdict.is_ok() {
            for (ch, page) in on_air.iter().enumerate() {
                let Some(page) = page else { continue };
                if corrupted[ch] {
                    continue;
                }
                let idx = page.index() as usize;
                if self.last_served[idx] == Some(slot) {
                    continue; // the page also aired on an earlier channel
                }
                if self.slot[idx] != self.pending[idx] {
                    verdict = Err(format!(
                        "slot {slot}: {page} served {} of {} pending clients",
                        self.slot[idx].n, self.pending[idx].n
                    ));
                    break;
                }
                self.pending[idx] = IdSet::default();
                self.slot[idx] = IdSet::default();
                self.last_served[idx] = Some(slot);
            }
        }
        for idx in self.touched.drain(..) {
            if verdict.is_ok() && self.slot[idx].n != 0 {
                verdict = Err(format!(
                    "slot {slot}: page {idx} delivered without an intact airing"
                ));
            }
            self.slot[idx] = IdSet::default();
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airsched_core::group::GroupLadder;
    use airsched_core::susc;
    use airsched_core::types::{ChannelId, GridPos, SlotIndex};
    use airsched_server::Station;

    #[test]
    fn theorem31_example_needs_two_channels() {
        // ⌈2/2 + 3/4⌉ = ⌈1.75⌉ = 2.
        assert_eq!(theorem31_minimum(&[(2, 2), (4, 3)]), 2);
        // Exactly full: 4/4 + 4/8 + 4/8 = 2.
        assert_eq!(theorem31_minimum(&[(4, 4), (8, 4), (16, 8)]), 2);
        // The Figure 4 uniform catalogue: 125 · (1/4 + … + 1/512) = 62.26.
        let fig4: Vec<(u64, u64)> = (2..=9).map(|k| (1u64 << k, 125)).collect();
        assert_eq!(theorem31_minimum(&fig4), 63);
    }

    #[test]
    fn analytic_wait_of_a_small_susc_program() {
        // Pages 0 and 1 (t = 2) air every 2 slots: gaps 2, 2 give
        // (3 + 3) / 4 = 1.5 slots. Pages 2, 3, 4 (t = 4) air once per
        // 4-slot cycle: one gap of 4 gives 10 / 4 = 2.5 slots. Over the
        // five pages: (1.5 + 1.5 + 3 · 2.5) / 5 = 2.1 slots.
        let hand = [vec![0, 2], vec![1, 3], vec![0], vec![1], vec![2]];
        let (mean, second) = analytic_wait(&hand, 4);
        assert!((mean - 2.1).abs() < 1e-12, "{mean}");
        // Second moments: a gap of 2 holds waits 1, 2 → 1 + 4 = 5, two
        // gaps → 10 / 4 = 2.5; a gap of 4 holds 1 + 4 + 9 + 16 = 30 →
        // 30 / 4 = 7.5.
        let expect = (2.0 * 2.5 + 3.0 * 7.5) / 5.0;
        assert!((second - expect).abs() < 1e-12, "{second}");

        // The real SUSC schedule for the same ladder has the same gaps.
        let ladder = GroupLadder::new(vec![(2, 2), (4, 3)]).unwrap();
        let program = susc::schedule(&ladder, 2).unwrap();
        let mut cols = vec![Vec::new(); 5];
        for col in 0..program.cycle_len() {
            for ch in 0..program.channels() {
                let pos = GridPos::new(ChannelId::new(ch), SlotIndex::new(col));
                if let Some(p) = program.page_at(pos) {
                    cols[p.index() as usize].push(col);
                }
            }
        }
        let (susc_mean, _) = analytic_wait(&cols, program.cycle_len());
        assert!((susc_mean - 2.1).abs() < 1e-12, "{susc_mean}");
    }

    #[test]
    fn brute_force_access_by_hand() {
        // One channel, cycle 4: page 0 at columns 0 and 2, page 1 at 1.
        let grid = [
            Some(PageId::new(0)),
            Some(PageId::new(1)),
            Some(PageId::new(0)),
            None,
        ];
        let expected = |p: PageId| if p.index() == 0 { 2 } else { 1 };
        let requests = [
            (PageId::new(0), 0), // airs at 0: wait 1, delay 0
            (PageId::new(0), 3), // next at 0 of the next cycle: wait 2, delay 0
            (PageId::new(1), 2), // next at 1 of the next cycle: wait 4, delay 3
        ];
        let totals = brute_force_access(1, 4, |_, c| grid[c as usize], expected, requests).unwrap();
        assert_eq!(
            totals,
            AccessTotals {
                requests: 3,
                wait: 7,
                delay: 3,
                max_wait: 4
            }
        );
        assert_eq!(totals.avg_delay(), 1.0);
        // A page that never airs is reported, not guessed.
        assert!(brute_force_access(1, 4, |_, _| None, expected, requests).is_none());
    }

    #[test]
    fn ledger_accepts_a_station_and_catches_a_forged_delivery() {
        let mut station = Station::new(1, 4).unwrap();
        station.publish(PageId::new(0), 2).unwrap();
        station.publish(PageId::new(1), 4).unwrap();
        let mut ledger = Ledger::new(vec![2, 4]);
        let arrivals = [PageId::new(1), PageId::new(0), PageId::new(1)];
        let mut buf = airsched_server::TickBuf::new();
        for (t, &page) in arrivals.iter().enumerate() {
            let id = station.subscribe(page).unwrap().raw();
            ledger.subscribe(page, id);
            station.tick_into(&mut buf);
            ledger
                .check_slot(
                    t as u64,
                    buf.on_air(),
                    buf.corrupted(),
                    buf.deliveries(),
                    |id| id,
                )
                .unwrap();
        }
        for _ in 0..4 {
            station.tick_into(&mut buf);
            let slot = buf.time();
            ledger
                .check_slot(
                    slot,
                    buf.on_air(),
                    buf.corrupted(),
                    buf.deliveries(),
                    |id| id,
                )
                .unwrap();
        }
        assert_eq!(ledger.waiting(), 0);
        assert_eq!(ledger.delivered, 3);
        assert_eq!(ledger.total_wait, station.stats().total_wait);

        // A delivery with the wrong wait is caught.
        let mut ledger = Ledger::new(vec![2, 4]);
        ledger.subscribe(PageId::new(0), 0);
        let mut forged = Station::new(1, 4).unwrap();
        forged.publish(PageId::new(0), 2).unwrap();
        forged.subscribe(PageId::new(0)).unwrap();
        let out = forged.tick();
        let mut bad = out.deliveries.clone();
        bad[0].wait += 1;
        let err = ledger
            .check_slot(0, &out.on_air, &out.corrupted, &bad, |_| 0)
            .unwrap_err();
        assert!(err.contains("waited"), "{err}");

        // A delivery to a client that asked for another page is caught by
        // the pending-set moments.
        let mut ledger = Ledger::new(vec![2, 4]);
        ledger.subscribe(PageId::new(1), 0);
        let mut swapped = out.deliveries.clone();
        swapped[0].page = PageId::new(0);
        let err = ledger
            .check_slot(0, &out.on_air, &out.corrupted, &swapped, |_| 0)
            .unwrap_err();
        assert!(err.contains("pending"), "{err}");
    }
}
