//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a layer, a start and an end (nanoseconds since the tracer
//! was made) and the index of the span that caused it. Spans wrap whole
//! batches (one slot's subscribes, one slot's decodes), never single
//! ~10 ns calls, because a clock read costs tens of nanoseconds. They are
//! only summarized when the run ends: per layer, the span count, the busy
//! time (sum of durations) and the self time (busy time minus the part
//! covered by child spans).

use std::time::Instant;

/// The layers a span can be charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One serving slot, end to end (root).
    Slot,
    /// `Station::subscribe`, one span per slot's batch.
    Subscribe,
    /// `Station::fail_channel` / `restore_channel`.
    Failover,
    /// `Station::expire` + `Station::publish` swapping two pages.
    Republish,
    /// `Station::tick_into`.
    Tick,
    /// `SlotBroadcaster::encode_slot` on a slot without a template rebuild.
    Encode,
    /// `SlotBroadcaster::encode_slot` on a slot whose call rebuilt the cache.
    Rebuild,
    /// `Frame::decode_prefix` over the slot's wire image.
    Decode,
    /// `Receiver::consume` / `consume_corrupt` on sampled clients.
    Receive,
    /// The benchmark's own output checks.
    Check,
    /// One sweep point, end to end (root).
    Point,
    /// `pamad::schedule_with`.
    Pamad,
    /// `mpb::schedule`.
    Mpb,
    /// `opt::search_r_structured` + `place`.
    Opt,
    /// `airsched_sim::access::measure` (three calls per point).
    Measure,
    /// `airsched_solve::check_ladder`.
    Solve,
}

impl Layer {
    const COUNT: usize = 16;
    const ALL: [Layer; Layer::COUNT] = [
        Layer::Slot,
        Layer::Subscribe,
        Layer::Failover,
        Layer::Republish,
        Layer::Tick,
        Layer::Encode,
        Layer::Rebuild,
        Layer::Decode,
        Layer::Receive,
        Layer::Check,
        Layer::Point,
        Layer::Pamad,
        Layer::Mpb,
        Layer::Opt,
        Layer::Measure,
        Layer::Solve,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start: u64,
    end: u64,
    parent: Option<u32>,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, ns.
    pub busy_ns: u64,
    /// Busy time not covered by child spans, ns.
    pub self_ns: u64,
}

/// Records spans in memory; inert (no clock reads) when disabled.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans recorded so far are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds since the tracer was made. Always reads the clock: the
    /// benchmark times its operations with it whether or not spans are on.
    #[inline]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A span boundary: [`Tracer::now`] when recording, else 0 without
    /// reading the clock.
    #[inline]
    pub fn mark(&self) -> u64 {
        if self.enabled {
            self.now()
        } else {
            0
        }
    }

    /// Opens a root span at `start`; close it with [`Tracer::close`].
    pub fn open(&mut self, layer: Layer, start: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent: None,
        });
        Some(u32::try_from(self.spans.len() - 1).expect("span count fits in u32"))
    }

    /// Sets the end of an open span.
    pub fn close(&mut self, span: Option<u32>, end: u64) {
        if let Some(i) = span {
            self.spans[i as usize].end = end;
        }
    }

    /// Records a finished child span of `parent`.
    #[inline]
    pub fn record(&mut self, layer: Layer, start: u64, end: u64, parent: Option<u32>) {
        if self.enabled {
            self.spans.push(Span {
                layer,
                start,
                end,
                parent,
            });
        }
    }

    /// Per-layer count, busy time and self time over every span so far.
    pub fn totals(&self) -> [LayerTotals; Layer::COUNT] {
        let mut out = [LayerTotals::default(); Layer::COUNT];
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = &mut out[s.layer.index()];
            let busy = s.end - s.start;
            t.count += 1;
            t.busy_ns += busy;
            t.self_ns += busy.saturating_sub(covered);
        }
        out
    }

    /// A table of every layer that recorded spans: count, busy and self
    /// time, and busy time per root operation, closed by the check that
    /// the root's children plus its self time (the residual) add up to
    /// the root's own time. `Check` spans run off the root's clock and are
    /// listed but not added.
    pub fn report(&self, root: Layer) -> String {
        let totals = self.totals();
        let ops = totals[root.index()].count.max(1) as f64;
        let mut out = format!(
            "{:<10}{:>10}{:>12}{:>12}{:>14}\n",
            "layer", "spans", "busy ms", "self ms", "us per op"
        );
        let mut children = 0;
        for layer in Layer::ALL {
            let t = totals[layer.index()];
            if t.count == 0 {
                continue;
            }
            if layer != root && layer != Layer::Check {
                children += t.busy_ns;
            }
            out.push_str(&format!(
                "{:<10}{:>10}{:>12.3}{:>12.3}{:>14.3}\n",
                format!("{layer:?}"),
                t.count,
                t.busy_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.busy_ns as f64 / ops / 1e3
            ));
        }
        let r = totals[root.index()];
        out.push_str(&format!(
            "layers {:.3} us + residual {:.3} us = {:.3} us per op; the {root:?} spans took {:.3} us\n",
            children as f64 / ops / 1e3,
            r.self_ns as f64 / ops / 1e3,
            (children + r.self_ns) as f64 / ops / 1e3,
            r.busy_ns as f64 / ops / 1e3
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let root = tr.open(Layer::Slot, 100);
        tr.record(Layer::Tick, 110, 150, root);
        tr.record(Layer::Encode, 150, 170, root);
        tr.close(root, 200);
        let t = tr.totals();
        assert_eq!(t[Layer::Slot.index()].busy_ns, 100);
        assert_eq!(t[Layer::Slot.index()].self_ns, 40);
        assert_eq!(t[Layer::Tick.index()].self_ns, 40);
        assert_eq!(t[Layer::Encode.index()].count, 1);
        let report = tr.report(Layer::Slot);
        assert!(report.contains("= 0.100 us per op"), "{report}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let root = tr.open(Layer::Slot, tr.mark());
        tr.record(Layer::Tick, 0, 5, root);
        assert!(root.is_none());
        assert_eq!(tr.totals()[Layer::Tick.index()].count, 0);
    }
}
