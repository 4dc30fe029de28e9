//! The benchmark's own spans: one `SpanEvent` around each call it makes
//! into a layer, kept in memory and written once at the end, plus the
//! self-time breakdown that turns them into a layer table.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tats_trace::spans::{self, SpanEvent, SpanForest, SpanKind};

/// Span names that are layers. Every other span (`run`, `job`,
/// `scenario`, the flow wrappers) only groups its children; its self time
/// is reported as unattributed.
pub const LAYERS: [&str; 12] = [
    "asp",
    "thermal",
    "floorplan",
    "grid",
    "taskgraph",
    "record",
    "http",
    "json",
    "journal",
    "registry",
    "lease",
    "worker",
];

/// Microsecond wall clock on a monotonic base, so span arithmetic never
/// sees the system clock step.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    base: Instant,
    epoch_us: u64,
}

impl Clock {
    pub fn new() -> Self {
        Clock {
            base: Instant::now(),
            epoch_us: spans::now_us(),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.epoch_us + self.base.elapsed().as_micros() as u64
    }
}

/// Collects spans when on; every method is a no-op when off, so the
/// untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    clock: Clock,
    next_id: u64,
    spans: Vec<SpanEvent>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            clock: Clock::new(),
            next_id: 0,
            spans: Vec::new(),
        }
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now(&self) -> u64 {
        if self.on {
            self.clock.now_us()
        } else {
            0
        }
    }

    /// A fresh span id (ids are never 0).
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start_us: u64,
        end_us: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.id();
        self.record_with_id(trace, id, parent, name, start_us, end_us);
        id
    }

    pub fn record_with_id(
        &mut self,
        trace: u64,
        id: u64,
        parent: Option<u64>,
        name: &str,
        start_us: u64,
        end_us: u64,
    ) {
        if self.on {
            self.spans.push(SpanEvent::new(
                trace.max(1),
                id,
                parent,
                name,
                SpanKind::Client,
                start_us,
                end_us.max(start_us),
            ));
        }
    }

    /// Lays `parts` out back to back from `start_us` as children of
    /// `parent`, clipped to `end_us`: how a duration measured inside one
    /// call (a `FlowPhases` field, a replayed server-side call) becomes a
    /// span without overlapping its siblings.
    pub fn carve(
        &mut self,
        trace: u64,
        parent: u64,
        start_us: u64,
        end_us: u64,
        parts: &[(&str, Duration)],
    ) {
        let mut cursor = start_us;
        for (name, duration) in parts {
            let end = (cursor + duration.as_micros() as u64).min(end_us);
            if end > cursor {
                self.record(trace, Some(parent), name, cursor, end);
            }
            cursor = end;
        }
    }

    pub fn into_spans(self) -> Vec<SpanEvent> {
        self.spans
    }
}

/// Self time per layer over a span set, as the layers' self times plus
/// the unattributed rest of the traced wall.
#[derive(Debug, Default)]
pub struct LayerTable {
    /// Layer → (self µs, spans).
    pub layers: BTreeMap<String, (u64, usize)>,
    pub unattributed_us: u64,
    /// Summed durations of the root spans.
    pub wall_us: u64,
}

impl LayerTable {
    pub fn build(spans: Vec<SpanEvent>) -> LayerTable {
        let forest = SpanForest::build(spans);
        let mut table = LayerTable::default();
        for layer in LAYERS {
            table.layers.insert(layer.to_string(), (0, 0));
        }
        table.wall_us = forest.roots().map(SpanEvent::duration_us).sum();
        for span in forest.spans() {
            let mut covered: Vec<(u64, u64)> = forest
                .children_of(span.span_id)
                .map(|child| {
                    (
                        child.start_us.clamp(span.start_us, span.end_us),
                        child.end_us.clamp(span.start_us, span.end_us),
                    )
                })
                .collect();
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start_us;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            let self_us = span.duration_us() - union;
            match table.layers.get_mut(span.name.as_str()) {
                Some((total, count)) => {
                    *total += self_us;
                    *count += 1;
                }
                None => table.unattributed_us += self_us,
            }
        }
        table
    }

    pub fn self_us(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |(us, _)| *us)
    }

    pub fn spans(&self, layer: &str) -> usize {
        self.layers.get(layer).map_or(0, |(_, count)| *count)
    }

    pub fn self_ms(&self, layer: &str) -> f64 {
        self.self_us(layer) as f64 / 1e3
    }

    pub fn share(&self, layer: &str) -> f64 {
        if self.wall_us == 0 {
            0.0
        } else {
            self.self_us(layer) as f64 / self.wall_us as f64
        }
    }

    /// Layer self times plus unattributed, which equals the wall exactly
    /// when spans nest and siblings do not overlap.
    pub fn accounted_us(&self) -> u64 {
        self.layers.values().map(|(us, _)| us).sum::<u64>() + self.unattributed_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_wall() {
        let mut tracer = Tracer::new(true);
        let root = tracer.record(1, None, "run", 0, 100);
        let asp = tracer.record(1, Some(root), "asp", 10, 50);
        tracer.record(1, Some(asp), "thermal", 20, 30);
        tracer.carve(
            1,
            root,
            60,
            90,
            &[
                ("grid", Duration::from_micros(20)),
                ("record", Duration::from_micros(40)),
            ],
        );
        let table = LayerTable::build(tracer.into_spans());
        assert_eq!(table.wall_us, 100);
        assert_eq!(table.self_us("asp"), 30);
        assert_eq!(table.self_us("thermal"), 10);
        assert_eq!(table.self_us("grid"), 20);
        // Clipped to the 30 µs the carve was given.
        assert_eq!(table.self_us("record"), 10);
        assert_eq!(table.unattributed_us, 30);
        assert_eq!(table.accounted_us(), table.wall_us);
    }
}
