//! Typed controller/run trace records in a bounded ring buffer.
//!
//! Every consequential control decision — a sampled blocking-rate vector,
//! the solver's input and output weights, a decay application, an
//! exploration step, a cluster merge/split — is recorded as a
//! [`TraceEvent`]. The buffer is bounded: long runs evict the oldest
//! records and count them in [`TraceBuffer::dropped`] instead of growing
//! without limit.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default ring capacity: enough for ~18 hours of 1 s control rounds.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One control round's record: each connection's blocking rate over the
/// interval that just ended and the weights installed from it. The
/// simulator, the threaded planes and the proxy build one per round, push
/// it to the trace as [`TraceEvent::Sample`] and may keep it for their
/// reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSnapshot {
    /// Region index (0 for single-region runs).
    pub region: usize,
    /// Simulated/wall time of the round, ns since run start.
    pub t_ns: u64,
    /// Per-connection weights installed this round, in units of
    /// 1/resolution.
    pub weights: Vec<u32>,
    /// Per-connection blocking rates observed over the interval.
    pub rates: Vec<f64>,
    /// Tuples released in order during the interval (0 where the plane
    /// counts no deliveries, as the proxy does).
    pub delivered: u64,
    /// Cluster assignment per connection, when clustering is active.
    pub clusters: Option<Vec<usize>>,
}

impl RoundSnapshot {
    /// The round records in an event stream, in order, skipping every
    /// other event.
    #[must_use]
    pub fn series_from_events(events: &[TraceEvent]) -> Vec<RoundSnapshot> {
        events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sample(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }
}

/// One structured telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One control round's [`RoundSnapshot`].
    Sample(RoundSnapshot),
    /// One controller round: solver input (observed rates), the weights
    /// it started from and the weights it produced.
    ControllerRound {
        /// The balancer's round counter.
        round: u64,
        /// Blocking rates observed for this round, per connection.
        rates: Vec<f64>,
        /// Weights before rebalancing.
        weights_before: Vec<u32>,
        /// Weights after rebalancing (solver output + exploration).
        weights_after: Vec<u32>,
    },
    /// An adaptive-mode decay application over stale observations.
    Decay {
        /// The balancer's round counter.
        round: u64,
        /// The multiplicative decay factor applied (e.g. 0.9).
        decay: f64,
    },
    /// An exploration step: a connection's weight was nudged beyond the
    /// observation frontier to probe unexplored allocations.
    Exploration {
        /// The balancer's round counter.
        round: u64,
        /// The connection being explored.
        connection: usize,
        /// Weight before the nudge.
        from: u32,
        /// Weight after the nudge.
        to: u32,
    },
    /// The clustering of connections changed (merge/split/recompute).
    ClusterUpdate {
        /// The balancer's round counter.
        round: u64,
        /// Cluster index per connection.
        assignment: Vec<usize>,
    },
    /// An escape hatch for layer-specific numeric annotations.
    Custom {
        /// Event name (lower-snake dotted, like metric names).
        name: String,
        /// Named numeric payload fields.
        fields: Vec<(String, f64)>,
    },
}

impl TraceEvent {
    /// The event's type tag as exported (`"sample"`, `"controller_round"`,
    /// `"decay"`, `"exploration"`, `"cluster_update"`, `"custom"`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Sample(_) => "sample",
            TraceEvent::ControllerRound { .. } => "controller_round",
            TraceEvent::Decay { .. } => "decay",
            TraceEvent::Exploration { .. } => "exploration",
            TraceEvent::ClusterUpdate { .. } => "cluster_update",
            TraceEvent::Custom { .. } => "custom",
        }
    }
}

/// A trace event plus its global sequence number (assigned at push,
/// never reused — gaps after eviction are visible to consumers).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// 0-based position of this event in the full (pre-eviction) stream.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

#[derive(Debug)]
struct Ring {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, thread-safe ring buffer of [`TraceRecord`]s.
///
/// Cloning shares the underlying ring. Pushes are O(1); when full, the
/// oldest record is evicted and counted.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    ring: Arc<Mutex<Ring>>,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` records (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: Arc::new(Mutex::new(Ring {
                records: VecDeque::new(),
                capacity: capacity.max(1),
                next_seq: 0,
                dropped: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends an event, evicting the oldest record if full.
    pub fn push(&self, event: TraceEvent) {
        let _ = self.push_evicting(event);
    }

    /// Appends an event, returning the evicted event when the buffer was
    /// full. Producers that push heap-carrying events every round (e.g. the
    /// controller's per-round weight snapshots) reclaim the evicted event's
    /// buffers instead of letting them drop.
    pub fn push_evicting(&self, event: TraceEvent) -> Option<TraceEvent> {
        let mut r = self.lock();
        let evicted = if r.records.len() == r.capacity {
            r.dropped += 1;
            r.records.pop_front().map(|rec| rec.event)
        } else {
            None
        };
        let seq = r.next_seq;
        r.next_seq += 1;
        r.records.push_back(TraceRecord { seq, event });
        evicted
    }

    /// Number of records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// True when no records are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().records.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// How many records have been evicted so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Copies out the retained records, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.lock().records.iter().cloned().collect()
    }

    /// Copies out just the events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock()
            .records
            .iter()
            .map(|r| r.event.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decay(round: u64) -> TraceEvent {
        TraceEvent::Decay { round, decay: 0.9 }
    }

    #[test]
    fn push_and_read_back_in_order() {
        let b = TraceBuffer::with_capacity(8);
        for r in 0..5 {
            b.push(decay(r));
        }
        let recs = b.records();
        assert_eq!(recs.len(), 5);
        assert_eq!(b.dropped(), 0);
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.event, decay(i as u64));
        }
    }

    #[test]
    fn eviction_drops_oldest_and_counts() {
        let b = TraceBuffer::with_capacity(3);
        for r in 0..10 {
            b.push(decay(r));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.dropped(), 7);
        let recs = b.records();
        // Oldest retained is seq 7: sequence numbers survive eviction.
        assert_eq!(recs[0].seq, 7);
        assert_eq!(recs[2].seq, 9);
        assert_eq!(recs[2].event, decay(9));
    }

    #[test]
    fn push_evicting_returns_displaced_event() {
        let b = TraceBuffer::with_capacity(2);
        assert_eq!(b.push_evicting(decay(0)), None);
        assert_eq!(b.push_evicting(decay(1)), None);
        assert_eq!(b.push_evicting(decay(2)), Some(decay(0)));
        assert_eq!(b.push_evicting(decay(3)), Some(decay(1)));
        assert_eq!(b.dropped(), 2);
    }

    #[test]
    fn buffer_smaller_than_one_round_keeps_newest() {
        // A controller round emits several events; with a ring smaller than
        // one round, wrap-around must retain the newest tail of the newest
        // round and account for everything else in `dropped`.
        let b = TraceBuffer::with_capacity(2);
        let events_per_round = 4;
        let rounds = 5u64;
        for round in 0..rounds {
            b.push(TraceEvent::ControllerRound {
                round,
                rates: vec![0.5, 0.5],
                weights_before: vec![500, 500],
                weights_after: vec![500, 500],
            });
            b.push(decay(round));
            b.push(TraceEvent::Exploration {
                round,
                connection: 0,
                from: 500,
                to: 510,
            });
            b.push(TraceEvent::ClusterUpdate {
                round,
                assignment: vec![0, 0],
            });
        }
        let total = rounds * events_per_round;
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped(), total - 2);
        let recs = b.records();
        // The two survivors are the newest two events, with the original
        // (pre-eviction) sequence numbers, consecutive.
        assert_eq!(recs[0].seq, total - 2);
        assert_eq!(recs[1].seq, total - 1);
        assert_eq!(
            recs[1].event,
            TraceEvent::ClusterUpdate {
                round: rounds - 1,
                assignment: vec![0, 0],
            }
        );
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let b = TraceBuffer::with_capacity(0);
        b.push(decay(0));
        b.push(decay(1));
        assert_eq!(b.capacity(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.records()[0].seq, 1);
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(decay(0).kind(), "decay");
        let s = TraceEvent::Sample(RoundSnapshot {
            region: 0,
            t_ns: 0,
            weights: vec![],
            rates: vec![],
            delivered: 0,
            clusters: None,
        });
        assert_eq!(s.kind(), "sample");
    }
}
