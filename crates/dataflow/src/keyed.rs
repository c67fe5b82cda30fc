//! Keyed (partitioned-stateful) parallel regions — the contrast case to the
//! paper's load-balanced stateless regions.
//!
//! The paper "assume[s] that all copies of F are stateless"; its cited
//! auto-parallelization work handles *partitioned stateful* operators by
//! hashing a key so every tuple of one key meets the same replica (and its
//! state). The price is exactly what motivates the paper's restriction:
//! routing is pinned by the hash, so the splitter **cannot rebalance** —
//! skewed keys or a slow host simply gate the region. A keyed region here
//! still preserves sequential semantics via the same sequence-numbered
//! merge.

use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::thread;

use streambal_runtime::ordered::{self, spawn_worker};

use crate::flow::Flow;

/// FNV-1a, fixed so partitioning is stable across platforms and runs.
fn stable_hash<K: Hash>(key: &K) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    key.hash(&mut h);
    h.finish()
}

impl<T: Send + 'static> Flow<T> {
    /// A **partitioned stateful** parallel region: `replicas` copies of the
    /// operator produced by `factory`, with every tuple routed by the hash
    /// of `key(t)` so all tuples of a key share one replica (and its
    /// state). Output leaves in exact input order.
    ///
    /// Unlike [`parallel`](Flow::parallel), there is no load balancing —
    /// the hash pins the routing, which is precisely why the paper restricts
    /// its balancer to stateless regions.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use streambal_dataflow::{source, RangeSource};
    ///
    /// // Per-key running counts, partitioned across 4 replicas.
    /// let (counts, _) = source(RangeSource::new(0..1_000))
    ///     .parallel_keyed(4, |x| x % 10, || {
    ///         let mut seen = std::collections::HashMap::new();
    ///         move |x: u64| {
    ///             let c = seen.entry(x % 10).or_insert(0u64);
    ///             *c += 1;
    ///             (x, *c)
    ///         }
    ///     })
    ///     .collect()
    ///     .unwrap();
    /// assert_eq!(counts.len(), 1_000);
    /// assert_eq!(counts[0], (0, 1));
    /// ```
    pub fn parallel_keyed<K, U, KF, F, Op>(
        self,
        replicas: usize,
        mut key: KF,
        factory: F,
    ) -> Flow<U>
    where
        K: Hash,
        U: Send + 'static,
        KF: FnMut(&T) -> K + Send + 'static,
        F: Fn() -> Op,
        Op: FnMut(T) -> U + Send + 'static,
    {
        assert!(replicas > 0, "region needs at least one replica");
        let capacity = self.capacity;
        let mut ops: Vec<Option<Op>> = (0..replicas).map(|_| Some(factory())).collect();

        self.add_stage("parallel_keyed", move |rx, tx, consumed, emitted| {
            let (out_tx, out_rx) = mpsc::channel::<(u64, U)>();
            let mut part_tx = Vec::with_capacity(replicas);
            let mut workers = Vec::with_capacity(replicas);
            for op_slot in ops.iter_mut() {
                let (ptx, prx) = streambal_transport::bounded::<(u64, T)>(capacity);
                part_tx.push(ptx);
                let op = op_slot.take().expect("each operator taken once");
                workers.push(spawn_worker(
                    "streambal-df-keyed".to_owned(),
                    std::iter::from_fn(move || prx.recv().ok()),
                    op,
                    out_tx.clone(),
                ));
            }
            drop(out_tx);
            // The merger releases downstream on a thread of its own, as in
            // `Flow::parallel`; this stage's thread only routes.
            let merger = thread::Builder::new()
                .name("streambal-df-keyed-merger".to_owned())
                .spawn(move || {
                    ordered::merge(&out_rx, |u| {
                        let sent = tx.send_recording(u).is_ok();
                        if sent {
                            emitted.fetch_add(1, Ordering::Relaxed);
                        }
                        sent
                    });
                })
                .expect("spawning the keyed merger thread succeeds");
            for (seq, t) in (0u64..).zip(std::iter::from_fn(|| rx.recv().ok())) {
                consumed.fetch_add(1, Ordering::Relaxed);
                let j = (stable_hash(&key(&t)) % replicas as u64) as usize;
                if part_tx[j].send_recording((seq, t)).is_err() {
                    break;
                }
            }
            // Closing the partitions lets the replicas drain in order and
            // exit, which in turn ends the merge.
            drop(part_tx);
            for worker in workers {
                let _ = worker.join();
            }
            if let Err(panic) = merger.join() {
                std::panic::resume_unwind(panic);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::flow::source;
    use crate::source::RangeSource;
    use std::collections::HashMap;

    #[test]
    fn keyed_region_preserves_order() {
        let (items, _) = source(RangeSource::new(0..20_000))
            .parallel_keyed(4, |x| x % 7, || |x: u64| x * 2)
            .collect()
            .unwrap();
        assert_eq!(items.len(), 20_000);
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u64 * 2, "order broken at {i}");
        }
    }

    #[test]
    fn per_key_state_is_consistent() {
        // Each key's running count must be exact: all tuples of a key meet
        // the same replica's state.
        let keys = 13u64;
        let (counts, _) = source(RangeSource::new(0..13_000))
            .parallel_keyed(
                5,
                move |x| x % keys,
                move || {
                    let mut seen: HashMap<u64, u64> = HashMap::new();
                    move |x: u64| {
                        let c = seen.entry(x % keys).or_insert(0);
                        *c += 1;
                        (x % keys, *c)
                    }
                },
            )
            .collect()
            .unwrap();
        // The final count for each key must equal its total occurrences.
        let mut finals: HashMap<u64, u64> = HashMap::new();
        for (k, c) in counts {
            let e = finals.entry(k).or_insert(0);
            *e = (*e).max(c);
        }
        for k in 0..keys {
            assert_eq!(finals[&k], 1_000, "key {k} lost state");
        }
    }

    #[test]
    fn single_replica_keyed_is_a_pipeline() {
        let (items, _) = source(RangeSource::new(0..100))
            .parallel_keyed(1, |x| *x, || |x: u64| x + 1)
            .collect()
            .unwrap();
        let expected: Vec<u64> = (1..=100).collect();
        assert_eq!(items, expected);
    }

    #[test]
    fn skewed_keys_still_complete() {
        // Every tuple has the same key: one replica does all the work, the
        // others idle — no balancing possible, but correctness holds.
        let (n, _) = source(RangeSource::new(0..5_000))
            .parallel_keyed(4, |_| 42u64, || |x: u64| x)
            .count()
            .unwrap();
        assert_eq!(n, 5_000);
    }
}
