//! Memoized response caches keyed on exact request identity.
//!
//! Every endpoint of the service is pure: the serialized response for a
//! given request never changes, so repeated queries can be answered from
//! memory in O(1) instead of re-deriving the analysis. Two design points
//! matter:
//!
//! * **Exact keys.** A cached body is right only if its key is exactly
//!   the input the body was computed from. [`CacheKey`] is the seven
//!   model parameters' bit patterns, so a body is shared only by requests
//!   that evaluate the same numbers, and a change in the last bit of any
//!   parameter is a new entry whose bytes are the ones a fresh server
//!   would return.
//! * **Exact capacity.** One mutex guards one map and one FIFO, so a
//!   cache never holds more than its configured capacity and always
//!   evicts its oldest entry first. One lock is enough: only the batcher's
//!   one dispatcher thread reads and writes the `/decide` cache, and a
//!   compute route's memo is read once per request that then computes for
//!   milliseconds.
//!
//! The storage itself ([`ResponseCache`]) is generic over the key type:
//! [`DecisionCache`] keys `/decide` bodies on [`CacheKey`], and the
//! server keys each compute route's bodies (`/frontier`, `/simulate`,
//! `/fleet`) on the validated engine input, serialized.
//! Entries store the *serialized* response body (`Arc<str>`), not the
//! response struct: a cache hit returns the exact bytes the miss
//! produced, which is what makes responses byte-identical across worker
//! counts and across the hit/miss boundary.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sss_core::ModelParams;

/// A `/decide` cache key: the bit patterns of the seven model
/// parameters, the exact numbers the response is computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey([u64; 7]);

impl CacheKey {
    /// Key for a parameter set.
    pub fn of(p: &ModelParams) -> Self {
        CacheKey([
            p.data_unit.as_b().to_bits(),
            p.intensity.as_flop_per_byte().to_bits(),
            p.local_rate.as_flops().to_bits(),
            p.remote_rate.as_flops().to_bits(),
            p.bandwidth.as_bytes_per_sec().to_bits(),
            p.alpha.value().to_bits(),
            p.theta.value().to_bits(),
        ])
    }
}

struct Store<K> {
    // Iteration order over this map never reaches a response: lookups are
    // point `get`s, eviction order comes from `order` (a FIFO queue), and
    // `stats()` only reads `len()`. If that ever changes, swap in a
    // BTreeMap or sort before emitting — D001 exists to catch it.
    map: HashMap<K, Arc<str>>,
    // Insertion order for FIFO eviction: the front entry goes when an
    // insert takes the store past its capacity.
    order: VecDeque<K>,
}

/// Point-in-time cache counters, served under `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that had to evaluate the model.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity (0 = caching disabled).
    pub capacity: usize,
}

/// A body cache over any hashable key, holding at most its capacity and
/// evicting the oldest entry first. Capacity 0 disables storage entirely:
/// every lookup is a miss.
pub struct ResponseCache<K> {
    store: Mutex<Store<K>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The `/decide` response cache, keyed on the exact model parameters.
pub type DecisionCache = ResponseCache<CacheKey>;

impl<K: Hash + Eq + Clone> ResponseCache<K> {
    /// Cache bounded to `capacity` entries; 0 disables caching.
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            store: Mutex::new(Store {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a key, counting the hit or miss.
    pub fn get(&self, key: &K) -> Option<Arc<str>> {
        let found = self.peek(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Look up a key without counting it: the re-check of a request
    /// whose one lookup [`ResponseCache::get`] already counted.
    pub(crate) fn peek(&self, key: &K) -> Option<Arc<str>> {
        if self.capacity == 0 {
            return None;
        }
        self.store.lock().map.get(key).cloned()
    }

    /// Store a freshly-evaluated response body, evicting the oldest entry
    /// if the cache is full. A no-op when caching is disabled.
    pub fn insert(&self, key: K, body: Arc<str>) {
        if self.capacity == 0 {
            return;
        }
        let mut store = self.store.lock();
        if store.map.insert(key.clone(), body).is_none() {
            store.order.push_back(key);
            if store.order.len() > self.capacity {
                if let Some(oldest) = store.order.pop_front() {
                    store.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.store.lock().map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};

    fn params(alpha: f64) -> ModelParams {
        ModelParams::builder()
            .data_unit(Bytes::from_gb(2.0))
            .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
            .local_rate(FlopRate::from_tflops(10.0))
            .remote_rate(FlopRate::from_tflops(340.0))
            .bandwidth(Rate::from_gbps(25.0))
            .alpha(Ratio::new(alpha))
            .build()
            .unwrap()
    }

    #[test]
    fn hit_after_insert() {
        let cache = DecisionCache::new(64);
        let key = CacheKey::of(&params(0.8));
        assert!(cache.get(&key).is_none());
        cache.insert(key, Arc::from("body"));
        assert_eq!(cache.get(&key).as_deref(), Some("body"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn keys_are_the_exact_parameter_bits() {
        let a = CacheKey::of(&params(0.8));
        assert_eq!(a, CacheKey::of(&params(0.8)), "equal inputs share an entry");
        let b = CacheKey::of(&params(0.8 + 1e-13));
        assert_ne!(a, b, "a last-digits change is a different input");
        let next = CacheKey::of(&params(f64::from_bits(0.8f64.to_bits() + 1)));
        assert_ne!(a, next, "one ulp apart is a different input");
    }

    #[test]
    fn capacity_zero_disables_storage() {
        let cache = DecisionCache::new(0);
        let key = CacheKey::of(&params(0.8));
        cache.insert(key, Arc::from("body"));
        assert!(cache.get(&key).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.entries), (0, 0));
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn capacity_is_exact_and_eviction_oldest_first() {
        let keys: Vec<CacheKey> = (0..200)
            .map(|i| CacheKey::of(&params(0.2 + 0.003 * i as f64)))
            .collect();
        let one = DecisionCache::new(1);
        for k in &keys {
            one.insert(*k, Arc::from("x"));
            assert!(one.stats().entries <= 1);
        }
        assert_eq!((one.stats().entries, one.stats().evictions), (1, 199));

        let cache = DecisionCache::new(16);
        for k in &keys {
            cache.insert(*k, Arc::from("x"));
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (16, 184));
        let (evicted, newest) = keys.split_at(184);
        assert!(newest.iter().all(|k| cache.peek(k).is_some()));
        assert!(evicted.iter().all(|k| cache.peek(k).is_none()));
    }

    #[test]
    fn reinsert_does_not_grow_order() {
        let cache = DecisionCache::new(64);
        let key = CacheKey::of(&params(0.8));
        for _ in 0..100 {
            cache.insert(key, Arc::from("body"));
        }
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn string_keyed_cache_works() {
        // The generic storage also backs the compute routes' body caches,
        // keyed on the serialized engine input.
        let cache: ResponseCache<String> = ResponseCache::new(32);
        cache.insert("query-a".to_string(), Arc::from("map"));
        assert_eq!(cache.get(&"query-a".to_string()).as_deref(), Some("map"));
        assert!(cache.get(&"query-b".to_string()).is_none());
    }
}
