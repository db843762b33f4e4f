//! Micro-batching of concurrent `/decide` requests.
//!
//! Service threads do not evaluate the model themselves: they submit the
//! parsed parameters to the [`Batcher`] and block on a reply channel.
//! A single dispatcher thread drains whatever has accumulated in the
//! submission queue — up to `max_batch` requests — checks the decision
//! cache for each, decides **all** the misses with
//! `sss_core::decide_batch`, and then finishes the responses (break-even
//! boundaries, sensitivities, serialization) in **one**
//! [`sss_exec::ThreadPool`] task wave. Under load this amortizes the
//! fan-out across many requests (one wave per batch, run by the
//! dispatcher and the executor's parked helpers, not one per request)
//! while an idle service still answers a lone request immediately: the
//! dispatcher never waits for a batch to fill.
//!
//! Replies are the serialized response bodies (`Arc<str>`) produced by
//! [`DecideResponse::evaluate`] — pure, so batching and worker count can
//! change scheduling freely without changing a single response byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use crossbeam::channel;
use serde::{Deserialize, Serialize};
use sss_core::{decide_batch, DecisionReport, ModelParams};
use sss_exec::ThreadPool;

use crate::api::DecideResponse;
use crate::cache::{CacheKey, DecisionCache};

struct Job {
    key: CacheKey,
    params: ModelParams,
    reply: mpsc::Sender<Arc<str>>,
}

/// Point-in-time batching counters, served under `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Pool waves dispatched.
    pub batches: u64,
    /// Requests that flowed through the batcher.
    pub requests: u64,
    /// Largest batch observed so far.
    pub max_batch_observed: u64,
}

/// The `/decide` evaluation pipeline: submission queue, dispatcher thread,
/// thread pool and cache.
pub struct Batcher {
    tx: Option<channel::Sender<Job>>,
    dispatcher: Option<JoinHandle<()>>,
    batches: Arc<AtomicU64>,
    requests: Arc<AtomicU64>,
    max_observed: Arc<AtomicU64>,
}

/// Body served when an internal invariant breaks mid-request. A panic on
/// the dispatcher thread would kill batching for every future request, so
/// internal failures degrade to this body instead.
const INTERNAL_ERROR_BODY: &str = r#"{"error":"internal: response pipeline failure"}"#;

/// Serialize one evaluated response to its canonical body bytes.
/// `DecideResponse` is a pure value type, so serialization cannot fail
/// with the vendored serde_json — but if it ever does, the request gets
/// an error body rather than panicking the dispatcher.
fn serialize_body(response: &DecideResponse) -> Arc<str> {
    match serde_json::to_string(response) {
        Ok(json) => Arc::from(json),
        Err(_) => Arc::from(INTERNAL_ERROR_BODY),
    }
}

/// Evaluate and serialize one workload — the scalar reference the batched
/// wave is asserted against in tests.
#[cfg(test)]
fn evaluate_body(params: &ModelParams) -> Arc<str> {
    serialize_body(&DecideResponse::evaluate(params))
}

impl Batcher {
    /// Start the dispatcher, whose waves run `workers` wide, draining at
    /// most `max_batch` queued requests per wave.
    pub fn new(cache: Arc<DecisionCache>, workers: usize, max_batch: usize) -> Self {
        let max_batch = max_batch.max(1);
        let (tx, rx) = channel::unbounded::<Job>();
        let batches = Arc::new(AtomicU64::new(0));
        let requests = Arc::new(AtomicU64::new(0));
        let max_observed = Arc::new(AtomicU64::new(0));

        let counters = (batches.clone(), requests.clone(), max_observed.clone());
        let dispatcher = std::thread::spawn(move || {
            let pool = ThreadPool::new(workers);
            let (batches, requests, max_observed) = counters;
            // Blocks until work arrives; exits when every sender is gone.
            while let Ok(first) = rx.recv() {
                let mut jobs = vec![first];
                while jobs.len() < max_batch {
                    match rx.try_recv() {
                        Some(job) => jobs.push(job),
                        None => break,
                    }
                }
                batches.fetch_add(1, Ordering::Relaxed);
                requests.fetch_add(jobs.len() as u64, Ordering::Relaxed);
                max_observed.fetch_max(jobs.len() as u64, Ordering::Relaxed);

                // Cache pass: answer hits immediately, collect the misses.
                let mut bodies: Vec<Option<Arc<str>>> =
                    jobs.iter().map(|j| cache.get(&j.key)).collect();
                let miss_indices: Vec<usize> =
                    (0..jobs.len()).filter(|&i| bodies[i].is_none()).collect();

                // Decide the whole wave of misses on the dispatcher
                // thread, then finish each response — break-even,
                // sensitivities, serialization — across the pool. Duplicate keys within a wave evaluate redundantly
                // (same pure result) — harmless, and not worth an
                // intra-batch dedup pass.
                let miss_params: Vec<ModelParams> =
                    miss_indices.iter().map(|&i| jobs[i].params).collect();
                let reports: Vec<(ModelParams, DecisionReport)> = miss_params
                    .iter()
                    .copied()
                    .zip(decide_batch(&miss_params))
                    .collect();
                let fresh = pool.map(&reports, |(params, report)| {
                    serialize_body(&DecideResponse::from_report(params, report.clone()))
                });
                for (&i, body) in miss_indices.iter().zip(fresh) {
                    cache.insert(jobs[i].key, body.clone());
                    bodies[i] = Some(body);
                }

                for (job, body) in jobs.into_iter().zip(bodies) {
                    // Every job was answered by the cache pass or the miss
                    // wave; if that invariant ever breaks, serve an error
                    // body instead of panicking the dispatcher. A dropped
                    // receiver means the connection died while queued;
                    // nothing to do.
                    let body = body.unwrap_or_else(|| Arc::from(INTERNAL_ERROR_BODY));
                    let _ = job.reply.send(body);
                }
            }
        });

        Batcher {
            tx: Some(tx),
            dispatcher: Some(dispatcher),
            batches,
            requests,
            max_observed,
        }
    }

    /// Evaluate one workload through the batch pipeline, blocking until
    /// its response body is ready. Fails (instead of panicking the
    /// service thread) if the dispatcher is gone — the caller turns that
    /// into a 500 response.
    pub fn submit(&self, params: ModelParams) -> Result<Arc<str>, String> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = Job {
            key: CacheKey::of(&params),
            params,
            reply: reply_tx,
        };
        self.tx
            .as_ref()
            .ok_or_else(|| "batcher is shut down".to_string())?
            .send(job)
            .map_err(|_| "batch dispatcher is gone".to_string())?;
        reply_rx
            .recv()
            .map_err(|_| "batch dispatcher dropped the reply".to_string())
    }

    /// Current counters.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            batches: self.batches.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            max_batch_observed: self.max_observed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        // Close the queue so the dispatcher's recv() fails, then join it.
        drop(self.tx.take());
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
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
    fn single_request_round_trips() {
        let cache = Arc::new(DecisionCache::new(64));
        let batcher = Batcher::new(cache.clone(), 2, 8);
        let body = batcher.submit(params(0.8)).unwrap();
        assert!(body.contains("RemoteStream"), "{body}");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let cache = Arc::new(DecisionCache::new(64));
        let batcher = Batcher::new(cache.clone(), 2, 8);
        let first = batcher.submit(params(0.8)).unwrap();
        let second = batcher.submit(params(0.8)).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit must reuse the body");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn concurrent_submissions_batch_and_agree() {
        let cache = Arc::new(DecisionCache::new(1024));
        let batcher = Arc::new(Batcher::new(cache, 4, 32));
        let alphas: Vec<f64> = (0..64).map(|i| 0.30 + 0.01 * (i % 16) as f64).collect();
        let bodies: Vec<Arc<str>> = std::thread::scope(|scope| {
            let handles: Vec<_> = alphas
                .iter()
                .map(|&a| {
                    let batcher = batcher.clone();
                    scope.spawn(move || batcher.submit(params(a)).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every submission with the same alpha gets the same bytes.
        for (a, body) in alphas.iter().zip(&bodies) {
            let direct = evaluate_body(&params(*a));
            assert_eq!(body.as_ref(), direct.as_ref());
        }
        let stats = batcher.stats();
        assert_eq!(stats.requests, 64);
        assert!(stats.batches <= 64);
    }

    #[test]
    fn workers_do_not_change_bytes() {
        let run = |workers: usize| -> Vec<Arc<str>> {
            let cache = Arc::new(DecisionCache::new(0)); // force evaluation
            let batcher = Batcher::new(cache, workers, 16);
            (0..16)
                .map(|i| batcher.submit(params(0.5 + 0.02 * i as f64)).unwrap())
                .collect()
        };
        let one = run(1);
        let eight = run(8);
        for (a, b) in one.iter().zip(&eight) {
            assert_eq!(a.as_ref(), b.as_ref());
        }
    }
}
