//! The traced pass: per-layer costs, timed from outside by calling each
//! layer's public functions on the workloads' own inputs, plus the
//! counters the service and simulators expose. One pass covers all four
//! workloads, because its drift guards compare them with each other.
//!
//! Layer numbers come from single-threaded loops (median over rounds of
//! the mean per operation), never from the timed end-to-end runs, so the
//! timing here cannot perturb those.

use std::hint::black_box;
use std::sync::Arc;

use sss_core::{decide_batch, ModelParams, Scenario};
use sss_exec::{SeedSequence, ThreadPool};
use sss_iosim::{presets, EventFileBasedPipeline, EventStreamingPipeline, FrameSource, WanProfile};
use sss_loadgen::{FleetSim, SessionReplay};
use sss_netsim::WaterFiller;
use sss_server::http::Parser;
use sss_server::{Batcher, CacheKey, DecideRequest, DecideResponse, DecisionCache};
use sss_sim::{BandwidthTrace, EventQueue, Fidelity, Seconds, TraceShape};
use sss_units::{Bytes, Rate, TimeDelta};

use crate::decide::{self, Inputs, HOT_KEYS};
use crate::sims::{
    fleet_config, fleet_faults, replay_config, replay_faults, FLEET_SESSIONS, REPLAY_FRAMES,
};
use crate::stats::{median, per_op_ns, time_s, SplitMix};
use crate::{nproc, Metric, Outcome, Workload};

/// Timing rounds per layer loop; each layer reports the median round.
const ROUNDS: usize = 9;
/// Recorded `/decide` requests the server-side layers replay.
const RECORDED: usize = 4096;
/// Single-thread `Batcher::submit` round trips per round.
const SUBMITS: usize = 512;
/// Concurrent flows in the water-filler, as in the fleet's 128 slots.
const FLOWS: usize = 128;
/// Stream ids for the layer loops' own `/decide` inputs, disjoint from
/// the phases of [`decide::measure`].
const PHASE_TRACE: u64 = 1 << 20;
/// Production cadence the replay and the fleet give every frame source.
const BURST_PERIOD_S: f64 = 1e-9;

/// Per-layer results plus the check tally of the runs made for them.
struct Pass {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Pass {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    fn check(&mut self, what: &str, faults: Vec<String>) {
        self.attempted += 1;
        if !faults.is_empty() {
            self.failed += 1;
            self.notes.push(format!("{what}: {}", faults.join("; ")));
        }
    }
}

/// The server-side layers, replayed single-threaded on recorded inputs;
/// the kernel also in chunks of `mean_batch`, the batch size observed.
fn server_layers(pass: &mut Pass, miss: &Inputs, hot: &Inputs, mean_batch: usize) {
    let bodies: Vec<String> = (0..RECORDED).map(|i| miss.body(PHASE_TRACE, i)).collect();
    let wires: Vec<Vec<u8>> = (0..RECORDED)
        .map(|i| {
            let mut w = Vec::new();
            miss.wire(PHASE_TRACE, i, &mut w);
            w
        })
        .collect();
    let parsed_all = wires.iter().all(|w| {
        matches!(Parser::new().push(w), Ok((used, Some(r))) if used == w.len() && r.path == "/decide")
    });
    pass.check(
        "http parse of recorded requests",
        if parsed_all {
            vec![]
        } else {
            vec!["a request did not parse".into()]
        },
    );
    pass.put(
        "server.http.parse_ns",
        "ns",
        per_op_ns(ROUNDS, RECORDED, || {
            for w in &wires {
                black_box(Parser::new().push(black_box(w)).ok());
            }
        }),
    );
    pass.put(
        "server.api.decode_ns",
        "ns",
        per_op_ns(ROUNDS, RECORDED, || {
            for b in &bodies {
                let request: DecideRequest = serde_json::from_str(black_box(b)).expect("parses");
                black_box(request.params().ok());
            }
        }),
    );
    let params: Vec<ModelParams> = bodies.iter().map(|b| decide::params_of(b)).collect();
    let reports = decide_batch(&params);
    pass.put(
        "server.api.encode_ns",
        "ns",
        per_op_ns(ROUNDS, RECORDED, || {
            for (p, r) in params.iter().zip(&reports) {
                let response = DecideResponse::from_report(p, r.clone());
                black_box(serde_json::to_string(&response).ok());
            }
        }),
    );
    pass.put(
        "core.batch.decide_ns_per_point.4096",
        "ns",
        per_op_ns(ROUNDS, RECORDED, || {
            black_box(decide_batch(black_box(&params)));
        }),
    );
    pass.put(
        "core.batch.decide_ns_per_point.mean_batch",
        "ns",
        per_op_ns(ROUNDS, RECORDED, || {
            for chunk in params.chunks(mean_batch) {
                black_box(decide_batch(black_box(chunk)));
            }
        }),
    );

    // The decision cache at capacity: hot keys inserted last stay resident.
    let cache = DecisionCache::new(4096);
    for p in &params {
        cache.insert(CacheKey::of(p), Arc::from("x"));
    }
    let hot_keys: Vec<CacheKey> = (0..HOT_KEYS)
        .map(|i| CacheKey::of(&decide::params_of(&hot.body(PHASE_TRACE, i))))
        .collect();
    for k in &hot_keys {
        cache.insert(*k, Arc::from("hot"));
    }
    let lookups: Vec<CacheKey> = (0..RECORDED).map(|i| hot_keys[i % HOT_KEYS]).collect();
    pass.check(
        "cache hit keys resident",
        if lookups.iter().all(|k| cache.get(k).is_some()) {
            vec![]
        } else {
            vec!["a hot key was evicted".into()]
        },
    );
    pass.put(
        "server.cache.hit_ns",
        "ns",
        per_op_ns(ROUNDS, RECORDED, || {
            for k in &lookups {
                black_box(cache.get(black_box(k)));
            }
        }),
    );
    let fresh: Vec<Vec<CacheKey>> = (0..ROUNDS)
        .map(|r| {
            (0..RECORDED)
                .map(|i| {
                    CacheKey::of(&decide::params_of(
                        &miss.body(PHASE_TRACE + 1 + r as u64, i),
                    ))
                })
                .collect()
        })
        .collect();
    let mut fresh = fresh.into_iter();
    let body: Arc<str> = Arc::from("x");
    pass.put(
        "server.cache.miss_insert_ns",
        "ns",
        per_op_ns(ROUNDS, RECORDED, || {
            for k in fresh.next().expect("one key set per round") {
                if cache.get(&k).is_none() {
                    cache.insert(k, body.clone());
                }
            }
        }),
    );

    // Batcher::submit round trips, one request in flight at a time.
    let batcher = Batcher::new(Arc::new(DecisionCache::new(4096)), nproc(), 32);
    let distinct: Vec<Vec<ModelParams>> = (0..ROUNDS)
        .map(|r| {
            (0..SUBMITS)
                .map(|i| decide::params_of(&miss.body(PHASE_TRACE + 100 + r as u64, i)))
                .collect()
        })
        .collect();
    let mut distinct = distinct.into_iter();
    pass.put(
        "server.batch.submit_us.decide_miss",
        "us",
        per_op_ns(ROUNDS, SUBMITS, || {
            for p in distinct.next().expect("one parameter set per round") {
                black_box(batcher.submit(p).ok());
            }
        }) / 1e3,
    );
    let hot_params: Vec<ModelParams> = (0..SUBMITS)
        .map(|i| decide::params_of(&hot.body(PHASE_TRACE, i)))
        .collect();
    for p in &hot_params {
        let _ = batcher.submit(*p);
    }
    pass.put(
        "server.batch.submit_us.decide_hit",
        "us",
        per_op_ns(ROUNDS, SUBMITS, || {
            for p in &hot_params {
                black_box(batcher.submit(*p).ok());
            }
        }) / 1e3,
    );
}

/// The water-filler at the fleet's concurrency, fed the caps the fleet's
/// catalog sessions demand (their full and dipped bursty rates).
fn waterfill_layers(pass: &mut Pass, seed: u64) {
    let caps: Vec<f64> = Scenario::all()
        .iter()
        .flat_map(|s| {
            let eff = s.params.effective_rate().as_bytes_per_sec();
            [eff, 0.3 * eff]
        })
        .collect();
    let mut rng = SplitMix::stream(seed, 0x57a7);
    let mut pick = move || caps[(rng.next_u64() % caps.len() as u64) as usize];
    let mut wf = WaterFiller::new(Rate::from_gbps(40.0).as_bytes_per_sec());
    let base: Vec<_> = (0..FLOWS).map(|_| wf.insert(pick())).collect();
    let updates: Vec<(usize, f64)> = (0..RECORDED).map(|i| (i * 7919 % FLOWS, pick())).collect();
    pass.put(
        "netsim.waterfill.update_ns",
        "ns",
        per_op_ns(ROUNDS, RECORDED, || {
            for &(i, cap) in &updates {
                wf.update(base[i], cap);
            }
            black_box(wf.level());
        }),
    );
    // Insert half as many again, then remove them: k stays in 128..192.
    let extra: Vec<f64> = (0..FLOWS / 2).map(|_| pick()).collect();
    let mut inserts = Vec::new();
    let mut removes = Vec::new();
    for _ in 0..ROUNDS * 8 {
        let (ids, t) = time_s(|| extra.iter().map(|&c| wf.insert(c)).collect::<Vec<_>>());
        inserts.push(t * 1e9 / extra.len() as f64);
        let ((), t) = time_s(|| ids.into_iter().for_each(|id| wf.remove(id)));
        removes.push(t * 1e9 / extra.len() as f64);
    }
    pass.put("netsim.waterfill.insert_ns", "ns", median(&inserts));
    pass.put("netsim.waterfill.remove_ns", "ns", median(&removes));
}

/// Hold-model push+pop on an event queue kept at `depth` pending events.
fn queue_push_pop_ns(seed: u64, depth: usize) -> f64 {
    let mut rng = SplitMix::stream(seed, depth as u64);
    let mut q: EventQueue<Seconds, u32> = EventQueue::new();
    for i in 0..depth {
        q.schedule(Seconds::new(rng.unit()), i as u32);
    }
    let steps: Vec<f64> = (0..RECORDED).map(|_| rng.unit()).collect();
    per_op_ns(ROUNDS, RECORDED, || {
        for &dt in &steps {
            let (t, e) = q.pop().expect("the queue holds `depth` events");
            q.schedule(Seconds::new(t.value() + dt), e);
        }
    })
}

/// Base rate, horizon and data volume of a catalog session, as the
/// replay and the fleet derive them.
fn session_shape(p: &ModelParams) -> (Rate, f64, f64) {
    let s_bytes = p.data_unit.as_b();
    let theta = p.theta.value();
    let effective = p.effective_rate().as_bytes_per_sec();
    (
        Rate::from_bytes_per_sec(effective / theta),
        theta * s_bytes / effective,
        s_bytes,
    )
}

/// Returns the mean segment count of the traces measured.
fn trace_layers(pass: &mut Pass, seed: u64) -> f64 {
    let catalog = Scenario::all();
    let seeds = SeedSequence::new(seed);
    let shapes: Vec<(Rate, f64, f64, u64)> = catalog
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let (base, horizon, bytes) = session_shape(&s.params);
            (base, horizon, bytes, seeds.seed(k as u64))
        })
        .collect();
    let build_ns = per_op_ns(ROUNDS, shapes.len() * 16, || {
        for _ in 0..16 {
            for &(base, horizon, _, s) in &shapes {
                black_box(TraceShape::Bursty.build(base, horizon, s));
            }
        }
    });
    pass.put("sim.trace.build_us", "us", build_ns / 1e3);
    let traces: Vec<(BandwidthTrace, f64)> = shapes
        .iter()
        .map(|&(base, horizon, bytes, s)| (TraceShape::Bursty.build(base, horizon, s), bytes))
        .collect();
    let segments: usize = traces.iter().map(|(t, _)| t.segments()).sum();
    let frames = f64::from(fleet_config(seed).frames);
    // The fleet's fluid movement: frames produced at 1 ns cadence drain
    // through the session's trace.
    let fluid_ns = per_op_ns(ROUNDS, segments * 16, || {
        for _ in 0..16 {
            for (trace, bytes) in &traces {
                let rate = bytes / (frames * BURST_PERIOD_S);
                black_box(trace.fluid_completion(BURST_PERIOD_S, rate, *bytes, 1.0, f64::INFINITY));
            }
        }
    });
    pass.put("sim.trace.fluid_ns_per_segment", "ns", fluid_ns);
    segments as f64 / traces.len() as f64
}

/// Every `simulate_exact` cell replayed sequentially through the two
/// event pipelines, as `SessionReplay` builds them. Returns the summed
/// per-cell seconds.
fn iosim_layers(pass: &mut Pass, seed: u64) -> f64 {
    let catalog = Scenario::all();
    let seeds = SeedSequence::new(seed);
    let mut stream_s = 0.0;
    let mut staged_s = 0.0;
    let mut cells_s = 0.0;
    let mut cells = 0usize;
    for (si, scenario) in catalog.iter().enumerate() {
        for (hi, shape) in TraceShape::ALL.iter().enumerate() {
            let idx = si * TraceShape::ALL.len() + hi;
            let ((), cell) = time_s(|| {
                let (base, horizon, bytes) = session_shape(&scenario.params);
                let trace = shape.build(base, horizon, seeds.seed(idx as u64));
                let source = FrameSource::new(
                    REPLAY_FRAMES,
                    Bytes::from_b(bytes / f64::from(REPLAY_FRAMES)),
                    TimeDelta::from_secs(BURST_PERIOD_S),
                );
                let wan = WanProfile {
                    bandwidth: base,
                    rtt: TimeDelta::ZERO,
                    per_message_overhead: TimeDelta::ZERO,
                };
                let stream = EventStreamingPipeline::new(source, wan, trace.clone());
                stream_s += time_s(|| black_box(stream.run_fidelity(Fidelity::Exact))).1;
                let mut path = presets::aps_to_alcf();
                path.wan = wan;
                let staged = EventFileBasedPipeline::new(source, 16, path, trace);
                staged_s += time_s(|| black_box(staged.run_fidelity(Fidelity::Exact))).1;
            });
            cells_s += cell;
            cells += 1;
        }
    }
    let frames = (cells * REPLAY_FRAMES as usize) as f64;
    pass.put("iosim.stream_ns_per_frame", "ns", stream_s * 1e9 / frames);
    pass.put("iosim.staged_ns_per_frame", "ns", staged_s * 1e9 / frames);
    cells_s
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut pass = Pass {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        notes: vec![format!(
            "traced pass over all workloads (named: {})",
            workload.name()
        )],
    };
    let workers = nproc() as f64;
    let miss = Inputs::new(seed, false);
    let hot = Inputs::new(seed, true);

    // Each decide workload measured end to end, then the server layers.
    let miss_run = decide::measure(seed, seconds, false);
    let hit_run = decide::measure(seed, seconds, true);
    let mean_batch = miss_run.mean_batch.round().max(1.0) as usize;
    server_layers(&mut pass, &miss, &hot, mean_batch);
    for (name, run) in [("decide_miss", &miss_run), ("decide_hit", &hit_run)] {
        pass.put(&format!("{name}.latency_p50_ms"), "ms", run.latency_p50_ms);
        pass.put(&format!("{name}.latency_p99_ms"), "ms", run.latency_p99_ms);
        pass.put(
            &format!("{name}.capacity_rps_p99_1ms"),
            "1/s",
            run.capacity_rps,
        );
        pass.put(&format!("{name}.setup_s"), "s", run.setup_s);
        pass.put(
            &format!("{name}.lateness_p99_us"),
            "us",
            run.lateness_p99_us,
        );
        pass.put(
            &format!("server.batch.mean_batch.{name}"),
            "count",
            run.mean_batch,
        );
        pass.put(
            &format!("server.cache.hit_ratio.{name}"),
            "ratio",
            run.hit_ratio,
        );
        let stages_us = (pass.get("server.http.parse_ns") + pass.get("server.api.decode_ns")) / 1e3
            + pass.get(&format!("server.batch.submit_us.{name}"));
        let p50_us = run.latency_p50_ms * 1e3;
        pass.put(
            &format!("server.residual_us.{name}"),
            "us",
            p50_us - stages_us,
        );
        pass.put(
            &format!("trace.coverage.{name}"),
            "ratio",
            stages_us / p50_us,
        );
        pass.attempted += run.checked.attempted;
        pass.failed += run.checked.failed;
        pass.notes.extend(run.notes.iter().cloned());
    }

    // Simulator layers.
    waterfill_layers(&mut pass, seed);
    pass.put(
        "sim.queue.push_pop_ns.fleet",
        "ns",
        queue_push_pop_ns(seed, FLEET_SESSIONS as usize),
    );
    pass.put(
        "sim.queue.push_pop_ns.exact",
        "ns",
        queue_push_pop_ns(seed, REPLAY_FRAMES as usize),
    );
    let segments_per_trace = trace_layers(&mut pass, seed);
    let cells_s = iosim_layers(&mut pass, seed);

    let pool = ThreadPool::new(nproc());
    let replay = SessionReplay::bundled(replay_config(seed)).expect("the replay is valid");
    let mut replay_walls = Vec::new();
    for _ in 0..2 {
        let (report, wall) = time_s(|| replay.run(&pool));
        replay_walls.push(wall);
        pass.check("simulate_exact report", replay_faults(&report));
    }
    let replay_wall = median(&replay_walls);
    pass.put(
        "exec.pool.efficiency",
        "ratio",
        cells_s / (workers * replay_wall),
    );
    let frame_ns = pass.get("iosim.stream_ns_per_frame") + pass.get("iosim.staged_ns_per_frame");
    let cells = (Scenario::all().len() * TraceShape::ALL.len()) as f64;
    pass.put(
        "trace.coverage.simulate_exact",
        "ratio",
        frame_ns * f64::from(REPLAY_FRAMES) * cells / (workers * replay_wall * 1e9),
    );

    let sim = FleetSim::bundled(fleet_config(seed)).expect("the fleet cell is valid");
    let mut fleet_walls = Vec::new();
    let mut events = Vec::new();
    for _ in 0..2 {
        let (report, wall) = time_s(|| sim.run(&pool).expect("the fleet cell replays"));
        fleet_walls.push(wall);
        events.push(report.events);
        pass.check("fleet_bursty report", fleet_faults(&report));
    }
    let fleet_wall = median(&fleet_walls);
    let events_n = events[0] as f64;
    pass.put("loadgen.fleet.events", "count", events_n);
    pass.put(
        "loadgen.fleet.ns_per_event",
        "ns",
        fleet_wall * 1e9 / events_n,
    );
    // The integrator is sequential (a water-filler change and a calendar
    // push+pop per event, a trace build per session); the per-session
    // fluid movements fan out across the pool.
    let sessions = f64::from(FLEET_SESSIONS);
    let accounted_ns = events_n
        * (pass.get("netsim.waterfill.update_ns") + pass.get("sim.queue.push_pop_ns.fleet"))
        + sessions * pass.get("sim.trace.build_us") * 1e3
        + sessions * segments_per_trace * pass.get("sim.trace.fluid_ns_per_segment") / workers;
    pass.put(
        "trace.coverage.fleet_bursty",
        "ratio",
        accounted_ns / (fleet_wall * 1e9),
    );

    // Drift guards: each workload must still exercise the layer it exists for.
    let mut guards = Vec::new();
    if hit_run.hit_ratio.is_nan() || hit_run.hit_ratio < 0.99 {
        guards.push(format!("decide_hit hit ratio {} < 0.99", hit_run.hit_ratio));
    }
    if miss_run.hit_ratio.is_nan() || miss_run.hit_ratio > 0.01 {
        guards.push(format!(
            "decide_miss hit ratio {} > 0.01",
            miss_run.hit_ratio
        ));
    }
    if events.windows(2).any(|w| w[0] != w[1]) {
        guards.push(format!("fleet events differ between runs: {events:?}"));
    }
    pass.check("drift guards", guards);

    Outcome {
        correct: pass.failed == 0,
        attempted: pass.attempted,
        failed: pass.failed,
        metrics: pass.metrics,
        notes: pass.notes,
    }
}
