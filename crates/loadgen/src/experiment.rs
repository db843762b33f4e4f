//! One controlled-congestion experiment (a cell of Table 2).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use sss_netsim::{FlowId, FlowSpec, SimConfig, SimReport, SimTime, Simulator};
use sss_stats::TailMetrics;
use sss_units::{Bytes, Ratio, TimeDelta};

/// Client spawning strategy (§4: "two client spawning strategies").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpawnStrategy {
    /// Batch spawning: every client of second `k` starts at `t = k`,
    /// creating an instantaneous congestion spike (Figure 2a).
    Simultaneous,
    /// Scheduled spawning: clients of second `k` are spaced evenly across
    /// `[k, k+1)`. Smooths spikes, but cannot help once offered load
    /// exceeds capacity.
    Scheduled,
    /// Reserved slots: like `Scheduled`, but a client never starts before
    /// the previous reservation ends, with slots sized to ~1.5× the
    /// theoretical transfer time. This models Figure 2(b)'s "every
    /// transfer is scheduled to a specific time slot, and network
    /// bandwidth is reserved": transfers stay contention-free by
    /// construction, at the price of the calendar stretching beyond the
    /// nominal duration when oversubscribed.
    Reserved,
    /// Poisson arrivals at rate `concurrency` per second: the open-loop
    /// arrival model of classical queueing analysis, bridging to the
    /// M/M/1-style references in `sss_core::congestion` (the paper's
    /// future work on queueing effects). Each of a second's clients
    /// receives an exponentially-distributed offset within its second.
    Poisson,
}

/// Configuration of one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Network/TCP configuration (defaults mirror Table 1).
    pub config: SimConfig,
    /// Experiment duration in whole seconds (Table 2: 10 s).
    pub duration_s: u32,
    /// Clients spawned per second (Table 2: 1–8).
    pub concurrency: u32,
    /// Parallel TCP flows per client (Table 2: 2, 4, 8).
    pub parallel_flows: u32,
    /// Data volume per client (Table 2: 0.5 GB).
    pub bytes_per_client: Bytes,
    /// Spawning strategy.
    pub strategy: SpawnStrategy,
    /// Uniform start-time jitter applied per client, in seconds. Models
    /// orchestrator fork/exec dispersion (a few ms in practice); 0 for
    /// perfectly synchronized batches.
    pub start_jitter: f64,
    /// RNG seed for the jitter.
    pub seed: u64,
}

impl Experiment {
    /// Offered load as a fraction of bottleneck capacity:
    /// `concurrency × bytes_per_client / s` over the link rate.
    pub fn offered_load(&self) -> Ratio {
        let offered = self.bytes_per_client.as_b() * self.concurrency as f64; // per second
        Ratio::new(offered / self.config.bottleneck.rate.as_bytes_per_sec())
    }

    /// Ideal (transmission-only) transfer time for one client's volume at
    /// full link rate — the denominator of the Streaming Speed Score.
    pub fn theoretical_transfer_time(&self) -> TimeDelta {
        self.bytes_per_client / self.config.bottleneck.rate
    }

    /// Run the experiment to completion.
    ///
    /// # Panics
    /// Panics on invalid parameters (zero concurrency/flows/duration).
    pub fn run(&self) -> ExperimentResult {
        assert!(self.duration_s > 0, "duration must be positive");
        assert!(self.concurrency > 0, "concurrency must be positive");
        assert!(self.parallel_flows > 0, "need at least one flow per client");
        let n_clients = self.duration_s * self.concurrency;
        let mut rng = StdRng::seed_from_u64(self.seed);

        // One simulated host per client, as in the testbed (each iperf3
        // client is its own VM/NIC); its parallel flows share that NIC.
        let mut sim = Simulator::new(self.config, n_clients);
        let mut clients = Vec::with_capacity(n_clients as usize);
        let per_flow =
            Bytes::from_b((self.bytes_per_client.as_b() / self.parallel_flows as f64).ceil());

        // Reservation calendar state (Reserved strategy only): next free
        // slot start, with slots sized to 1.5× the theoretical transfer
        // time so the TCP ramp fits inside its reservation.
        let slot_len = 1.5 * self.theoretical_transfer_time().as_secs();
        let mut calendar_end = 0.0f64;

        for second in 0..self.duration_s {
            for slot in 0..self.concurrency {
                let client_idx = second * self.concurrency + slot;
                let base = match self.strategy {
                    SpawnStrategy::Simultaneous => second as f64,
                    SpawnStrategy::Scheduled => {
                        second as f64 + slot as f64 / self.concurrency as f64
                    }
                    SpawnStrategy::Reserved => {
                        let nominal = second as f64 + slot as f64 / self.concurrency as f64;
                        let start = nominal.max(calendar_end);
                        calendar_end = start + slot_len;
                        start
                    }
                    SpawnStrategy::Poisson => {
                        // Conditioned Poisson process: given the N arrivals
                        // of a second, their times are i.i.d. uniform over
                        // it (the order-statistics property), so each
                        // client draws an independent U[0, 1) offset.
                        second as f64 + rng.random_range(0.0..1.0)
                    }
                };
                let jitter = if self.start_jitter > 0.0 {
                    rng.random_range(0.0..self.start_jitter)
                } else {
                    0.0
                };
                let start = SimTime::from_secs(base + jitter);
                let flows: Vec<FlowId> = (0..self.parallel_flows)
                    .map(|_| sim.add_flow(FlowSpec::new(client_idx, per_flow, start)))
                    .collect();
                clients.push(ClientRecord {
                    client: client_idx,
                    spawn: start,
                    flows,
                    completion: None,
                });
            }
        }

        let report = sim.run();
        for c in &mut clients {
            let mut latest: Option<SimTime> = None;
            for fid in &c.flows {
                match report.flows[fid.0 as usize].completion {
                    Some(t) => latest = Some(latest.map_or(t, |l| l.max(t))),
                    None => {
                        latest = None;
                        break;
                    }
                }
            }
            c.completion = latest;
        }

        ExperimentResult {
            experiment: *self,
            clients,
            report,
        }
    }
}

/// One client session (a set of parallel flows spawned together).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRecord {
    /// Client host index.
    pub client: u32,
    /// Spawn time.
    pub spawn: SimTime,
    /// The parallel flows of this session.
    pub flows: Vec<FlowId>,
    /// When the last flow finished; `None` if any flow was truncated.
    pub completion: Option<SimTime>,
}

impl ClientRecord {
    /// Session transfer time (spawn → last flow complete).
    pub fn transfer_time(&self) -> Option<TimeDelta> {
        self.completion.map(|c| c.since(self.spawn))
    }
}

/// Result of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub experiment: Experiment,
    /// Per-client sessions.
    pub clients: Vec<ClientRecord>,
    /// The raw simulator report (link counters, per-flow records).
    pub report: SimReport,
}

impl ExperimentResult {
    /// Completed-session transfer times, in seconds.
    pub fn transfer_times(&self) -> Vec<f64> {
        self.clients
            .iter()
            .filter_map(|c| c.transfer_time().map(|t| t.as_secs()))
            .collect()
    }

    /// The worst-case transfer time `T_worst` (Eq. 11 numerator), over
    /// completed sessions. When the run was truncated with sessions still
    /// unfinished, the truncation horizon is a *lower bound* on the true
    /// worst case and is returned instead.
    pub fn worst_transfer_time(&self) -> Option<TimeDelta> {
        if self.clients.iter().any(|c| c.completion.is_none()) {
            return Some(self.report.config.max_sim_time);
        }
        self.clients
            .iter()
            .filter_map(ClientRecord::transfer_time)
            .max_by(|a, b| a.as_secs().total_cmp(&b.as_secs()))
    }

    /// Tail digest of completed transfer times.
    pub fn tail(&self) -> Option<TailMetrics> {
        TailMetrics::from_samples(&self.transfer_times())
    }

    /// Measured bottleneck utilization over the nominal experiment window
    /// extended to drain (total delivered bytes over capacity × makespan).
    /// This is the x-axis of Figure 2.
    pub fn utilization(&self) -> Ratio {
        let capacity = self.report.config.bottleneck.rate.as_bytes_per_sec();
        let makespan = self
            .report
            .end
            .as_secs()
            .max(self.experiment.duration_s as f64);
        Ratio::new(self.report.delivered.total_bytes() / (capacity * makespan))
    }

    /// Streaming Speed Score for this experiment: worst observed transfer
    /// time over the theoretical minimum (Eq. 11).
    pub fn streaming_speed_score(&self) -> Option<Ratio> {
        let worst = self.worst_transfer_time()?;
        Some(worst / self.experiment.theoretical_transfer_time())
    }

    /// True when every session finished within the horizon.
    pub fn all_completed(&self) -> bool {
        self.clients.iter().all(|c| c.completion.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSpec;

    fn small_exp(concurrency: u32, strategy: SpawnStrategy) -> Experiment {
        Experiment {
            config: SimConfig::small_test(),
            duration_s: 3,
            concurrency,
            parallel_flows: 2,
            bytes_per_client: Bytes::from_mb(2.0),
            strategy,
            start_jitter: 0.001,
            seed: 7,
        }
    }

    #[test]
    fn spawns_concurrency_times_duration_clients() {
        let r = small_exp(2, SpawnStrategy::Simultaneous).run();
        assert_eq!(r.clients.len(), 6);
        assert!(r.all_completed());
        // Each client got 2 flows.
        assert!(r.clients.iter().all(|c| c.flows.len() == 2));
    }

    #[test]
    fn scheduled_spawns_are_spaced() {
        let r = small_exp(4, SpawnStrategy::Scheduled).run();
        let spawns: Vec<f64> = r.clients.iter().map(|c| c.spawn.as_secs()).collect();
        // First second's clients at ~0, 0.25, 0.5, 0.75 (+jitter ≤ 1 ms).
        assert!((spawns[1] - 0.25).abs() < 0.01);
        assert!((spawns[2] - 0.5).abs() < 0.01);
        assert!((spawns[3] - 0.75).abs() < 0.01);
    }

    #[test]
    fn simultaneous_spawns_cluster() {
        let r = small_exp(4, SpawnStrategy::Simultaneous).run();
        let spawns: Vec<f64> = r.clients.iter().map(|c| c.spawn.as_secs()).collect();
        for s in &spawns[0..4] {
            assert!(*s < 0.002, "batch spawn at {s}");
        }
        for s in &spawns[4..8] {
            assert!((*s - 1.0).abs() < 0.002, "second batch at {s}");
        }
    }

    #[test]
    fn session_time_is_last_flow() {
        let r = small_exp(1, SpawnStrategy::Simultaneous).run();
        let c = &r.clients[0];
        let session = c.transfer_time().unwrap().as_secs();
        for fid in &c.flows {
            let fct = r.report.flows[fid.0 as usize].fct().unwrap().as_secs();
            assert!(session >= fct - 1e-9);
        }
    }

    /// The Table 2 cell at `concurrency` clients per second and P = 2.
    fn table2_cell(concurrency: u32) -> Experiment {
        SweepSpec::paper_grid(SpawnStrategy::Simultaneous, 1, 0)
            .experiments()
            .into_iter()
            .find(|e| e.concurrency == concurrency && e.parallel_flows == 2)
            .unwrap()
    }

    #[test]
    fn offered_load_formula() {
        let e = table2_cell(4);
        // 4 × 0.5 GB/s = 2 GB/s = 16 Gbps on a 25 Gbps link = 64%.
        assert!((e.offered_load().value() - 0.64).abs() < 1e-9);
    }

    #[test]
    fn theoretical_time_matches_paper() {
        let e = table2_cell(1);
        assert!((e.theoretical_transfer_time().as_secs() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn sss_at_least_one() {
        let r = small_exp(2, SpawnStrategy::Scheduled).run();
        let sss = r.streaming_speed_score().unwrap();
        assert!(sss.value() >= 1.0, "SSS {sss} < 1 breaks Eq. 11 semantics");
    }

    #[test]
    fn congestion_raises_worst_case() {
        let calm = small_exp(1, SpawnStrategy::Scheduled).run();
        let mut hot_exp = small_exp(8, SpawnStrategy::Simultaneous);
        hot_exp.bytes_per_client = Bytes::from_mb(8.0); // 64 MB/s on 125 MB/s
        let hot = hot_exp.run();
        let calm_worst = calm.worst_transfer_time().unwrap().as_secs();
        let hot_worst = hot.worst_transfer_time().unwrap().as_secs();
        assert!(
            hot_worst > 1.5 * calm_worst,
            "congested {hot_worst} vs calm {calm_worst}"
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let a = small_exp(3, SpawnStrategy::Simultaneous).run();
        let b = small_exp(3, SpawnStrategy::Simultaneous).run();
        assert_eq!(a.transfer_times(), b.transfer_times());
        assert_eq!(a.utilization().value(), b.utilization().value());
    }

    #[test]
    fn utilization_scales_with_concurrency() {
        let lo = small_exp(1, SpawnStrategy::Scheduled).run();
        let hi = small_exp(4, SpawnStrategy::Scheduled).run();
        assert!(hi.utilization().value() > 2.0 * lo.utilization().value());
    }

    #[test]
    #[should_panic(expected = "concurrency must be positive")]
    fn zero_concurrency_rejected() {
        let mut e = small_exp(1, SpawnStrategy::Scheduled);
        e.concurrency = 0;
        let _ = e.run();
    }

    #[test]
    fn poisson_arrivals_spread_within_seconds() {
        let r = small_exp(8, SpawnStrategy::Poisson).run();
        // Every spawn lands inside its nominal second.
        for (i, c) in r.clients.iter().enumerate() {
            let second = (i / 8) as f64;
            let s = c.spawn.as_secs();
            assert!(
                s >= second && s < second + 1.0 + 0.01,
                "spawn {s} outside [{second}, {})",
                second + 1.0
            );
        }
        // Arrivals are jittered, not batched: distinct times in second 0.
        let mut first: Vec<f64> = r.clients[0..8].iter().map(|c| c.spawn.as_secs()).collect();
        first.sort_by(f64::total_cmp);
        first.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        assert!(first.len() > 4, "expected spread arrivals, got {first:?}");
    }

    #[test]
    fn poisson_tail_sits_between_batch_and_reserved() {
        // Memoryless arrivals cluster less than batches but more than a
        // reservation calendar.
        let batch = small_exp(8, SpawnStrategy::Simultaneous).run();
        let poisson = small_exp(8, SpawnStrategy::Poisson).run();
        let reserved = small_exp(8, SpawnStrategy::Reserved).run();
        let w = |r: &ExperimentResult| r.worst_transfer_time().unwrap().as_secs();
        assert!(
            w(&poisson) <= w(&batch) * 1.2,
            "poisson {} batch {}",
            w(&poisson),
            w(&batch)
        );
        assert!(
            w(&reserved) <= w(&poisson) * 1.2,
            "reserved {} poisson {}",
            w(&reserved),
            w(&poisson)
        );
    }

    #[test]
    fn reserved_slots_never_overlap() {
        let r = small_exp(8, SpawnStrategy::Reserved).run();
        let slot = 1.5 * r.experiment.theoretical_transfer_time().as_secs();
        let mut spawns: Vec<f64> = r.clients.iter().map(|c| c.spawn.as_secs()).collect();
        spawns.sort_by(f64::total_cmp);
        for w in spawns.windows(2) {
            assert!(
                w[1] - w[0] >= slot - r.experiment.start_jitter - 1e-9,
                "reservations overlap: {} then {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn reserved_keeps_worst_case_flat_under_oversubscription() {
        // Even at 8× oversubscription, reserved transfers stay near solo
        // speed — the Figure 2(b) behaviour.
        let solo = small_exp(1, SpawnStrategy::Reserved).run();
        let hot = small_exp(8, SpawnStrategy::Reserved).run();
        let solo_worst = solo.worst_transfer_time().unwrap().as_secs();
        let hot_worst = hot.worst_transfer_time().unwrap().as_secs();
        assert!(
            hot_worst < 2.5 * solo_worst,
            "reserved should stay flat: {hot_worst} vs {solo_worst}"
        );
    }
}
