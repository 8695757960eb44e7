//! The linear scheduling pass — the simple version the indexed
//! [`ClusterSim::schedule_pass`] replaces — kept as its test oracle, and
//! the differential test that holds the two to byte-identical runs.

use super::*;

impl ClusterSim {
    /// Drives every pass of this run with the linear oracle.
    pub(super) fn use_linear_pass(&mut self) {
        self.linear = true;
    }

    /// One scheduling pass that walks the pending queue entry by entry
    /// and probes every node for each entry that passes the loose
    /// per-dimension bound.
    pub(super) fn schedule_pass_linear(&mut self, now: SimTime, q: &mut EventQueue<Event>) {
        self.work.passes += 1;
        let mut preempt_budget = self.cfg.preempt_budget_per_pass;
        let mut max_avail = self.max_available();
        let mut lo = 0usize;
        let mut scanned = 0usize;
        while let Some((pos, t)) = self.pending.first_at_or_after(lo) {
            lo = pos + 1;
            scanned += 1;
            if scanned > self.cfg.max_schedule_scan {
                break;
            }
            self.work.pending_visited += 1;
            let demand = self.tasks[t as usize].spec.resources;
            let fits_somewhere = demand.fits_in(&max_avail);
            let node = if !fits_somewhere {
                None
            } else if self.has_checkpoint(t) {
                self.choose_restore_node(t, now)
            } else {
                self.choose_fresh_node(t, &demand)
            };
            match node {
                Some(n) => {
                    self.dequeue(t);
                    self.place_task(t, n, now, q);
                    max_avail = self.max_available();
                }
                None => {
                    if self
                        .reservations
                        .get(&t)
                        .is_some_and(|r| r.drains_left == 0)
                    {
                        self.cancel_reservation(t);
                    }
                    if self.cfg.policy != PreemptionPolicy::Wait && preempt_budget > 0 {
                        preempt_budget -= 1;
                        self.work.victim_searches += 1;
                        if self.try_preempt_for(t, now, q) == Preempted::Freed {
                            let node = if self.has_checkpoint(t) {
                                self.choose_restore_node(t, now)
                            } else {
                                self.choose_fresh_node(t, &demand)
                            };
                            if let Some(n) = node {
                                self.dequeue(t);
                                self.place_task(t, n, now, q);
                            }
                            max_avail = self.max_available();
                        }
                    }
                }
            }
        }
    }
}

mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use cbp_checkpoint::NvramSpec;
    use cbp_faults::FaultSpec;
    use cbp_simkit::units::ByteSize;
    use cbp_storage::MediaKind;
    use cbp_telemetry::JsonlTracer;
    use cbp_workload::google::GoogleTraceConfig;
    use proptest::prelude::*;

    use super::*;

    /// A `Write` sink whose buffer outlives the boxed tracer.
    #[derive(Clone, Default)]
    struct SharedBuf(Rc<RefCell<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Everything a run emits: JSONL trace, `RunMetrics` JSON, registry
    /// JSON, and the pass and victim-search counts (which the indexed pass
    /// must keep; the other work counters are what it saves).
    type Outputs = (Vec<u8>, String, String, (u64, u64));

    fn run(cfg: &SimConfig, workload: &Workload, linear: bool) -> Outputs {
        let buf = SharedBuf::default();
        let mut sim = ClusterSim::new(cfg.clone(), workload.clone());
        sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
        if linear {
            sim.use_linear_pass();
        }
        let report = sim.run();
        let trace = buf.0.borrow().clone();
        (
            trace,
            serde_json::to_string(&report.metrics).expect("metrics serialize"),
            report.telemetry.registry.to_json(),
            (report.telemetry.passes, report.telemetry.victim_searches),
        )
    }

    const PLANS: [Option<&str>; 4] = [
        None,
        Some("heavy"),
        Some("chaos"),
        Some("pressure,cap=0.01,leak=0.6,leak-window=300"),
    ];

    /// A small contended scenario: a short Google-like burst on a few
    /// 4-core nodes, with every knob the pass's shortcuts depend on. With
    /// more than five nodes the random probe start of cost-aware restore
    /// placement decides which nodes it compares, so a lost or extra RNG
    /// draw shows in the trace.
    #[allow(clippy::too_many_arguments)]
    fn scenario(
        seed: u64,
        nodes: usize,
        fair: bool,
        policy: PreemptionPolicy,
        plan: Option<&str>,
        nvram: bool,
        local_only: bool,
        failures: bool,
        scan: usize,
        budget: usize,
    ) -> (SimConfig, Workload) {
        let workload = GoogleTraceConfig::small(100.0).generate(seed);
        let mut cfg = SimConfig::trace_sim(policy, MediaKind::Hdd)
            .with_nodes(nodes)
            .with_node_resources(Resources::new_cores(4, ByteSize::from_gb(8)))
            .with_seed(seed);
        if failures {
            cfg = cfg.with_failures(
                SimDuration::from_secs(3 * 3600),
                SimDuration::from_secs(600),
            );
        }
        if fair {
            cfg = cfg.with_queue_discipline(QueueDiscipline::Fair);
        }
        if let Some(plan) = plan {
            let spec = FaultSpec::parse(&format!("{plan},seed={seed}")).expect("valid plan");
            cfg = cfg.with_faults(spec);
        }
        if nvram {
            cfg = cfg.with_nvram(NvramSpec::default());
        }
        if local_only {
            cfg = cfg.with_restore_placement(RestorePlacement::LocalOnly);
        }
        cfg.max_schedule_scan = scan;
        cfg.preempt_budget_per_pass = budget;
        (cfg, workload)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The indexed pass and the linear oracle produce byte-identical
        /// traces, metrics and registries, with the same passes and victim
        /// searches, while both the scan cap and the budget bind.
        #[test]
        fn indexed_pass_matches_linear_oracle(
            seed in 0u64..10_000,
            nodes in 2usize..10,
            fair in any::<bool>(),
            policy in 0usize..4,
            plan in 0usize..4,
            nvram in any::<bool>(),
            local_only in any::<bool>(),
            failures in any::<bool>(),
            scan in 1usize..13,
            budget in 0usize..5,
        ) {
            let (cfg, workload) = scenario(
                seed,
                nodes,
                fair,
                PreemptionPolicy::ALL[policy],
                PLANS[plan],
                nvram,
                local_only,
                failures,
                scan,
                budget,
            );
            let oracle = run(&cfg, &workload, true);
            let indexed = run(&cfg, &workload, false);
            prop_assert!(oracle.0 == indexed.0, "JSONL traces differ");
            prop_assert_eq!(&oracle.1, &indexed.1);
            prop_assert_eq!(&oracle.2, &indexed.2);
            prop_assert_eq!(oracle.3, indexed.3);
        }
    }

    /// The default caps (the benchmark's shape) on a busier scenario, where
    /// the indexed pass skips most of the queue: under each policy, with
    /// Fair queueing (jobs interleave, so priorities and demands mix along
    /// the queue), with local-only restores (a checkpointed task's search
    /// is pinned to its origin) and with node failures (nodes leave and
    /// rejoin the search).
    #[test]
    fn indexed_pass_matches_linear_oracle_at_default_caps() {
        use PreemptionPolicy::{Adaptive, Checkpoint, Kill};
        // (policy, plan, fair, local_only, failures)
        for (policy, plan, fair, local_only, failures) in [
            (Adaptive, None, false, false, false),
            (Checkpoint, Some("chaos"), false, false, false),
            (Kill, Some("heavy"), false, false, false),
            (Adaptive, None, true, false, false),
            (Checkpoint, None, false, true, false),
            (Adaptive, None, false, false, true),
        ] {
            let case = format!("{policy} fair={fair} local_only={local_only} failures={failures}");
            let (mut cfg, _) =
                scenario(3, 8, fair, policy, plan, false, local_only, failures, 1, 0);
            cfg.max_schedule_scan = 3_000;
            cfg.preempt_budget_per_pass = 64;
            let workload = GoogleTraceConfig::small(120.0).generate(3);
            let oracle = run(&cfg, &workload, true);
            let indexed = run(&cfg, &workload, false);
            assert!(oracle.0 == indexed.0, "{case}: JSONL traces differ");
            assert_eq!(oracle.1, indexed.1, "{case}: metrics differ");
            assert_eq!(oracle.2, indexed.2, "{case}: registries differ");
            assert_eq!(oracle.3, indexed.3, "{case}: pass counts differ");
        }
    }
}
