//! Scheduler-property suite for multi-tenant QoS: weighted-fair sharing,
//! no-starvation, and scheduling-order-independence of results.
//!
//! The fairness properties run against [`SchedSim`] — the deterministic
//! simulator wrapping the *exact* DRR/EDF decision functions the serving
//! queue schedules by — with scripted arrival traces and a synthetic
//! clock, so every assertion is exact: no sleeps, no wall-clock reads, no
//! tolerance for "usually fair". The bit-match property runs against a
//! real service and demands exact equality on the output bits.

use ftgemm::core::Matrix;
use ftgemm::serve::{
    GemmRequest, GemmService, Priority, RoutingPolicy, SchedSim, ServiceConfig, TenantTable,
};
use proptest::prelude::*;
use std::time::Duration;

const FG: u32 = 1; // foreground / misbehaving tenant
const BG: u32 = 2; // background / victim tenant

/// Deterministic cost generator (xorshift64*) so traces are scripted by
/// seed, never by an ambient RNG.
fn costs(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// **No starvation.** A background tenant with nonzero weight is never
    /// starved, however adversarial the foreground load: between any two
    /// background serves (and before the first), the foreground tenant can
    /// serve at most one DRR round of flops — `fg_weight * quantum` of
    /// fresh credit plus one max-request of carried residual — no matter
    /// how many requests it floods in or that it marks them all High
    /// (priority classes are scoped *within* a tenant's lane, so they buy
    /// no cross-tenant share).
    #[test]
    fn background_tenant_never_starved_by_foreground_floods(
        fg_weight in 1u64..17,
        cost_scale in 1u64..9,
        seed in 0u64..1000,
        bg_n in 2usize..6,
    ) {
        let max_cost = 1024 * cost_scale;
        let table = TenantTable::new()
            .tenant(FG, fg_weight)
            .tenant(BG, 1)
            .quantum_flops(max_cost);
        let mut sim = SchedSim::new(table);
        let mut next = costs(seed);

        // Background work arrives first (Low class — the adversary cannot
        // be out-prioritized, only out-weighted); the foreground flood is
        // sized to keep its lane backlogged past every assertion below.
        for _ in 0..bg_n {
            sim.arrive(BG, Priority::Low, None, 1 + next() % max_cost);
        }
        let fg_items = 64 + fg_weight as usize * 16;
        for _ in 0..fg_items {
            sim.arrive(FG, Priority::High, None, 1 + next() % max_cost);
        }

        let bound = fg_weight * max_cost + max_cost;
        let mut bg_served = 0usize;
        let mut fg_flops_since_bg = 0u64;
        while bg_served < bg_n {
            let s = sim.pop().expect("backlog cannot drain before background is served");
            if s.tenant == BG {
                bg_served += 1;
                fg_flops_since_bg = 0;
            } else {
                fg_flops_since_bg += s.cost_flops;
                prop_assert!(
                    fg_flops_since_bg <= bound,
                    "foreground served {fg_flops_since_bg} flops without yielding \
                     (bound {bound}, fg_weight {fg_weight}, quantum {max_cost})"
                );
            }
        }
    }

    /// **Weighted-share isolation.** A misbehaving tenant flooding
    /// max-size GEMMs cannot depress a victim tenant's served-flops share
    /// below its configured weight share minus one max-request
    /// granularity. Measured over complete DRR rounds (the flooder's
    /// requests each cost exactly one quantum, so its per-round service is
    /// exact), with both lanes backlogged throughout by construction:
    ///
    /// ```text
    /// served_victim * (w_v + w_m)  >=  w_v * total_served - (w_v + w_m) * max_cost
    /// ```
    #[test]
    fn flooding_tenant_cannot_depress_victims_weighted_share(
        victim_weight in 1u64..9,
        flood_weight in 1u64..9,
        seed in 0u64..1000,
        rounds in 4u64..17,
    ) {
        let max_cost = 4096u64;
        let table = TenantTable::new()
            .tenant(BG, victim_weight)
            .tenant(FG, flood_weight)
            .quantum_flops(max_cost);
        let mut sim = SchedSim::new(table);
        let mut next = costs(seed);

        // Victim backlog: modest random requests, preloaded until the lane
        // holds more flops than `rounds` rounds can possibly serve it.
        let victim_capacity = (rounds + 1) * victim_weight * max_cost + max_cost;
        let mut preloaded = 0u64;
        while preloaded < victim_capacity {
            let cost = 1 + next() % max_cost;
            sim.arrive(BG, Priority::Normal, None, cost);
            preloaded += cost;
        }
        // Misbehaving flood: every request is a max-size GEMM, far more of
        // them than the window can serve.
        for _ in 0..(rounds * flood_weight + flood_weight) {
            sim.arrive(FG, Priority::High, None, max_cost);
        }

        // Each flooder visit serves exactly `flood_weight` quantum-sized
        // requests, so `rounds * flood_weight` flood serves == `rounds`
        // complete rounds.
        let mut total_served = 0u64;
        while sim.served_count(FG) < rounds * flood_weight {
            let s = sim.pop().expect("both lanes preloaded past the window");
            total_served += s.cost_flops;
        }

        let served_victim = sim.served_flops(BG);
        let w_total = (victim_weight + flood_weight) as u128;
        let lhs = served_victim as u128 * w_total + w_total * max_cost as u128;
        let rhs = victim_weight as u128 * total_served as u128;
        prop_assert!(
            lhs >= rhs,
            "victim share below weighted guarantee: served {served_victim} of \
             {total_served} at weights {victim_weight}:{flood_weight} (quantum {max_cost})"
        );
    }
}

/// **Scheduling order never changes results.** The same problems submitted
/// under permuted tenants, priorities, deadlines, and submission orders
/// produce bit-identical outputs: QoS decides *when* a request runs, never
/// *what* it computes. Routing is pinned so each problem always takes the
/// same execution path — the remaining degrees of freedom (lane order,
/// class order, EDF order, batch composition) are exactly what QoS
/// permutes, and none of them may touch the bits.
#[test]
fn results_bit_identical_across_qos_permutations() {
    let shapes: [(usize, usize, usize); 4] =
        [(40, 32, 24), (96, 80, 64), (64, 64, 64), (20, 20, 20)];
    let service_for = || {
        GemmService::<f64>::new(ServiceConfig {
            threads: 2,
            max_batch: 4,
            routing: RoutingPolicy::Fixed(2 * 48 * 48 * 48),
            tenants: TenantTable::new().tenant(FG, 8).tenant(BG, 1),
            ..ServiceConfig::default()
        })
    };
    let problem = |i: usize| {
        let (m, n, k) = shapes[i];
        GemmRequest::new(
            Matrix::<f64>::random(m, k, i as u64 * 7 + 1),
            Matrix::<f64>::random(k, n, i as u64 * 7 + 2),
        )
    };

    // Reference bits: each problem served alone, default QoS labels.
    let reference: Vec<Vec<u64>> = {
        let service = service_for();
        (0..shapes.len())
            .map(|i| {
                let resp = service.run(problem(i)).unwrap();
                resp.c.as_slice().iter().map(|v| v.to_bits()).collect()
            })
            .collect()
    };

    // Permuted scenarios: (submission order, tenant of problem i, class of
    // problem i, whether problem i carries a generous deadline).
    let orders: [[usize; 4]; 3] = [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]];
    let classes = [Priority::High, Priority::Normal, Priority::Low];
    for (scenario, order) in orders.iter().enumerate() {
        let service = service_for();
        let mut handles = Vec::new();
        for &i in order {
            let tenant = if (i + scenario) % 2 == 0 { FG } else { BG };
            let mut req = problem(i)
                .with_tenant(tenant)
                .with_priority(classes[(i + scenario) % classes.len()]);
            if i % 2 == 0 {
                req = req.with_deadline(Duration::from_secs(600));
            }
            handles.push((i, service.submit(req).unwrap()));
        }
        for (i, handle) in handles {
            let resp = handle.wait().unwrap();
            let bits: Vec<u64> = resp.c.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits, reference[i],
                "problem {i} bits differ in scenario {scenario} (order {order:?})"
            );
        }
        let snap = service.shutdown();
        assert_eq!(snap.completed, shapes.len() as u64);
        assert_eq!(snap.failed, 0);
    }
}
