//! Scheduling-order independence of results: the same problems submitted
//! in permuted orders, with and without deadlines, produce bit-identical
//! outputs against a real service.

use ftgemm::core::Matrix;
use ftgemm::serve::{GemmRequest, GemmService, RoutingPolicy, ServiceConfig};
use std::time::Duration;

/// **Scheduling order never changes results.** The same problems submitted
/// under permuted deadlines and submission orders produce bit-identical
/// outputs: order and deadlines decide *when* a request runs, never *what*
/// it computes. Routing is pinned so each problem always takes the same
/// execution path — the remaining degree of freedom (batch composition) is
/// exactly what the permutations change, and it may not touch the bits.
#[test]
fn results_bit_identical_across_qos_permutations() {
    let shapes: [(usize, usize, usize); 4] =
        [(40, 32, 24), (96, 80, 64), (64, 64, 64), (20, 20, 20)];
    let service_for = || {
        GemmService::<f64>::new(ServiceConfig {
            threads: 2,
            max_batch: 4,
            routing: RoutingPolicy::Fixed(2 * 48 * 48 * 48),
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

    // Reference bits: each problem served alone, no deadline.
    let reference: Vec<Vec<u64>> = {
        let service = service_for();
        (0..shapes.len())
            .map(|i| {
                let resp = service.run(problem(i)).unwrap();
                resp.c.as_slice().iter().map(|v| v.to_bits()).collect()
            })
            .collect()
    };

    // Permuted scenarios: submission order, and whether problem i carries
    // a generous deadline.
    let orders: [[usize; 4]; 3] = [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]];
    for (scenario, order) in orders.iter().enumerate() {
        let service = service_for();
        let mut handles = Vec::new();
        for &i in order {
            let mut req = problem(i);
            if (i + scenario) % 2 == 0 {
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
