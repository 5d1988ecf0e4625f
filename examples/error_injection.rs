//! Soft-error injection demo: watch FT-GEMM detect, locate, and correct
//! injected computing errors on the fly, while a plain GEMM silently
//! returns corrupted results.
//!
//! ```sh
//! cargo run --release --example error_injection
//! ```

use ftgemm::abft::{ft_gemm_with_ctx, FtConfig, Workspace};
use ftgemm::core::{reference::naive_gemm, Matrix};
use ftgemm::faults::{ErrorModel, FaultInjector, Rate};

fn main() {
    let n = 640;
    let a = Matrix::<f64>::random(n, n, 11);
    let b = Matrix::<f64>::random(n, n, 12);
    let mut truth = Matrix::<f64>::zeros(n, n);
    naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut truth.as_mut());

    for (label, model) in [
        ("bit flips", ErrorModel::BitFlip { bit: None }),
        (
            "additive bursts (~1e6)",
            ErrorModel::Additive { magnitude: 1e6 },
        ),
        ("scaling faults (x8)", ErrorModel::Scale { factor: 8.0 }),
    ] {
        let injector = FaultInjector::new(2024, model, Rate::Count(8));
        let cfg = FtConfig::with_injector(injector.clone());
        let mut c = Matrix::<f64>::zeros(n, n);
        let mut ctx = Workspace::<f64>::new();
        let report = ft_gemm_with_ctx(
            &mut ctx,
            &cfg,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .expect("unrecoverable error pattern");

        let diff = truth.rel_max_diff(&c);
        println!(
            "{label:24} injected={:2}  detected={:2}  corrected={:2}  rel diff vs truth = {diff:.2e}  -> {}",
            report.injected,
            report.detected,
            report.corrected,
            if diff < 1e-9 { "CORRECT" } else { "WRONG" },
        );
        assert!(diff < 1e-9, "fault tolerance failed");
    }

    // The same errors without fault tolerance: silent data corruption.
    // (We emulate by injecting into C after a clean run, as a faulty
    // machine would have.)
    let injector = FaultInjector::new(
        2024,
        ErrorModel::Additive { magnitude: 1e6 },
        Rate::Count(8),
    );
    let mut c = truth.clone();
    let mut stream = injector.stream(0, 64);
    let mut hits = 0;
    for site in 0..64 {
        if let Some(ev) = stream.poll() {
            let i = (ev.lane as usize) % n;
            let j = site % n;
            c.set(i, j, ev.apply_f64(c.get(i, j)));
            hits += 1;
        }
    }
    println!(
        "\nplain GEMM under the same {hits} faults: rel diff vs truth = {:.2e}  -> silent corruption",
        truth.rel_max_diff(&c)
    );
}
