//! Table VII — machine runtime of the three optimizers on DS and AB.
//!
//! Prints a single-run wall-clock version of the table.

use humo::QualityRequirement;
use humo_bench::{ab_workload, ds_workload, header, run_base, run_hybr, run_samp};
use std::time::Instant;

fn main() {
    header("Table VII", "machine runtime (seconds) of BASE/SAMP/HYBR on DS and AB");
    let requirement = QualityRequirement::symmetric(0.9).unwrap();
    println!("{:<8} {:>10} {:>10} {:>10} {:>10}", "Dataset", "# pairs", "BASE", "SAMP", "HYBR");
    for (name, workload) in [("DS", ds_workload(1)), ("AB", ab_workload(1))] {
        let t0 = Instant::now();
        let _ = run_base(&workload, requirement, 0);
        let base = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = run_samp(&workload, requirement, 0);
        let samp = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = run_hybr(&workload, requirement, 0);
        let hybr = t0.elapsed().as_secs_f64();
        println!("{name:<8} {:>10} {:>10.3} {:>10.3} {:>10.3}", workload.len(), base, samp, hybr);
    }
    println!(
        "\npaper (full-size workloads, 2017 hardware): DS 0.97 / 6.5 / 7.6 s and AB 3.1 / 20.9 / 53.5 s; \
         BASE is the fastest and the sampling-based searches cost more machine time"
    );
}
