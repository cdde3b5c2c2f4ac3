//! GIS overlay analysis: which railways/rivers cross which streets?
//!
//! The motivating workload of the paper's introduction — a map-overlay
//! filter step over two unindexed line datasets (e.g. intermediate results
//! of other operators, where no R-tree exists). Runs every algorithm in the
//! library on the same join and prints a comparison table.
//!
//! ```text
//! cargo run --release --example gis_overlay
//! ```

use spatial_join_suite::{Algorithm, JoinError, SpatialJoin};

fn main() -> Result<(), JoinError> {
    let scale = 0.1; // 10% of the paper's LA datasets; bump for bigger runs
    let roads = datagen::sized(&datagen::la_rr_config(7), scale).generate();
    let streets = datagen::sized(&datagen::la_st_config(7), scale).generate();
    let mem = 256 * 1024; // deliberately scarce, like the paper's 2.5 MB

    println!(
        "overlay: {} railway/river MBRs x {} street MBRs, M = {} KiB",
        roads.len(),
        streets.len(),
        mem / 1024
    );
    println!();
    println!(
        "{:<28} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "algorithm", "results", "dups", "cpu s", "io s", "total s"
    );

    let algorithms = vec![
        Algorithm::pbsm_original(mem),
        Algorithm::pbsm_rpm(mem),
        {
            // PBSM-RPM with the paper's interval-trie internal sweep.
            let mut cfg = match Algorithm::pbsm_rpm(mem) {
                Algorithm::Pbsm(c) => c,
                _ => unreachable!(),
            };
            cfg.internal = spatial_join_suite::InternalAlgo::PlaneSweepTrie;
            Algorithm::Pbsm(cfg)
        },
        Algorithm::s3j_original(mem),
        Algorithm::s3j_replicated(mem),
        Algorithm::sssj(mem),
        Algorithm::shj(mem),
    ];

    let mut expected: Option<u64> = None;
    for algo in algorithms {
        let join = SpatialJoin::new(algo);
        let (n, stats) = join.try_count(&roads, &streets)?;
        println!(
            "{:<28} {:>10} {:>10} {:>9.3} {:>9.3} {:>9.3}",
            join.algorithm().name(),
            n,
            stats.duplicates(),
            stats.cpu_seconds(),
            stats.io_seconds(),
            stats.total_seconds()
        );
        match expected {
            None => expected = Some(n),
            Some(e) => assert_eq!(e, n, "algorithms disagree on the result!"),
        }
    }

    println!();
    println!("all algorithms returned the identical result set — as they must.");
    Ok(())
}
