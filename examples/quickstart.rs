//! Quick start: join two TIGER-like datasets with the paper's improved PBSM.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spatial_join_suite::{dataset_stats, Algorithm, JoinError, SpatialJoin};

fn main() -> Result<(), JoinError> {
    // 5%-scale equivalents of the paper's LA_RR (railways & rivers) and
    // LA_ST (streets) datasets — same coverage, same clustering.
    let roads = datagen::sized(&datagen::la_rr_config(42), 0.05).generate();
    let streets = datagen::sized(&datagen::la_st_config(42), 0.05).generate();

    for (name, data) in [("LA_RR(5%)", &roads), ("LA_ST(5%)", &streets)] {
        let st = dataset_stats(data).unwrap();
        println!("{name}: {} MBRs, coverage {:.3}", st.count, st.coverage);
    }

    // PBSM with 512 KiB of memory and online reference-point dedup.
    let join = SpatialJoin::new(Algorithm::pbsm_rpm(512 * 1024));
    let run = join.try_run(&roads, &streets)?;

    let selectivity = run.pairs.len() as f64 / (roads.len() as f64 * streets.len() as f64);
    println!();
    println!("algorithm        : {}", join.algorithm().name());
    println!("results          : {}", run.pairs.len());
    println!("selectivity      : {selectivity:.2e}");
    println!("duplicates (online-suppressed): {}", run.stats.duplicates());
    println!("cpu time         : {:.3} s", run.stats.cpu_seconds());
    println!("simulated disk   : {:.3} s", run.stats.io_seconds());
    println!("total runtime    : {:.3} s", run.stats.total_seconds());
    if let Some(first) = run.stats.first_result_seconds() {
        println!("first result at  : {first:.3} s (pipelined)");
    }

    // Peek at a few results.
    for (r, s) in run.pairs.iter().take(5) {
        println!("  road #{} intersects street #{}", r.0, s.0);
    }
    Ok(())
}
