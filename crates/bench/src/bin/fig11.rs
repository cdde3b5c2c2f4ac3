//! Figure 11: S³J original vs S³J with replication on J5 — CPU time (left)
//! and total runtime (right) as functions of available memory.

use bench::{banner, cal_st, median_run, paper_mem, s3j_cfg};
use s3j::s3j_join;
use storage::SimDisk;

fn main() {
    banner(
        "Figure 11",
        "S3J original vs replicated, CPU and total time, J5",
        "replication cuts CPU time by an order of magnitude and total \
         runtime by a factor 2.5-4",
    );
    let cal = cal_st();
    println!(
        "{:<10} | {:>11} {:>11} {:>6} | {:>11} {:>11} {:>6}",
        "paper-M MB", "orig cpu s", "repl cpu s", "ratio", "orig tot s", "repl tot s", "ratio"
    );
    for mb in [5.0, 10.0, 15.0, 25.0, 40.0, 60.0, 80.0] {
        let mem = paper_mem(mb);
        let run = |replicate: bool| {
            median_run(
                || {
                    let disk = SimDisk::with_default_model();
                    s3j_join(&disk, cal, cal, &s3j_cfg(mem, replicate), &mut |_, _| {})
                },
                |st| st.cost.total_seconds(),
            )
        };
        let orig = run(false);
        let repl = run(true);
        assert_eq!(orig.results, repl.results);
        println!(
            "{:<10} | {:>11.1} {:>11.1} {:>6.1} | {:>11.1} {:>11.1} {:>6.1}",
            mb,
            orig.cost.scaled_cpu_seconds(),
            repl.cost.scaled_cpu_seconds(),
            orig.cost.scaled_cpu_seconds() / repl.cost.scaled_cpu_seconds(),
            orig.cost.total_seconds(),
            repl.cost.total_seconds(),
            orig.cost.total_seconds() / repl.cost.total_seconds()
        );
    }
}
