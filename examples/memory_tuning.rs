//! Memory tuning: why PBSM(list) gets *slower* with more memory.
//!
//! A scaled-down rerun of the paper's Figure 5/14 analysis: sweep the memory
//! budget for a fixed join and watch the internal-algorithm crossover. With
//! the list-based sweep, bigger memory means bigger partitions and longer
//! forward scans — CPU grows and eats the I/O savings. The interval-trie
//! sweep keeps improving, and S³J is insensitive to memory except for
//! sorting.
//!
//! ```text
//! cargo run --release --example memory_tuning
//! ```

use pbsm::PbsmConfig;
use s3j::S3jConfig;
use spatial_join_suite::{Algorithm, InternalAlgo, JoinError, SpatialJoin};

fn main() -> Result<(), JoinError> {
    // CAL_ST-like self join at 2% scale.
    let cal = datagen::sized(&datagen::cal_st_config(9), 0.02).generate();
    println!(
        "self-join of a CAL_ST-like dataset: {} MBRs ({} KiB of KPEs)",
        cal.len(),
        cal.len() * 40 / 1024
    );
    println!();
    println!(
        "{:>9} {:>14} {:>14} {:>14}",
        "M (KiB)", "PBSM(list) s", "PBSM(trie) s", "S3J(repl) s"
    );

    for mem_kib in [64usize, 128, 256, 512, 1024, 2048] {
        let mem = mem_kib * 1024;
        let list = SpatialJoin::new(Algorithm::Pbsm(PbsmConfig {
            mem_bytes: mem,
            internal: InternalAlgo::PlaneSweepList,
            ..Default::default()
        }));
        let trie = SpatialJoin::new(Algorithm::Pbsm(PbsmConfig {
            mem_bytes: mem,
            internal: InternalAlgo::PlaneSweepTrie,
            ..Default::default()
        }));
        let s3j = SpatialJoin::new(Algorithm::S3j(S3jConfig {
            mem_bytes: mem,
            ..Default::default()
        }));
        let (n1, st_list) = list.try_count(&cal, &cal)?;
        let (n2, st_trie) = trie.try_count(&cal, &cal)?;
        let (n3, st_s3j) = s3j.try_count(&cal, &cal)?;
        assert!(n1 == n2 && n2 == n3, "algorithms disagree");
        println!(
            "{:>9} {:>14.3} {:>14.3} {:>14.3}",
            mem_kib,
            st_list.total_seconds(),
            st_trie.total_seconds(),
            st_s3j.total_seconds()
        );
    }

    println!();
    println!("expected shape (paper Figs 5 & 14): list flattens or worsens as M");
    println!("grows; trie keeps winning at large M; S3J is roughly flat.");
    Ok(())
}
