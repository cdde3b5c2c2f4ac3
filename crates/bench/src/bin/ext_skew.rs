//! Extension experiment: the paper's §1 remark that SSSJ is "generally
//! superior" only "for artificial, highly skewed datasets", while on real
//! data it "performs similarly efficient" to PBSM.
//!
//! Compares PBSM(list), PBSM(trie), S³J and SSSJ on (a) TIGER-like line
//! data and (b) an artificial diagonal dataset of the same cardinality.

use bench::{banner, join_inputs, paper_mem, pbsm_cfg, s3j_cfg};
use pbsm::{pbsm_join, Dedup};
use s3j::s3j_join;
use sssj::{sssj_join, SssjConfig};
use storage::SimDisk;
use sweep::InternalAlgo;

fn run_all(label: &str, r: &[geom::Kpe], s: &[geom::Kpe], mem: usize) {
    println!("-- {label}: {} x {} MBRs", r.len(), s.len());
    println!(
        "{:<14} {:>10} {:>11} {:>11}",
        "method", "results", "cpu s", "total s"
    );
    let pbsm_run = |internal: InternalAlgo| {
        let disk = SimDisk::with_default_model();
        pbsm_join(
            &disk,
            r,
            s,
            &pbsm_cfg(mem, internal, Dedup::ReferencePoint),
            &mut |_, _| {},
        )
    };
    let list = pbsm_run(InternalAlgo::PlaneSweepList);
    println!(
        "{:<14} {:>10} {:>11.1} {:>11.1}",
        "PBSM(list)",
        list.results,
        list.cost.scaled_cpu_seconds(),
        list.cost.total_seconds()
    );
    let trie = pbsm_run(InternalAlgo::PlaneSweepTrie);
    println!(
        "{:<14} {:>10} {:>11.1} {:>11.1}",
        "PBSM(trie)",
        trie.results,
        trie.cost.scaled_cpu_seconds(),
        trie.cost.total_seconds()
    );
    let disk = SimDisk::with_default_model();
    let s3 = s3j_join(&disk, r, s, &s3j_cfg(mem, true), &mut |_, _| {});
    println!(
        "{:<14} {:>10} {:>11.1} {:>11.1}",
        "S3J(repl)",
        s3.results,
        s3.cost.scaled_cpu_seconds(),
        s3.cost.total_seconds()
    );
    let disk = SimDisk::with_default_model();
    let sw = sssj_join(
        &disk,
        r,
        s,
        &SssjConfig {
            mem_bytes: mem,
            ..Default::default()
        },
        &mut |_, _| {},
    );
    println!(
        "{:<14} {:>10} {:>11.1} {:>11.1}",
        "SSSJ",
        sw.results,
        sw.cost.scaled_cpu_seconds(),
        sw.cost.total_seconds()
    );
    assert!(list.results == trie.results && trie.results == s3.results && s3.results == sw.results);
    println!();
}

fn main() {
    banner(
        "Extension: skew",
        "real-like vs artificial highly-skewed (diagonal) data",
        "on real data SSSJ ≈ PBSM; on the diagonal dataset SSSJ pulls ahead \
         (grid partitioning degenerates, the sweep does not)",
    );
    let mem = paper_mem(2.5);
    let (r, s) = join_inputs(1);
    run_all("TIGER-like (J1)", &r, &s, mem);

    let dr = datagen::diagonal(r.len(), 0.002, 0.0015, 91);
    let ds = datagen::diagonal(s.len(), 0.002, 0.0015, 92);
    run_all("diagonal (skewed)", &dr, &ds, mem);
}
