//! Extension experiment: the no-index algorithms in context.
//!
//! The paper's related work sorts join methods by index availability. This
//! binary runs J1 across all three classes: the synchronized R-tree join
//! ([BKS 93], indices pre-exist and are free), SSSJ ([APR+ 98]) and the
//! improved PBSM/S³J of the paper. R-tree *construction* cost is reported
//! separately — the whole point of the no-index algorithms is that you do
//! not pay it.

use std::time::Instant;

use bench::{banner, join_inputs, paper_mem, pbsm_cfg, s3j_cfg};
use pbsm::{pbsm_join, Dedup};
use rtree::{paged_rtree_join, rtree_join, RTree};
use s3j::s3j_join;
use shj::{shj_join, ShjConfig};
use sssj::{sssj_join, SssjConfig};
use storage::{BufferPool, DiskModel, SimDisk};
use sweep::InternalAlgo;

fn main() {
    banner(
        "Extension: baselines",
        "J1 across index classes: R-tree join vs PBSM/S3J/SSSJ",
        "with indices given, the R-tree join wins; without, building them \
         first would dwarf the no-index algorithms",
    );
    let (r, s) = join_inputs(1);
    let mem = paper_mem(2.5);
    let model = DiskModel::default();

    println!("{:<26} {:>10} {:>12}", "method", "results", "total s");

    // R-tree join (indices assumed to pre-exist; CPU only, in memory).
    let t0 = Instant::now();
    let tr = RTree::bulk(&r, 64);
    let ts = RTree::bulk(&s, 64);
    let build_secs = model.scaled_cpu(t0.elapsed().as_secs_f64());
    let t1 = Instant::now();
    let mut n = 0u64;
    rtree_join(&tr, &ts, &mut |_, _| n += 1);
    let join_secs = model.scaled_cpu(t1.elapsed().as_secs_f64());
    println!("{:<26} {:>10} {:>12.1}", "R-tree join (in memory)", n, join_secs);

    // The honest variant: both trees on disk, traversed through small
    // buffer pools, I/O charged under the cost model.
    let disk = SimDisk::with_default_model();
    let pr = tr.to_paged(&disk);
    let psd = ts.to_paged(&disk);
    disk.reset_stats();
    let pool_pages = (mem / disk.model().page_size / 2).max(2);
    let mut pool_r = BufferPool::new(&disk, pool_pages);
    let mut pool_s = BufferPool::new(&disk, pool_pages);
    let t2 = Instant::now();
    let mut n2 = 0u64;
    paged_rtree_join(&pr, &psd, &mut pool_r, &mut pool_s, &mut |_, _| n2 += 1);
    let paged_secs = model.scaled_cpu(t2.elapsed().as_secs_f64()) + disk.io_seconds();
    assert_eq!(n, n2);
    println!(
        "{:<26} {:>10} {:>12.1}",
        "R-tree join (on disk)", n2, paged_secs
    );

    let disk = SimDisk::with_default_model();
    let st = pbsm_join(
        &disk,
        &r,
        &s,
        &pbsm_cfg(mem, InternalAlgo::PlaneSweepTrie, Dedup::ReferencePoint),
        &mut |_, _| {},
    );
    println!(
        "{:<26} {:>10} {:>12.1}",
        "PBSM (trie, RPM)",
        st.results,
        st.cost.total_seconds()
    );

    let disk = SimDisk::with_default_model();
    let st = s3j_join(&disk, &r, &s, &s3j_cfg(mem, true), &mut |_, _| {});
    println!(
        "{:<26} {:>10} {:>12.1}",
        "S3J (replicated)",
        st.results,
        st.cost.total_seconds()
    );

    let disk = SimDisk::with_default_model();
    let st = sssj_join(
        &disk,
        &r,
        &s,
        &SssjConfig {
            mem_bytes: mem,
            ..Default::default()
        },
        &mut |_, _| {},
    );
    println!("{:<26} {:>10} {:>12.1}", "SSSJ", st.results, st.cost.total_seconds());

    let disk = SimDisk::with_default_model();
    let st = shj_join(
        &disk,
        &r,
        &s,
        &ShjConfig {
            mem_bytes: mem,
            ..Default::default()
        },
        &mut |_, _| {},
    );
    println!(
        "{:<26} {:>10} {:>12.1}",
        "SHJ (spatial hash join)",
        st.results,
        st.cost.total_seconds()
    );

    println!();
    println!(
        "(STR bulk-building both R-trees costs {build_secs:.1}s of CPU alone — \
         the price the no-index algorithms avoid)"
    );
}
