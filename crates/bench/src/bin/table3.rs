//! Table 3: minimum I/O passes per phase — measured passes over the data
//! for PBSM and S³J on J1 (a join whose level files / candidate sets fit in
//! memory only partially).

use bench::{banner, join_inputs, paper_mem, pbsm_cfg, s3j_cfg};
use geom::Kpe;
use pbsm::{try_pbsm_join, Dedup};
use s3j::try_s3j_join;
use storage::{JoinError, Phase, RunControl, SimDisk};
use sweep::InternalAlgo;

fn main() -> Result<(), JoinError> {
    banner(
        "Table 3",
        "minimum I/O passes per phase (measured bytes / replicated input bytes)",
        "PBSM: write 1 (partitioning) + occasional repartitioning + read 1 \
         (join). S3J: write 1 (partitioning) + read+write ≥1 each (sorting) \
         + read 1 (join)",
    );
    let (r, s) = join_inputs(1);
    let mem = paper_mem(2.5);

    let disk = SimDisk::with_default_model();
    let p = try_pbsm_join(
        &disk,
        &r,
        &s,
        &pbsm_cfg(mem, InternalAlgo::PlaneSweepList, Dedup::ReferencePoint),
        &RunControl::none(),
        &mut |_, _| {},
    )?;
    let pbsm_base = ((p.copies_r + p.copies_s) * Kpe::ENCODED_SIZE as u64) as f64;
    println!("PBSM (passes over its replicated input, {:.1} MB):", pbsm_base / 1048576.0);
    println!(
        "  partitioning   write {:.2}  read {:.2}",
        p.cost[Phase::Partition].io.bytes_written as f64 / pbsm_base,
        p.cost[Phase::Partition].io.bytes_read as f64 / pbsm_base
    );
    println!(
        "  repartitioning write {:.2}  read {:.2}   ({} pairs repartitioned)",
        p.cost[Phase::Repartition].io.bytes_written as f64 / pbsm_base,
        p.cost[Phase::Repartition].io.bytes_read as f64 / pbsm_base,
        p.repartitioned_pairs
    );
    println!(
        "  join           write {:.2}  read {:.2}",
        p.cost[Phase::Join].io.bytes_written as f64 / pbsm_base,
        p.cost[Phase::Join].io.bytes_read as f64 / pbsm_base
    );

    let disk = SimDisk::with_default_model();
    let q = try_s3j_join(
        &disk,
        &r,
        &s,
        &s3j_cfg(mem, true),
        &RunControl::none(),
        &mut |_, _| {},
    )?;
    let s3j_base = ((q.copies_r + q.copies_s) * 48) as f64; // LevelRecord
    println!();
    println!("S3J (passes over its level files, {:.1} MB):", s3j_base / 1048576.0);
    println!(
        "  partitioning   write {:.2}  read {:.2}",
        q.cost[Phase::Partition].io.bytes_written as f64 / s3j_base,
        q.cost[Phase::Partition].io.bytes_read as f64 / s3j_base
    );
    println!(
        "  sorting        write {:.2}  read {:.2}   ({} runs, ≤{} merge passes)",
        q.cost[Phase::Sort].io.bytes_written as f64 / s3j_base,
        q.cost[Phase::Sort].io.bytes_read as f64 / s3j_base,
        q.sort_runs,
        q.sort_passes_max
    );
    println!(
        "  join           write {:.2}  read {:.2}",
        q.cost[Phase::Join].io.bytes_written as f64 / s3j_base,
        q.cost[Phase::Join].io.bytes_read as f64 / s3j_base
    );
    Ok(())
}
