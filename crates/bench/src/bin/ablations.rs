//! Ablations of the design choices DESIGN.md calls out, with deterministic
//! simulated-time numbers (complementing the wall-clock Criterion benches).
//!
//! * PBSM safety factor `t` in formula (1) (§3.2.3),
//! * tiles per partition (`NT = P · k`),
//! * tile→partition assignment: hash vs round-robin (on clustered data),
//! * S³J size-separation level shift (replication rate vs test count),
//! * S³J locational-code curve: Peano vs Hilbert (§4.4.2),
//! * S³J heap-merge scan vs naive level-pair scan (§4.4.3).

use bench::{banner, join_inputs, paper_mem, pbsm_cfg, s3j_cfg};
use pbsm::{pbsm_join, Dedup, TileScheme};
use s3j::{s3j_join, ScanMode};
use sfc::Curve;
use storage::{Phase, SimDisk};
use sweep::InternalAlgo;

fn main() {
    banner(
        "Ablations",
        "design-choice sweeps on J1 (and clustered data where noted)",
        "see DESIGN.md — these justify the defaults",
    );
    let (r, s) = join_inputs(1);
    let mem = paper_mem(2.5);

    println!("-- PBSM safety factor t (formula (1)): avoids the '1.99 -> P=2' trap");
    println!("{:>6} {:>4} {:>13} {:>11}", "t", "P", "repart pairs", "total s");
    for t in [1.0, 1.1, 1.2, 1.5, 2.0] {
        let disk = SimDisk::with_default_model();
        let mut cfg = pbsm_cfg(mem, InternalAlgo::PlaneSweepList, Dedup::ReferencePoint);
        cfg.safety_factor = t;
        let st = pbsm_join(&disk, &r, &s, &cfg, &mut |_, _| {});
        println!(
            "{:>6} {:>4} {:>13} {:>11.1}",
            t,
            st.partitions,
            st.repartitioned_pairs,
            st.cost.total_seconds()
        );
    }

    println!();
    println!("-- PBSM tiles per partition (NT = P*k): replication vs balance");
    println!("{:>6} {:>8} {:>11} {:>11}", "k", "tiles", "repl rate", "total s");
    for k in [1u32, 2, 4, 8, 16, 32] {
        let disk = SimDisk::with_default_model();
        let mut cfg = pbsm_cfg(mem, InternalAlgo::PlaneSweepList, Dedup::ReferencePoint);
        cfg.tiles_per_partition = k;
        let st = pbsm_join(&disk, &r, &s, &cfg, &mut |_, _| {});
        println!(
            "{:>6} {:>8} {:>11.3} {:>11.1}",
            k,
            st.grid.gx as u64 * st.grid.gy as u64,
            st.replication_rate(r.len() + s.len()),
            st.cost.total_seconds()
        );
    }

    println!();
    println!("-- PBSM tile->partition scheme on clustered data: hash fixes skew");
    let cr = datagen::clustered(r.len(), 3, 0.001, 77);
    let cs = datagen::clustered(s.len(), 3, 0.001, 78);
    println!(
        "{:>12} {:>13} {:>12} {:>11}",
        "scheme", "repart pairs", "max depth", "total s"
    );
    for scheme in [TileScheme::Hash, TileScheme::RoundRobin] {
        let disk = SimDisk::with_default_model();
        let mut cfg = pbsm_cfg(mem, InternalAlgo::PlaneSweepList, Dedup::ReferencePoint);
        cfg.tile_scheme = scheme;
        let st = pbsm_join(&disk, &cr, &cs, &cfg, &mut |_, _| {});
        println!(
            "{:>12} {:>13} {:>12} {:>11.1}",
            format!("{scheme:?}"),
            st.repartitioned_pairs,
            st.repart_depth,
            st.cost.total_seconds()
        );
    }

    println!();
    println!("-- S3J level shift: replication rate vs intersection tests");
    println!(
        "{:>6} {:>11} {:>14} {:>11}",
        "shift", "repl rate", "tests", "total s"
    );
    for shift in [0u8, 1, 2, 3] {
        let disk = SimDisk::with_default_model();
        let mut cfg = s3j_cfg(mem, true);
        cfg.level_shift = shift;
        let st = s3j_join(&disk, &r, &s, &cfg, &mut |_, _| {});
        println!(
            "{:>6} {:>11.3} {:>14} {:>11.1}",
            shift,
            st.replication_rate(r.len() + s.len()),
            st.join_counters.tests,
            st.cost.total_seconds()
        );
    }

    println!();
    println!("-- S3J curve (§4.4.2): same I/O, same tests, only code cost differs");
    println!(
        "{:>9} {:>12} {:>14} {:>12}",
        "curve", "io units", "tests", "part cpu s"
    );
    for curve in [Curve::Peano, Curve::Hilbert] {
        let disk = SimDisk::with_default_model();
        let mut cfg = s3j_cfg(mem, true);
        cfg.curve = curve;
        let st = s3j_join(&disk, &r, &s, &cfg, &mut |_, _| {});
        println!(
            "{:>9} {:>12.0} {:>14} {:>12.2}",
            format!("{curve:?}"),
            st.cost.model.units(&st.cost.io_total()),
            st.join_counters.tests,
            st.cost.model.scaled_cpu(st.cost[Phase::Partition].cpu)
        );
    }

    println!();
    println!("-- S3J scan mode (§4.4.3): heap merge vs naive level-pair scan");
    println!("{:>11} {:>14} {:>11}", "mode", "join io u", "total s");
    for mode in [ScanMode::HeapMerge, ScanMode::LevelPairs] {
        let disk = SimDisk::with_default_model();
        let mut cfg = s3j_cfg(mem, true);
        cfg.scan = mode;
        let st = s3j_join(&disk, &r, &s, &cfg, &mut |_, _| {});
        println!(
            "{:>11} {:>14.0} {:>11.1}",
            format!("{mode:?}"),
            st.cost.model.units(&st.cost[Phase::Join].io),
            st.cost.total_seconds()
        );
    }
}
