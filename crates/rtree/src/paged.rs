//! Disk-resident R-tree: one node per page, traversed through a
//! [`BufferPool`] so that index I/O is charged under the same `PT + n` cost
//! model as the no-index algorithms. This makes the "index on both
//! relations" baseline *honestly* comparable: the synchronized join reads
//! both trees from disk, and upper-level node revisits are absorbed by the
//! pool instead of being recharged.

use geom::{Kpe, Rect, RecordId};
use storage::{BufferPool, FileId, FileWriter, IoError, SimDisk};

use crate::{RTree, RtreeStats};

/// On-disk entry layout: rect (4 × f64) + child (u32) + id (u64).
const ENTRY_SIZE: usize = 32 + 4 + 8;
/// Node header: entry count (u16) + leaf flag (u8) + padding (u8).
const HEADER_SIZE: usize = 4;

/// A bulk-loaded R-tree serialised to a [`SimDisk`] file, one node per page.
pub struct PagedRTree {
    file: FileId,
    root: u32,
    height: u32,
    len: usize,
    node_count: usize,
}

/// A node decoded from its page.
struct DecodedNode {
    leaf: bool,
    entries: Vec<(Rect, u32, u64)>,
}

impl RTree {
    /// Serialises the tree to `disk`. Panics if the fanout does not fit a
    /// page (`fanout · 44 + 4 ≤ page_size`); a failed write surfaces as a
    /// typed error.
    pub fn try_to_paged(&self, disk: &SimDisk) -> Result<PagedRTree, IoError> {
        let ps = disk.model().page_size;
        assert!(
            self.fanout * ENTRY_SIZE + HEADER_SIZE <= ps,
            "fanout {} does not fit a {} byte page",
            self.fanout,
            ps
        );
        let file = disk.create();
        let mut w = FileWriter::new(disk, file, 16);
        let mut page = vec![0u8; ps];
        for node in &self.nodes {
            page.fill(0);
            page[0..2].copy_from_slice(&(node.entries.len() as u16).to_le_bytes());
            page[2] = u8::from(node.leaf);
            for (i, e) in node.entries.iter().enumerate() {
                let off = HEADER_SIZE + i * ENTRY_SIZE;
                page[off..off + 8].copy_from_slice(&e.rect.xl.to_le_bytes());
                page[off + 8..off + 16].copy_from_slice(&e.rect.yl.to_le_bytes());
                page[off + 16..off + 24].copy_from_slice(&e.rect.xh.to_le_bytes());
                page[off + 24..off + 32].copy_from_slice(&e.rect.yh.to_le_bytes());
                page[off + 32..off + 36].copy_from_slice(&e.child.to_le_bytes());
                page[off + 36..off + 44].copy_from_slice(&e.id.0.to_le_bytes());
            }
            w.try_write(&page)?;
        }
        w.try_finish()?;
        Ok(PagedRTree {
            file,
            root: self.root,
            height: self.height,
            len: self.len,
            node_count: self.nodes.len(),
        })
    }
}

impl PagedRTree {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    pub fn node_count(&self) -> usize {
        self.node_count
    }

    pub fn file(&self) -> FileId {
        self.file
    }

    fn node(&self, pool: &mut BufferPool, idx: u32) -> Result<DecodedNode, IoError> {
        let page = pool.try_get(self.file, idx as u64)?;
        let count = u16::from_le_bytes(page[0..2].try_into().unwrap()) as usize;
        let leaf = page[2] != 0;
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let off = HEADER_SIZE + i * ENTRY_SIZE;
            let f = |r: std::ops::Range<usize>| f64::from_le_bytes(page[r].try_into().unwrap());
            entries.push((
                Rect {
                    xl: f(off..off + 8),
                    yl: f(off + 8..off + 16),
                    xh: f(off + 16..off + 24),
                    yh: f(off + 24..off + 32),
                },
                u32::from_le_bytes(page[off + 32..off + 36].try_into().unwrap()),
                u64::from_le_bytes(page[off + 36..off + 44].try_into().unwrap()),
            ));
        }
        Ok(DecodedNode { leaf, entries })
    }

    /// Window query through the pool.
    pub fn try_window_query(
        &self,
        pool: &mut BufferPool,
        query: &Rect,
        out: &mut dyn FnMut(RecordId, &Rect),
    ) -> Result<RtreeStats, IoError> {
        let mut stats = RtreeStats::default();
        if self.len == 0 {
            return Ok(stats);
        }
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            stats.node_visits += 1;
            let node = self.node(pool, idx)?;
            for (rect, child, id) in &node.entries {
                stats.tests += 1;
                if rect.intersects(query) {
                    if node.leaf {
                        out(RecordId(*id), rect);
                    } else {
                        stack.push(*child);
                    }
                }
            }
        }
        Ok(stats)
    }
}

/// Synchronized join over two disk-resident R-trees, each traversed through
/// its own buffer pool. Same pairing semantics as [`crate::rtree_join`].
pub fn try_paged_rtree_join(
    r: &PagedRTree,
    s: &PagedRTree,
    pool_r: &mut BufferPool,
    pool_s: &mut BufferPool,
    out: &mut dyn FnMut(&Kpe, &Kpe),
) -> Result<RtreeStats, IoError> {
    let mut stats = RtreeStats::default();
    if r.is_empty() || s.is_empty() {
        return Ok(stats);
    }
    join_paged(
        r, s, pool_r, pool_s, r.root, s.root, r.height, s.height, &mut stats, out,
    )?;
    Ok(stats)
}

#[allow(clippy::too_many_arguments)]
fn join_paged(
    r: &PagedRTree,
    s: &PagedRTree,
    pool_r: &mut BufferPool,
    pool_s: &mut BufferPool,
    nr: u32,
    ns: u32,
    hr: u32,
    hs: u32,
    stats: &mut RtreeStats,
    out: &mut dyn FnMut(&Kpe, &Kpe),
) -> Result<(), IoError> {
    stats.node_visits += 1;
    let node_r = r.node(pool_r, nr)?;
    let node_s = s.node(pool_s, ns)?;
    let mbr = |n: &DecodedNode| {
        let mut it = n.entries.iter();
        let first = it.next().expect("non-empty node").0;
        it.fold(first, |acc, e| acc.union(&e.0))
    };
    if hr > hs {
        let s_mbr = mbr(&node_s);
        for (rect, child, _) in &node_r.entries {
            stats.tests += 1;
            if s_mbr.intersects(rect) {
                join_paged(r, s, pool_r, pool_s, *child, ns, hr - 1, hs, stats, out)?;
            }
        }
        return Ok(());
    }
    if hs > hr {
        let r_mbr = mbr(&node_r);
        for (rect, child, _) in &node_s.entries {
            stats.tests += 1;
            if r_mbr.intersects(rect) {
                join_paged(r, s, pool_r, pool_s, nr, *child, hr, hs - 1, stats, out)?;
            }
        }
        return Ok(());
    }
    // Same level: sort by xl and sweep, like the in-memory join.
    let mut er = node_r.entries;
    let mut es = node_s.entries;
    er.sort_unstable_by(|a, b| a.0.xl.total_cmp(&b.0.xl));
    es.sort_unstable_by(|a, b| a.0.xl.total_cmp(&b.0.xl));
    let leaf = node_r.leaf;
    let (mut i, mut j) = (0usize, 0usize);
    while i < er.len() && j < es.len() {
        if er[i].0.xl <= es[j].0.xl {
            let a = er[i];
            for b in &es[j..] {
                if b.0.xl > a.0.xh {
                    break;
                }
                stats.tests += 1;
                if a.0.yl <= b.0.yh && b.0.yl <= a.0.yh {
                    if leaf {
                        out(&Kpe::new(RecordId(a.2), a.0), &Kpe::new(RecordId(b.2), b.0));
                    } else {
                        join_paged(r, s, pool_r, pool_s, a.1, b.1, hr - 1, hs - 1, stats, out)?;
                    }
                }
            }
            i += 1;
        } else {
            let b = es[j];
            for a in &er[i..] {
                if a.0.xl > b.0.xh {
                    break;
                }
                stats.tests += 1;
                if a.0.yl <= b.0.yh && b.0.yl <= a.0.yh {
                    if leaf {
                        out(&Kpe::new(RecordId(a.2), a.0), &Kpe::new(RecordId(b.2), b.0));
                    } else {
                        join_paged(r, s, pool_r, pool_s, a.1, b.1, hr - 1, hs - 1, stats, out)?;
                    }
                }
            }
            j += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtree_join;
    use storage::DiskModel;

    fn disk() -> SimDisk {
        SimDisk::with_default_model()
    }

    fn datasets() -> (Vec<Kpe>, Vec<Kpe>) {
        (
            datagen::sized(&datagen::la_rr_config(31), 0.01).generate(),
            datagen::sized(&datagen::la_st_config(31), 0.01).generate(),
        )
    }

    #[test]
    fn paged_join_equals_in_memory_join() {
        let (r, s) = datasets();
        let tr = RTree::bulk(&r, 64);
        let ts = RTree::bulk(&s, 64);
        let mut want = Vec::new();
        rtree_join(&tr, &ts, &mut |a, b| want.push((a.id.0, b.id.0)));
        want.sort_unstable();

        let d = disk();
        let pr = tr.try_to_paged(&d).unwrap();
        let ps = ts.try_to_paged(&d).unwrap();
        let mut pool_r = BufferPool::new(&d, 8);
        let mut pool_s = BufferPool::new(&d, 8);
        let mut got = Vec::new();
        try_paged_rtree_join(&pr, &ps, &mut pool_r, &mut pool_s, &mut |a, b| {
            got.push((a.id.0, b.id.0))
        })
        .unwrap();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn paged_window_query_matches_in_memory() {
        let (r, _) = datasets();
        let t = RTree::bulk(&r, 64);
        let d = disk();
        let p = t.try_to_paged(&d).unwrap();
        let mut pool = BufferPool::new(&d, 4);
        for q in [Rect::new(0.1, 0.1, 0.4, 0.3), Rect::new(0.0, 0.0, 1.0, 1.0)] {
            let mut want: Vec<u64> = Vec::new();
            t.window_query(&q, &mut |id, _| want.push(id.0));
            want.sort_unstable();
            let mut got: Vec<u64> = Vec::new();
            p.try_window_query(&mut pool, &q, &mut |id, _| got.push(id.0))
                .unwrap();
            got.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn bigger_pool_fewer_disk_reads() {
        let (r, s) = datasets();
        let tr = RTree::bulk(&r, 64);
        let ts = RTree::bulk(&s, 64);
        let run = |cap: usize| {
            let d = disk();
            let pr = tr.try_to_paged(&d).unwrap();
            let ps = ts.try_to_paged(&d).unwrap();
            d.reset_stats();
            let mut pool_r = BufferPool::new(&d, cap);
            let mut pool_s = BufferPool::new(&d, cap);
            try_paged_rtree_join(&pr, &ps, &mut pool_r, &mut pool_s, &mut |_, _| {}).unwrap();
            d.stats().pages_read
        };
        let small = run(2);
        let huge = run(4096);
        assert!(huge < small, "pool should cut reads: {huge} vs {small}");
        // With full residency every node is read at most once.
        assert!(huge <= (tr.node_count() + ts.node_count()) as u64);
    }

    #[test]
    fn serialisation_roundtrip_via_full_scan() {
        let (r, _) = datasets();
        let t = RTree::bulk(&r, 32);
        let d = disk();
        let p = t.try_to_paged(&d).unwrap();
        assert_eq!(p.node_count(), t.node_count());
        assert_eq!(p.len(), r.len());
        let mut pool = BufferPool::new(&d, 64);
        let mut n = 0usize;
        p.try_window_query(&mut pool, &Rect::new(-1.0, -1.0, 2.0, 2.0), &mut |_, _| {
            n += 1
        })
        .unwrap();
        assert_eq!(n, r.len());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_fanout_is_rejected() {
        let d = SimDisk::new(DiskModel {
            page_size: 256,
            ..Default::default()
        });
        let (r, _) = datasets();
        let t = RTree::bulk(&r[..100], 64); // 64 * 44 + 4 > 256
        let _ = t.try_to_paged(&d);
    }
}
