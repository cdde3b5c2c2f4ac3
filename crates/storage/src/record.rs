use geom::Kpe;

use crate::{FileReader, FileWriter, FileId, IoError, SimDisk};

/// A fixed-length, byte-serialisable record — the unit of all intermediate
/// files (partitions, level files, runs, candidate sets).
pub trait FixedRecord: Copy {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Serialises into `buf[..Self::SIZE]`.
    fn encode(&self, buf: &mut [u8]);
    /// Inverse of [`FixedRecord::encode`].
    fn decode(buf: &[u8]) -> Self;
}

impl FixedRecord for Kpe {
    const SIZE: usize = Kpe::ENCODED_SIZE;

    fn encode(&self, buf: &mut [u8]) {
        Kpe::encode(self, buf);
    }

    fn decode(buf: &[u8]) -> Self {
        Kpe::decode(buf)
    }
}

/// A candidate/result tuple of the filter step: a pair of record
/// identifiers. This is what PBSM's original duplicate-removal phase sorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdPair {
    pub r: u64,
    pub s: u64,
}

impl FixedRecord for IdPair {
    const SIZE: usize = 16;

    fn encode(&self, buf: &mut [u8]) {
        buf[0..8].copy_from_slice(&self.r.to_le_bytes());
        buf[8..16].copy_from_slice(&self.s.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        // Invariant: callers hand `decode` exactly `SIZE` bytes, so the
        // 8-byte sub-slices always convert.
        IdPair {
            r: u64::from_le_bytes(buf[0..8].try_into().expect("8-byte slice")),
            s: u64::from_le_bytes(buf[8..16].try_into().expect("8-byte slice")),
        }
    }
}

/// Typed buffered writer of [`FixedRecord`]s.
pub struct RecordWriter<R: FixedRecord> {
    inner: FileWriter,
    scratch: Vec<u8>,
    count: u64,
    _marker: std::marker::PhantomData<R>,
}

impl<R: FixedRecord> RecordWriter<R> {
    pub fn new(disk: &SimDisk, file: FileId, buffer_pages: usize) -> Self {
        RecordWriter {
            inner: FileWriter::new(disk, file, buffer_pages),
            scratch: vec![0u8; R::SIZE],
            count: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Creates the backing file too.
    pub fn create(disk: &SimDisk, buffer_pages: usize) -> Self {
        let f = disk.create();
        Self::new(disk, f, buffer_pages)
    }

    /// Creates the backing file pinned to data channel `channel` (see
    /// [`SimDisk::create_on`]); its requests overlap with other channels
    /// under the multi-channel clock instead of serializing.
    pub fn create_on(disk: &SimDisk, channel: u64, buffer_pages: usize) -> Self {
        let f = disk.create_on(channel);
        Self::new(disk, f, buffer_pages)
    }

    /// Buffers one record; an error surfaces only when a flush exhausts the
    /// disk's retry budget.
    pub fn try_push(&mut self, r: &R) -> Result<(), IoError> {
        r.encode(&mut self.scratch);
        self.inner.try_write(&self.scratch)?;
        self.count += 1;
        Ok(())
    }

    /// Records pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn buffer_bytes(&self) -> usize {
        self.inner.buffer_bytes()
    }

    pub fn file(&self) -> FileId {
        self.inner.file()
    }

    pub fn try_finish(self) -> Result<FileId, IoError> {
        self.inner.try_finish()
    }
}

/// Typed buffered reader of [`FixedRecord`]s.
pub struct RecordReader<R: FixedRecord> {
    inner: FileReader,
    scratch: Vec<u8>,
    _marker: std::marker::PhantomData<R>,
}

impl<R: FixedRecord> RecordReader<R> {
    /// Reads the whole file; fails only if the file was deleted.
    pub fn new(disk: &SimDisk, file: FileId, buffer_pages: usize) -> Result<Self, IoError> {
        Ok(RecordReader {
            inner: FileReader::new(disk, file, buffer_pages)?,
            scratch: vec![0u8; R::SIZE],
            _marker: std::marker::PhantomData,
        })
    }

    /// Reads records from the byte range `[start, end)` of `file`.
    pub fn with_range(disk: &SimDisk, file: FileId, start: u64, end: u64, buffer_pages: usize) -> Self {
        RecordReader {
            inner: FileReader::with_range(disk, file, start, end, buffer_pages),
            scratch: vec![0u8; R::SIZE],
            _marker: std::marker::PhantomData,
        }
    }

    /// Records still unread.
    pub fn remaining(&self) -> u64 {
        self.inner.remaining() / R::SIZE as u64
    }

    pub fn buffer_bytes(&self) -> usize {
        self.inner.buffer_bytes()
    }

    /// The next record, `Ok(None)` at end of stream, or a typed error when a
    /// refill exhausts the disk's retry budget (after which the reader
    /// should be discarded — recovery restarts from a fresh one).
    pub fn try_next(&mut self) -> Result<Option<R>, IoError> {
        // Split borrow: temporarily move scratch out to satisfy the borrow
        // checker without copying.
        let mut scratch = std::mem::take(&mut self.scratch);
        let got = self.inner.try_read_exact(&mut scratch);
        let out = match got {
            Ok(true) => Ok(Some(R::decode(&scratch))),
            Ok(false) => Ok(None),
            Err(e) => Err(e),
        };
        self.scratch = scratch;
        out
    }
}

/// Convenience: writes all records into a fresh file.
pub fn try_write_all<R: FixedRecord>(
    disk: &SimDisk,
    records: &[R],
    buffer_pages: usize,
) -> Result<FileId, IoError> {
    let mut w = RecordWriter::create(disk, buffer_pages);
    for r in records {
        w.try_push(r)?;
    }
    w.try_finish()
}

/// Convenience: reads a whole record file into memory.
pub fn try_read_all<R: FixedRecord>(
    disk: &SimDisk,
    file: FileId,
    buffer_pages: usize,
) -> Result<Vec<R>, IoError> {
    let mut reader = RecordReader::<R>::new(disk, file, buffer_pages)?;
    let mut out = Vec::with_capacity(reader.remaining() as usize);
    while let Some(r) = reader.try_next()? {
        out.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskModel;
    use geom::{Rect, RecordId};

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel {
            page_size: 64,
            positioning_ratio: 2.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels: 1,
            degraded_channel: None,
        })
    }

    #[test]
    fn kpe_record_roundtrip_through_disk() {
        let d = disk();
        let kpes: Vec<Kpe> = (0..100)
            .map(|i| {
                let v = i as f64 / 200.0;
                Kpe::new(RecordId(i), Rect::new(v, v, v + 0.1, v + 0.2))
            })
            .collect();
        let f = try_write_all(&d, &kpes, 2).unwrap();
        assert_eq!(d.try_len(f).unwrap(), (100 * Kpe::ENCODED_SIZE) as u64);
        let back: Vec<Kpe> = try_read_all(&d, f, 3).unwrap();
        assert_eq!(back, kpes);
    }

    #[test]
    fn idpair_roundtrip_and_ordering() {
        let d = disk();
        let pairs = vec![
            IdPair { r: 3, s: 1 },
            IdPair { r: 1, s: 2 },
            IdPair { r: 1, s: 1 },
        ];
        let f = try_write_all(&d, &pairs, 1).unwrap();
        let back: Vec<IdPair> = try_read_all(&d, f, 1).unwrap();
        assert_eq!(back, pairs);
        let mut sorted = back.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec![
                IdPair { r: 1, s: 1 },
                IdPair { r: 1, s: 2 },
                IdPair { r: 3, s: 1 }
            ]
        );
    }

    #[test]
    fn reader_remaining_is_exact() {
        let d = disk();
        let pairs: Vec<IdPair> = (0..17).map(|i| IdPair { r: i, s: i }).collect();
        let f = try_write_all(&d, &pairs, 1).unwrap();
        let mut r = RecordReader::<IdPair>::new(&d, f, 1).unwrap();
        assert_eq!(r.remaining(), 17);
        r.try_next().unwrap();
        assert_eq!(r.remaining(), 16);
        let mut n = 0;
        while r.try_next().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 16);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn range_reader_reads_record_slice() {
        let d = disk();
        let pairs: Vec<IdPair> = (0..10).map(|i| IdPair { r: i, s: 0 }).collect();
        let f = try_write_all(&d, &pairs, 1).unwrap();
        let sz = IdPair::SIZE as u64;
        let mut reader = RecordReader::<IdPair>::with_range(&d, f, 3 * sz, 7 * sz, 1);
        let mut slice = Vec::new();
        while let Some(p) = reader.try_next().unwrap() {
            slice.push(p.r);
        }
        assert_eq!(slice, vec![3, 4, 5, 6]);
    }
}
