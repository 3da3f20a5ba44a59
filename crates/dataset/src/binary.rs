//! Cluster-file binary I/O: the `dnb` length-prefixed frame codec.
//!
//! The text cluster format (see [`io`](crate::read_dataset)) is the
//! interchange format, but parsing it dominates streaming throughput once
//! the compute side is parallel (BENCH_005). This module adds a binary
//! codec that stores bases 2 bits each via [`PackedStrand`] code order
//! (A=00, C=01, G=10, T=11) and frames every cluster with an explicit
//! length prefix and checksum, so a reader never has to scan for
//! boundaries and corruption is detected rather than silently decoded.
//!
//! # Frame layout
//!
//! ```text
//! file   := header frame*
//! header := magic[4] version[1] reserved[3]         (8 bytes)
//! magic  := 0x89 'D' 'N' 'B'                        (0x89 keeps byte 0
//!                                                    out of ASCII, so one
//!                                                    byte distinguishes
//!                                                    binary from text)
//! frame  := payload_len:u32le payload checksum:u64le
//! payload:= ref_len:u32le read_count:u32le read_len:u32le{read_count}
//!           packed(reference) packed(read){read_count}
//! packed := ceil(len/4) bytes, base i at bits (i mod 4)·2 of byte i/4
//! ```
//!
//! `checksum` is FNV-1a-64 over the payload bytes. Every strand is
//! byte-aligned so a frame can be decoded field-by-field without bit
//! arithmetic across strand boundaries. The payload length is validated
//! against the declared strand lengths *exactly* — a frame whose fields
//! disagree about its own size is rejected as corrupt, not partially
//! decoded.
//!
//! All read errors are typed [`ReadDatasetError::Frame`] (or `Io`) values
//! carrying the byte offset of the offending frame; corrupt input never
//! panics and never yields a silently wrong cluster.

use std::io::{self, BufRead, Read, Write};

use dnasim_core::{Base, Batch, Cluster, ClusterSink, ClusterSource, DnasimError, PackedStrand, Strand};

use crate::io::ReadDatasetError;

/// Magic bytes opening every binary cluster file. The first byte is
/// deliberately outside ASCII: text cluster files start with `>`,
/// whitespace, or are empty, so one buffered byte decides the format.
pub const BINARY_MAGIC: [u8; 4] = [0x89, b'D', b'N', b'B'];

/// Current frame-format version, written after the magic.
pub const BINARY_VERSION: u8 = 1;

/// Header length: magic, version, three reserved zero bytes.
const HEADER_LEN: usize = 8;

/// Upper bound on a single frame's payload. Large enough for any cluster
/// the simulator produces (a 256 MiB payload is ~10⁹ bases), small enough
/// that a length-lying frame cannot drive a pathological allocation.
const MAX_PAYLOAD_LEN: u32 = 1 << 28;

/// Upper bound on a single strand's length inside a frame.
const MAX_STRAND_LEN: u32 = 1 << 26;

/// Upper bound on reads per cluster inside a frame.
const MAX_READ_COUNT: u32 = 1 << 22;

/// FNV-1a 64-bit hash — the frame checksum.
///
/// Chosen over CRC for its two-line implementation (the workspace is
/// hermetic) while still catching every single-bit and short-burst error
/// the fault injector produces.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

fn frame_error(offset: u64, message: impl Into<String>) -> ReadDatasetError {
    ReadDatasetError::Frame {
        offset,
        message: message.into(),
    }
}

fn checked_u32(len: usize, what: &str) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what} of {len} exceeds the binary frame limit"),
        )
    })
}

/// Appends `strand` to `out` packed 2 bits per base, byte-aligned.
fn pack_strand(strand: &Strand, out: &mut Vec<u8>) {
    let packed = PackedStrand::from(strand);
    let start = out.len();
    out.resize(start + strand.len().div_ceil(4), 0);
    for (i, code) in packed.codes().enumerate() {
        out[start + i / 4] |= code << ((i % 4) * 2);
    }
}

/// An incremental binary cluster-file emitter: the binary twin of
/// [`DatasetWriter`](crate::DatasetWriter), one frame per cluster.
///
/// The header is written lazily before the first cluster (and by
/// [`finish`](dnasim_core::ClusterSink::finish)/
/// [`into_inner`](BinaryDatasetWriter::into_inner) for empty files, so a
/// zero-cluster binary file is still a valid, detectable binary file).
///
/// # Examples
///
/// ```
/// use dnasim_core::Cluster;
/// use dnasim_dataset::{BinaryDatasetReader, BinaryDatasetWriter};
///
/// let mut writer = BinaryDatasetWriter::new(Vec::new());
/// writer.write_cluster(&Cluster::erasure("ACGT".parse()?))?;
/// let bytes = writer.into_inner()?;
/// let mut reader = BinaryDatasetReader::new(bytes.as_slice());
/// assert!(reader.next_cluster()?.ok_or("missing")?.is_erasure());
/// assert!(reader.next_cluster()?.is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BinaryDatasetWriter<W: Write> {
    writer: W,
    header_written: bool,
    clusters: usize,
    reads: usize,
    erasures: usize,
}

impl<W: Write> BinaryDatasetWriter<W> {
    /// Creates a streaming binary writer over `writer`.
    pub fn new(writer: W) -> BinaryDatasetWriter<W> {
        BinaryDatasetWriter {
            writer,
            header_written: false,
            clusters: 0,
            reads: 0,
            erasures: 0,
        }
    }

    /// Number of clusters written so far.
    pub fn clusters_written(&self) -> usize {
        self.clusters
    }

    /// Number of reads written so far.
    pub fn reads_written(&self) -> usize {
        self.reads
    }

    /// Number of erasure clusters written so far.
    pub fn erasures_written(&self) -> usize {
        self.erasures
    }

    fn ensure_header(&mut self) -> io::Result<()> {
        if !self.header_written {
            self.writer.write_all(&BINARY_MAGIC)?;
            self.writer.write_all(&[BINARY_VERSION, 0, 0, 0])?;
            self.header_written = true;
        }
        Ok(())
    }

    /// Appends one cluster as a checksummed binary frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the writer, and rejects clusters
    /// whose dimensions exceed the frame limits (`InvalidInput`).
    pub fn write_cluster(&mut self, cluster: &Cluster) -> io::Result<()> {
        self.ensure_header()?;
        let mut payload = Vec::new();
        let ref_len = checked_u32(cluster.reference().len(), "reference length")?;
        payload.extend_from_slice(&ref_len.to_le_bytes());
        let read_count = checked_u32(cluster.reads().len(), "read count")?;
        payload.extend_from_slice(&read_count.to_le_bytes());
        for read in cluster.reads() {
            let read_len = checked_u32(read.len(), "read length")?;
            payload.extend_from_slice(&read_len.to_le_bytes());
        }
        pack_strand(cluster.reference(), &mut payload);
        for read in cluster.reads() {
            pack_strand(read, &mut payload);
        }
        let payload_len = checked_u32(payload.len(), "frame payload length")?;
        if payload_len > MAX_PAYLOAD_LEN
            || ref_len > MAX_STRAND_LEN
            || read_count > MAX_READ_COUNT
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cluster exceeds binary frame limits",
            ));
        }
        self.writer.write_all(&payload_len.to_le_bytes())?;
        self.writer.write_all(&payload)?;
        self.writer.write_all(&fnv1a64(&payload).to_le_bytes())?;
        self.clusters += 1;
        self.reads += cluster.coverage();
        if cluster.is_erasure() {
            self.erasures += 1;
        }
        Ok(())
    }

    /// Writes the header if nothing has been written yet, flushes, and
    /// returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.ensure_header()?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> ClusterSink for BinaryDatasetWriter<W> {
    /// Writes the batch, requiring contiguity: the batch must start at the
    /// number of clusters already written.
    fn accept(&mut self, batch: Batch) -> Result<(), DnasimError> {
        if batch.start() != self.clusters {
            return Err(DnasimError::config(
                "stream",
                format!(
                    "batch starts at global index {} but writer has emitted {} clusters",
                    batch.start(),
                    self.clusters
                ),
            ));
        }
        for cluster in batch.clusters() {
            self.write_cluster(cluster).map_err(DnasimError::Io)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), DnasimError> {
        self.ensure_header().map_err(DnasimError::Io)?;
        self.writer.flush().map_err(DnasimError::Io)
    }
}

/// A little-endian cursor over one frame's payload, reporting absolute
/// file offsets in its errors.
struct PayloadCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Absolute file offset of `bytes[0]`.
    base: u64,
}

impl<'a> PayloadCursor<'a> {
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ReadDatasetError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(frame_error(
                self.offset(),
                format!("frame payload too short for {what}"),
            )),
        }
    }

    fn u32le(&mut self, what: &str) -> Result<u32, ReadDatasetError> {
        let bytes = self.take(4, what)?;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(raw))
    }

    fn strand(&mut self, len: usize) -> Result<Strand, ReadDatasetError> {
        let at = self.offset();
        let packed = self.take(len.div_ceil(4), "packed strand bytes")?;
        let mut bases = Vec::with_capacity(len);
        for i in 0..len {
            let code = (packed[i / 4] >> ((i % 4) * 2)) & 3;
            match Base::from_index(usize::from(code)) {
                Some(base) => bases.push(base),
                None => {
                    // Codes are masked to two bits, so all four values map
                    // to a base; kept as a typed error for the panic guard.
                    return Err(frame_error(at, "invalid packed base code"));
                }
            }
        }
        Ok(Strand::from_bases(bases))
    }
}

/// An incremental binary cluster-file parser: the binary twin of
/// [`DatasetReader`](crate::DatasetReader), yielding one [`Cluster`] per
/// frame.
///
/// The header is validated lazily on the first read. After the first
/// error the reader is fused, like its text counterpart. Corrupt input —
/// bad magic, truncation, bit flips, or frames whose length fields lie —
/// yields a typed [`ReadDatasetError::Frame`] carrying the byte offset of
/// the offending frame, never a panic and never a wrong cluster.
#[derive(Debug)]
pub struct BinaryDatasetReader<R> {
    reader: R,
    offset: u64,
    header_checked: bool,
    emitted: usize,
    done: bool,
}

impl<R: BufRead> BinaryDatasetReader<R> {
    /// Creates a streaming reader over binary cluster-file bytes.
    pub fn new(reader: R) -> BinaryDatasetReader<R> {
        BinaryDatasetReader {
            reader,
            offset: 0,
            header_checked: false,
            emitted: 0,
            done: false,
        }
    }

    /// Number of clusters emitted so far.
    pub fn clusters_read(&self) -> usize {
        self.emitted
    }

    /// Bytes fully consumed from the underlying reader so far.
    pub fn bytes_read(&self) -> u64 {
        self.offset
    }

    fn read_exact(&mut self, buf: &mut [u8], what: &str) -> Result<(), ReadDatasetError> {
        let at = self.offset;
        self.reader.read_exact(buf).map_err(|source| {
            if source.kind() == io::ErrorKind::UnexpectedEof {
                frame_error(at, format!("truncated {what}"))
            } else {
                ReadDatasetError::Io {
                    line: 0,
                    offset: at,
                    source,
                }
            }
        })?;
        self.offset += buf.len() as u64;
        Ok(())
    }

    /// Whether the stream is at end-of-input (no bytes buffered or
    /// readable).
    fn at_eof(&mut self) -> Result<bool, ReadDatasetError> {
        let at = self.offset;
        let buf = self.reader.fill_buf().map_err(|source| ReadDatasetError::Io {
            line: 0,
            offset: at,
            source,
        })?;
        Ok(buf.is_empty())
    }

    fn check_header(&mut self) -> Result<(), ReadDatasetError> {
        let mut header = [0u8; HEADER_LEN];
        self.read_exact(&mut header, "binary header")?;
        if header[..4] != BINARY_MAGIC {
            return Err(frame_error(
                0,
                "not a binary cluster file (bad magic bytes)",
            ));
        }
        if header[4] != BINARY_VERSION {
            return Err(frame_error(
                4,
                format!(
                    "unsupported binary format version {} (expected {BINARY_VERSION})",
                    header[4]
                ),
            ));
        }
        self.header_checked = true;
        Ok(())
    }

    fn decode_frame(&mut self) -> Result<Option<Cluster>, ReadDatasetError> {
        if !self.header_checked {
            // A zero-byte input is an empty dataset (matching the text
            // parser); anything shorter than the header is truncation.
            if self.offset == 0 && self.at_eof()? {
                return Ok(None);
            }
            self.check_header()?;
        }
        if self.at_eof()? {
            return Ok(None);
        }
        let frame_start = self.offset;
        let mut len_raw = [0u8; 4];
        self.read_exact(&mut len_raw, "frame length")?;
        let payload_len = u32::from_le_bytes(len_raw);
        if payload_len > MAX_PAYLOAD_LEN {
            return Err(frame_error(
                frame_start,
                format!("frame payload length {payload_len} exceeds the {MAX_PAYLOAD_LEN}-byte limit"),
            ));
        }
        let payload_start = self.offset;
        let mut payload = Vec::new();
        let taken = self
            .reader
            .by_ref()
            .take(u64::from(payload_len))
            .read_to_end(&mut payload)
            .map_err(|source| ReadDatasetError::Io {
                line: 0,
                offset: payload_start,
                source,
            })?;
        self.offset += taken as u64;
        if taken < payload_len as usize {
            return Err(frame_error(
                frame_start,
                format!("truncated frame payload: declared {payload_len} bytes, found {taken}"),
            ));
        }
        let mut checksum_raw = [0u8; 8];
        self.read_exact(&mut checksum_raw, "frame checksum")?;
        let expected = u64::from_le_bytes(checksum_raw);
        let actual = fnv1a64(&payload);
        if actual != expected {
            return Err(frame_error(
                frame_start,
                format!("frame checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"),
            ));
        }
        let mut cursor = PayloadCursor {
            bytes: &payload,
            pos: 0,
            base: payload_start,
        };
        let ref_len = cursor.u32le("reference length")?;
        let read_count = cursor.u32le("read count")?;
        if ref_len > MAX_STRAND_LEN {
            return Err(frame_error(frame_start, "reference length exceeds frame limit"));
        }
        if read_count > MAX_READ_COUNT {
            return Err(frame_error(frame_start, "read count exceeds frame limit"));
        }
        let mut read_lens = Vec::with_capacity(read_count as usize);
        let mut expected_len: u64 = 8 + 4 * u64::from(read_count);
        expected_len += (u64::from(ref_len)).div_ceil(4);
        for _ in 0..read_count {
            let read_len = cursor.u32le("read length")?;
            if read_len > MAX_STRAND_LEN {
                return Err(frame_error(frame_start, "read length exceeds frame limit"));
            }
            expected_len += (u64::from(read_len)).div_ceil(4);
            read_lens.push(read_len);
        }
        if expected_len != u64::from(payload_len) {
            return Err(frame_error(
                frame_start,
                format!(
                    "frame length fields are inconsistent: declared payload {payload_len} bytes, \
                     strand lengths require {expected_len}"
                ),
            ));
        }
        let reference = cursor.strand(ref_len as usize)?;
        let mut reads = Vec::with_capacity(read_lens.len());
        for read_len in read_lens {
            reads.push(cursor.strand(read_len as usize)?);
        }
        Ok(Some(Cluster::new(reference, reads)))
    }

    /// Decodes the next cluster frame, or `Ok(None)` at end of input.
    ///
    /// # Errors
    ///
    /// [`ReadDatasetError::Frame`] for malformed frames,
    /// [`ReadDatasetError::Io`] for underlying I/O failures; the reader
    /// is fused afterwards.
    pub fn next_cluster(&mut self) -> Result<Option<Cluster>, ReadDatasetError> {
        if self.done {
            return Ok(None);
        }
        match self.decode_frame() {
            Ok(Some(cluster)) => {
                self.emitted += 1;
                Ok(Some(cluster))
            }
            Ok(None) => {
                self.done = true;
                Ok(None)
            }
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }
}

impl<R: BufRead> Iterator for BinaryDatasetReader<R> {
    type Item = Result<Cluster, ReadDatasetError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_cluster().transpose()
    }
}

impl<R: BufRead> ClusterSource for BinaryDatasetReader<R> {
    fn next_batch(&mut self, max: usize) -> Result<Option<Batch>, DnasimError> {
        let max = dnasim_core::checked_batch_size(max)?;
        let start = self.emitted;
        let mut clusters = Vec::new();
        while clusters.len() < max {
            match self.next_cluster()? {
                Some(cluster) => clusters.push(cluster),
                None => break,
            }
        }
        if clusters.is_empty() {
            Ok(None)
        } else {
            Ok(Some(Batch::new(start, clusters)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;
    use dnasim_core::Dataset;

    fn sample() -> Dataset {
        let mut rng = seeded(7);
        let mut ds = Dataset::new();
        for i in 0..6 {
            let reference = Strand::random(23 + i, &mut rng);
            let reads = (0..i).map(|_| Strand::random(20, &mut rng)).collect();
            ds.push(Cluster::new(reference, reads));
        }
        ds.push(Cluster::new(
            "ACGT".parse().unwrap(),
            vec![Strand::new(), "AC".parse().unwrap()],
        ));
        ds
    }

    fn encode(ds: &Dataset) -> Vec<u8> {
        let mut writer = BinaryDatasetWriter::new(Vec::new());
        for cluster in ds.iter() {
            writer.write_cluster(cluster).unwrap();
        }
        writer.into_inner().unwrap()
    }

    fn decode(bytes: &[u8]) -> Result<Dataset, ReadDatasetError> {
        let mut reader = BinaryDatasetReader::new(bytes);
        let mut ds = Dataset::new();
        while let Some(cluster) = reader.next_cluster()? {
            ds.push(cluster);
        }
        Ok(ds)
    }

    #[test]
    fn round_trip_preserves_every_cluster() {
        let ds = sample();
        assert_eq!(decode(&encode(&ds)).unwrap(), ds);
    }

    #[test]
    fn empty_dataset_is_a_valid_header_only_file() {
        let bytes = BinaryDatasetWriter::new(Vec::new()).into_inner().unwrap();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(bytes[..4], BINARY_MAGIC);
        assert!(decode(&bytes).unwrap().is_empty());
    }

    #[test]
    fn zero_byte_input_is_an_empty_dataset() {
        assert!(decode(&[]).unwrap().is_empty());
    }

    #[test]
    fn text_input_is_rejected_by_magic() {
        let err = decode(b">ACGT\nACG\n").unwrap_err();
        assert!(matches!(err, ReadDatasetError::Frame { offset: 0, .. }));
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = encode(&sample());
        bytes[4] = 9;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let full = encode(&sample());
        for cut in 1..full.len() {
            match decode(&full[..cut]) {
                Ok(ds) => {
                    // A cut exactly on a frame boundary decodes the prefix.
                    assert!(ds.len() < sample().len(), "cut={cut}");
                }
                Err(
                    ReadDatasetError::Frame { .. } | ReadDatasetError::Io { line: 0, .. },
                ) => {}
                Err(other) => panic!("cut={cut}: unexpected {other}"),
            }
        }
    }

    #[test]
    fn bit_flip_in_payload_fails_the_checksum() {
        let ds = sample();
        let bytes = encode(&ds);
        // Flip one bit inside the first frame's payload (skip header and
        // the 4-byte length field).
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN + 4] ^= 0b0000_0100;
        let err = decode(&corrupt).unwrap_err();
        assert!(
            err.to_string().contains("checksum")
                || err.to_string().contains("inconsistent"),
            "{err}"
        );
    }

    #[test]
    fn length_lie_is_rejected_not_misread() {
        let bytes = encode(&sample());
        // Overwrite the first frame's payload length with a lie that still
        // passes the sanity cap; the strand-length consistency check (or
        // the checksum over the shifted window) must catch it.
        let mut corrupt = bytes.clone();
        let lie = 12u32.to_le_bytes();
        corrupt[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&lie);
        let err = decode(&corrupt).unwrap_err();
        assert!(matches!(err, ReadDatasetError::Frame { .. }), "{err}");

        // And a huge lie beyond the cap fails fast without allocating.
        let mut huge = bytes;
        huge[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&huge).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn reader_is_fused_after_error() {
        let mut bytes = encode(&sample());
        bytes[HEADER_LEN + 4] ^= 1;
        let mut reader = BinaryDatasetReader::new(bytes.as_slice());
        assert!(reader.next_cluster().is_err());
        assert!(reader.next_cluster().unwrap().is_none());
    }

    #[test]
    fn writer_counts_match_text_writer() {
        let ds = sample();
        let mut writer = BinaryDatasetWriter::new(Vec::new());
        for cluster in ds.iter() {
            writer.write_cluster(cluster).unwrap();
        }
        assert_eq!(writer.clusters_written(), ds.len());
        assert_eq!(writer.reads_written(), ds.total_reads());
        assert_eq!(writer.erasures_written(), ds.erasure_count());
    }

    #[test]
    fn sink_rejects_non_contiguous_batch() {
        let mut sink = BinaryDatasetWriter::new(Vec::new());
        let batch = Batch::new(3, vec![Cluster::erasure("AC".parse().unwrap())]);
        assert!(sink.accept(batch).is_err());
    }

    #[test]
    fn source_batches_have_stable_indices() {
        let bytes = encode(&sample());
        let mut source = BinaryDatasetReader::new(bytes.as_slice());
        let first = source.next_batch(4).unwrap().unwrap();
        assert_eq!(first.global_indices(), 0..4);
        let second = source.next_batch(4).unwrap().unwrap();
        assert_eq!(second.global_indices(), 4..7);
        assert!(source.next_batch(4).unwrap().is_none());
    }

    #[test]
    fn binary_is_smaller_than_text_for_dense_clusters() {
        let mut rng = seeded(3);
        let mut ds = Dataset::new();
        for _ in 0..20 {
            let reference = Strand::random(110, &mut rng);
            let reads = (0..10).map(|_| Strand::random(110, &mut rng)).collect();
            ds.push(Cluster::new(reference, reads));
        }
        let mut text = Vec::new();
        crate::write_dataset(&ds, &mut text).unwrap();
        let binary = encode(&ds);
        assert!(binary.len() * 2 < text.len(), "binary {} vs text {}", binary.len(), text.len());
    }
}
