//! The length-prefixed, checksummed frame every byte on the wire lives in.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "MWNF" | version u8 | kind u8 | corr u64 | len u32 | payload | crc32 u32
//! 0            | 4          | 5       | 6        | 14      | 18      | 18+len
//! ```
//!
//! * `version` gates the whole frame: a reader that sees a version it does
//!   not speak rejects the connection instead of misparsing payloads.
//! * `kind` is the RPC discriminant (see [`crate::rpc`]); the codec itself
//!   is agnostic and carries any kind.
//! * `corr` is the correlation id: a reply echoes the request's `corr`,
//!   and a retried request *reuses* it, which is what makes server-side
//!   idempotency possible (the server's reply ledger is keyed by `corr`).
//! * `crc32` covers header *and* payload, so truncation, bit rot and
//!   frames cut mid-payload by a dying connection are all caught here.
//!
//! ## Copies
//!
//! The CRC is incremental ([`crate::crc32_update`]), so nothing is joined
//! into a whole-frame buffer. [`write_frame_bytes`] writes header, the
//! caller's payload and the trailer with one vectored write: the payload
//! is copied once, into the socket. [`read_frame`] reads the 18-byte
//! header, then payload and trailer with one read into the frame's own
//! buffer: the payload is copied once, out of the socket, and the RPC
//! layer moves that buffer on (an rfork image goes straight to
//! `restore`). [`Frame::encode`] and [`Frame::decode`] are the
//! same code run against a `Vec` and a slice; they copy once each because
//! they return owned bytes.

use crate::crc::{crc32, crc32_update};
use crate::error::NetError;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Frame magic: "Multiple Worlds Net Frame".
pub const FRAME_MAGIC: &[u8; 4] = b"MWNF";
/// Protocol version this build speaks.
pub const FRAME_VERSION: u8 = 1;
/// Bytes before the payload: magic + version + kind + corr + len.
pub const FRAME_HEADER: usize = 18;
/// Bytes after the payload: the CRC.
pub const FRAME_TRAILER: usize = 4;
/// Upper bound on a payload. A full checkpoint of a large world is the
/// biggest legitimate payload; 64 MiB is far above anything the paper's
/// 70 KB process images suggest while still rejecting a garbage length
/// field before it turns into a giant allocation.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// One decoded frame: the RPC discriminant, the correlation id, and the
/// opaque payload the [`crate::rpc`] layer interprets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: u8,
    pub corr: u64,
    pub payload: Vec<u8>,
}

impl Frame {
    pub fn new(kind: u8, corr: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind,
            corr,
            payload,
        }
    }

    /// Total bytes this frame occupies on the wire.
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER + self.payload.len() + FRAME_TRAILER
    }

    /// Serialise to wire bytes (header | payload | crc).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        write_frame(&mut out, self).expect("writing to a Vec cannot fail");
        out
    }

    /// Parse one frame from a complete byte buffer. `buf` must hold
    /// exactly one frame.
    pub fn decode(buf: &[u8]) -> Result<Frame, NetError> {
        let Some((header, mut rest)) = buf.split_first_chunk::<FRAME_HEADER>() else {
            return Err(NetError::Truncated);
        };
        let (_, _, len) = parse_header(header)?;
        if rest.len() != len + FRAME_TRAILER {
            return Err(NetError::Truncated);
        }
        read_frame_after_header(&mut rest, *header).map(|(frame, _)| frame)
    }
}

/// The header for a frame of `kind`/`corr` carrying `len` payload bytes.
fn header(kind: u8, corr: u64, len: usize) -> [u8; FRAME_HEADER] {
    let mut h = [0u8; FRAME_HEADER];
    h[0..4].copy_from_slice(FRAME_MAGIC);
    h[4] = FRAME_VERSION;
    h[5] = kind;
    h[6..14].copy_from_slice(&corr.to_le_bytes());
    h[14..18].copy_from_slice(&(len as u32).to_le_bytes());
    h
}

/// Validate a header and split out `(kind, corr, payload len)`.
fn parse_header(h: &[u8; FRAME_HEADER]) -> Result<(u8, u64, usize), NetError> {
    if &h[0..4] != FRAME_MAGIC {
        return Err(NetError::BadMagic);
    }
    if h[4] != FRAME_VERSION {
        return Err(NetError::BadVersion(h[4]));
    }
    let corr = u64::from_le_bytes(h[6..14].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(h[14..18].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(NetError::TooLarge(len));
    }
    Ok((h[5], corr, len))
}

/// Write one frame to `w` and flush it.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, NetError> {
    write_frame_bytes(w, frame.kind, frame.corr, &frame.payload)
}

/// Write one frame of `kind`/`corr` around a borrowed `payload` and
/// flush it. Header, payload and CRC trailer go out in one vectored
/// write where the writer supports it (one `writev` on a socket); the
/// payload is never copied into a staging buffer. Returns the on-wire
/// size.
pub(crate) fn write_frame_bytes(
    w: &mut impl Write,
    kind: u8,
    corr: u64,
    payload: &[u8],
) -> Result<usize, NetError> {
    let header = header(kind, corr, payload.len());
    let trailer = crc32_update(crc32(&header), payload).to_le_bytes();
    let mut parts = [
        IoSlice::new(&header),
        IoSlice::new(payload),
        IoSlice::new(&trailer),
    ];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(NetError::Io(ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    w.flush()?;
    Ok(FRAME_HEADER + payload.len() + FRAME_TRAILER)
}

/// Read exactly one frame from `r`, which must be positioned at a frame
/// boundary. Returns the frame and its on-wire size.
///
/// Any short read — EOF mid-frame, a read timeout firing after the
/// header arrived — is a hard [`NetError`]; the caller must treat the
/// stream as desynchronised and drop it.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, usize), NetError> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    read_frame_after_header(r, header)
}

/// Like [`read_frame`], but tolerant of an *idle* stream: timeouts while
/// waiting for the first byte of the next frame return `Ok(None)` so a
/// server can poll `stop` between frames without killing pooled
/// connections that are merely quiet. A timeout after the first byte has
/// arrived is mid-frame desync and errors like [`read_frame`].
pub fn read_frame_idle(
    r: &mut impl Read,
    stop: &AtomicBool,
) -> Result<Option<(Frame, usize)>, NetError> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0usize;
    while got < FRAME_HEADER {
        if got == 0 && stop.load(Ordering::Acquire) {
            return Ok(None);
        }
        match r.read(&mut header[got..]) {
            Ok(0) => return Err(NetError::Io(ErrorKind::UnexpectedEof.into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if got == 0 && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    read_frame_after_header(r, header).map(Some)
}

/// Read the payload and trailer that follow `header` straight into the
/// frame's own buffer, and check the CRC over header and payload where
/// they lie.
fn read_frame_after_header(
    r: &mut impl Read,
    header: [u8; FRAME_HEADER],
) -> Result<(Frame, usize), NetError> {
    let (kind, corr, len) = parse_header(&header)?;
    // Payload and trailer in one read; the trailer is then cut off.
    let mut payload = vec![0u8; len + FRAME_TRAILER];
    r.read_exact(&mut payload)?;
    let trailer = u32::from_le_bytes(payload[len..].try_into().expect("4 bytes"));
    payload.truncate(len);
    if crc32_update(crc32(&header), &payload) != trailer {
        return Err(NetError::BadCrc);
    }
    Ok((
        Frame {
            kind,
            corr,
            payload,
        },
        FRAME_HEADER + len + FRAME_TRAILER,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let f = Frame::new(3, 0xDEAD_BEEF_CAFE, b"payload bytes".to_vec());
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.wire_len());
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn empty_payload_round_trip() {
        let f = Frame::new(1, 7, Vec::new());
        assert_eq!(f.wire_len(), FRAME_HEADER + FRAME_TRAILER);
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn stream_round_trip() {
        let a = Frame::new(2, 1, vec![0xAA; 100]);
        let b = Frame::new(4, 2, Vec::new());
        let mut wire = Vec::new();
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();
        let mut r = &wire[..];
        let (got_a, len_a) = read_frame(&mut r).unwrap();
        let (got_b, len_b) = read_frame(&mut r).unwrap();
        assert_eq!((got_a, got_b), (a, b));
        assert_eq!(len_a + len_b, wire.len());
    }

    #[test]
    fn corruption_is_detected() {
        let f = Frame::new(2, 9, b"precious checkpoint image".to_vec());
        let clean = f.encode();
        // Flip one bit anywhere (except inside the CRC itself, where the
        // failure is still BadCrc but trivially so) — decode must fail.
        for i in 0..(clean.len() - FRAME_TRAILER) * 8 {
            let mut bad = clean.clone();
            bad[i / 8] ^= 1 << (i % 8);
            assert!(Frame::decode(&bad).is_err(), "bit {i} slipped through");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let f = Frame::new(2, 9, b"cut short".to_vec());
        let clean = f.encode();
        for n in 0..clean.len() {
            assert!(Frame::decode(&clean[..n]).is_err(), "prefix {n} accepted");
        }
        let mut r = &clean[..clean.len() - 3];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = Frame::new(1, 1, Vec::new()).encode();
        bytes[4] = FRAME_VERSION + 1;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(NetError::BadVersion(v)) if v == FRAME_VERSION + 1
        ));
    }

    /// An rfork-sized frame: 18 pages of 4 KiB plus some header bytes,
    /// with deterministic contents.
    fn big_frame() -> Frame {
        let payload = (0..18 * 4096 + 77u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        Frame::new(2, 0xC0FFEE, payload)
    }

    /// A reader that hands out one byte per `read` call.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn wire_bytes_match_the_previous_codec() {
        // Captured from the byte-at-a-time codec this one replaced.
        let small = Frame::new(9, 0x0123_4567_89AB_CDEF, b"multiple worlds".to_vec());
        let want: &[u8] = &[
            0x4d, 0x57, 0x4e, 0x46, 0x01, 0x09, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,
            0x0f, 0x00, 0x00, 0x00, 0x6d, 0x75, 0x6c, 0x74, 0x69, 0x70, 0x6c, 0x65, 0x20, 0x77,
            0x6f, 0x72, 0x6c, 0x64, 0x73, 0x92, 0x09, 0x5c, 0xf2,
        ];
        assert_eq!(small.encode(), want);
        let big = big_frame().encode();
        assert_eq!(big.len(), 73827);
        assert_eq!(big[big.len() - FRAME_TRAILER..], [0xd0, 0x6b, 0x14, 0x96]);
    }

    #[test]
    fn bit_flips_in_a_large_frame_fail_the_crc() {
        let clean = big_frame().encode();
        // Kind, corr, sampled payload bytes, and the CRC itself: every
        // byte whose corruption the header checks cannot see.
        let offsets = (5..14)
            .chain((FRAME_HEADER..clean.len()).step_by(997))
            .chain(clean.len() - FRAME_TRAILER - 1..clean.len());
        for at in offsets {
            for bit in [0, 3, 7] {
                let mut bad = clean.clone();
                bad[at] ^= 1 << bit;
                assert!(
                    matches!(Frame::decode(&bad), Err(NetError::BadCrc)),
                    "byte {at} bit {bit}"
                );
                assert!(matches!(read_frame(&mut &bad[..]), Err(NetError::BadCrc)));
            }
        }
    }

    #[test]
    fn truncated_large_frames_are_rejected() {
        let clean = big_frame().encode();
        let cuts = (0..FRAME_HEADER + 2)
            .chain((FRAME_HEADER..clean.len()).step_by(1009))
            .chain(clean.len() - FRAME_TRAILER..clean.len());
        for n in cuts {
            assert!(
                matches!(Frame::decode(&clean[..n]), Err(NetError::Truncated)),
                "prefix {n}"
            );
            assert!(
                matches!(read_frame(&mut &clean[..n]), Err(NetError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof),
                "prefix {n}"
            );
        }
    }

    #[test]
    fn frames_read_one_byte_at_a_time_round_trip() {
        let (a, b) = (big_frame(), Frame::new(7, 3, b"tail".to_vec()));
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        let mut r = OneByte(&wire);
        assert_eq!(read_frame(&mut r).unwrap(), (a.clone(), a.wire_len()));
        let stop = AtomicBool::new(false);
        assert_eq!(
            read_frame_idle(&mut r, &stop).unwrap(),
            Some((b.clone(), b.wire_len()))
        );
        assert!(read_frame(&mut r).is_err(), "nothing left");
    }

    #[test]
    fn giant_length_field_is_rejected_before_allocating() {
        let mut bytes = Frame::new(1, 1, Vec::new()).encode();
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(NetError::TooLarge(_))));
        let mut r = &bytes[..];
        assert!(matches!(read_frame(&mut r), Err(NetError::TooLarge(_))));
    }
}
