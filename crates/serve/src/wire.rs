//! Length-prefixed framing and a tiny hand-rolled binary codec.
//!
//! Every message on a `br-serve` connection is one *frame*: a 4-byte
//! little-endian payload length followed by that many payload bytes.
//! Inside a payload, the codec below encodes the protocol's primitive
//! vocabulary — fixed-width little-endian integers and length-prefixed
//! UTF-8 strings. Nothing here knows about requests or responses; that
//! lives in [`crate::proto`].

use std::io::{self, Read, Write};

/// Upper bound on a single frame, defending the server against a
/// hostile or corrupted length prefix (a 4 GiB allocation request).
/// MiniC sources and measurement replies are all well under this.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Write one frame (length prefix + payload) in one `write_all` and
/// flush it. As two writes, on a socket without `TCP_NODELAY`, Nagle's
/// algorithm would hold the payload back until the peer's delayed ACK.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame's payload. `Ok(None)` means the peer closed the
/// connection cleanly *between* frames; a close mid-frame, length
/// prefix included, is an error (the chaos suite's "client disconnects
/// mid-stream" case).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Append-only payload encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked payload decoder. Every accessor fails with a typed
/// [`WireError`] instead of panicking, so a truncated or corrupted
/// payload — injected by the chaos harness or a buggy client — becomes
/// a `BadRequest` response, never a crash.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// A malformed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError(format!("truncated at byte {}", self.pos)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub fn str(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError("invalid utf-8".into()))
    }

    /// Assert the payload was fully consumed (catches trailing garbage).
    pub fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// FNV-1a 64 — the checksum used by artifact files and cache keys.
/// Stable across platforms; collisions are irrelevant at cache scale
/// and the on-disk checksum only needs to catch corruption, not
/// adversaries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut r).unwrap(),
            None,
            "clean EOF between frames"
        );
    }

    /// A `Write` that counts its `write` calls.
    struct CountWrites(usize);

    impl Write for CountWrites {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0 += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut w = CountWrites(0);
        write_frame(&mut w, b"hello").unwrap();
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.0, 2, "one write per frame");
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..buf.len() - 2]; // drop the last 2 payload bytes
        assert!(read_frame(&mut r).is_err());
        // Length prefix promising more than exists is also mid-frame.
        let huge = 100u32.to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let bad = u32::MAX.to_le_bytes();
        let mut r = &bad[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn codec_roundtrip_and_truncation() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.i32(-5);
        e.u64(u64::MAX);
        e.str("grüß");
        e.bytes(&[1, 2, 3]);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.i32().unwrap(), -5);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.str().unwrap(), "grüß");
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        d.done().unwrap();

        // Truncated reads fail typed at every prefix length.
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            let mut ok = true;
            ok = ok && d.u8().is_ok();
            ok = ok && d.u32().is_ok();
            ok = ok && d.i32().is_ok();
            ok = ok && d.u64().is_ok();
            ok = ok && d.str().is_ok();
            ok = ok && d.bytes().is_ok();
            assert!(!ok || d.done().is_err(), "cut={cut} decoded a full message");
        }
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // Known vector: fnv1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
