//! Little-endian reading and writing for every on-disk and on-wire
//! format in the workspace: the `SELNETW1` weight stream
//! ([`crate::ParamStore`]), `selnet-index`'s partitioning, `selnet-core`'s
//! `SELNETP1` snapshot around both, and `selnet-serve`'s v2 frames. It is
//! the one module that reads untrusted bytes, and it reads them by one
//! rule:
//!
//! - **Caps belong to the caller.** Each format says how large each of
//!   its length fields may be ([`read_len`], [`check_len`]) and what a
//!   field means; this module knows no format's limits.
//! - **Allocation follows the bytes read.** An array or string read
//!   ([`read_f32s`], [`read_utf8`], …) holds at most one private
//!   fixed-size chunk (64 KiB) ahead of the bytes that have arrived, never
//!   the count a header claims: a 36-byte stream that claims 8 GiB of
//!   weights costs one chunk, then an error.
//! - **Every refusal is `InvalidData` or `UnexpectedEof`.** A length over
//!   its cap, text that is not UTF-8 and every check a format makes with
//!   [`invalid`] are [`io::ErrorKind::InvalidData`]; a stream that ends
//!   early is the reader's [`io::ErrorKind::UnexpectedEof`].
//!
//! Writers emit `to_le_bytes`; readers `read_exact` and decode with
//! `from_le_bytes`, so a short read is an error, never a silent zero.

use std::io::{self, Read, Write};

/// Bytes an array read may hold ahead of the bytes it has read.
const CHUNK: usize = 1 << 16;
/// Bytes an array read or write moves per call, through a stack buffer.
const BLOCK: usize = 256;

/// An [`io::ErrorKind::InvalidData`] error: a field that a format refuses.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `len` as a `usize`, or `InvalidData` if it exceeds the caller's cap
/// `max`. `what` names the field in the error.
pub fn check_len(len: u64, max: usize, what: &str) -> io::Result<usize> {
    match usize::try_from(len) {
        Ok(n) if n <= max => Ok(n),
        _ => Err(invalid(format!("implausible {what}: {len}"))),
    }
}

/// Reads a little-endian `u64` length and [`check_len`]s it against `max`.
pub fn read_len(r: &mut impl Read, max: usize, what: &str) -> io::Result<usize> {
    check_len(read_u64(r)?, max, what)
}

/// Reads `len` bytes of UTF-8 text; `len` must have passed the caller's
/// cap. Text that is not UTF-8 is `InvalidData`, naming `what`.
pub fn read_utf8(r: &mut impl Read, len: usize, what: &str) -> io::Result<String> {
    let bytes = read_array(r, len, |[b]: [u8; 1]| b)?;
    String::from_utf8(bytes).map_err(|_| invalid(format!("{what} is not utf8")))
}

/// Reads `n` little-endian elements, decoding a [`BLOCK`] at a time into
/// buffers of at most [`CHUNK`] bytes each, allocated as their bytes
/// arrive; more than one are joined once all `n` have been read.
fn read_array<T: Clone, const W: usize>(
    r: &mut impl Read,
    n: usize,
    from_le: impl Fn([u8; W]) -> T,
) -> io::Result<Vec<T>> {
    let mut block = [0u8; BLOCK];
    let mut chunks = Vec::new();
    let mut left = n;
    loop {
        let take = left.min(CHUNK / W);
        let mut chunk = Vec::with_capacity(take);
        while chunk.len() < take {
            let bytes = &mut block[..(take - chunk.len()).min(BLOCK / W) * W];
            r.read_exact(bytes)?;
            let element = |b: &[u8]| from_le(b.try_into().expect("W bytes"));
            chunk.extend(bytes.chunks_exact(W).map(element));
        }
        left -= take;
        if left == 0 && chunks.is_empty() {
            return Ok(chunk);
        }
        chunks.push(chunk);
        if left == 0 {
            return Ok(chunks.concat());
        }
    }
}

/// Writes every element of `values` little-endian, a [`BLOCK`] per write.
fn write_array<T, const W: usize>(
    w: &mut impl Write,
    values: impl IntoIterator<Item = T>,
    to_le: impl Fn(T) -> [u8; W],
) -> io::Result<()> {
    let mut block = [0u8; BLOCK];
    let mut filled = 0;
    for v in values {
        block[filled..filled + W].copy_from_slice(&to_le(v));
        filled += W;
        if filled + W > BLOCK {
            w.write_all(&block[..filled])?;
            filled = 0;
        }
    }
    w.write_all(&block[..filled])
}

/// One `read_*` / `write_*` pair per scalar type, and for the array
/// types one `read_*s` / `write_*s` pair.
macro_rules! scalars {
    ($($t:ident $read:ident $write:ident $(, $reads:ident $writes:ident)?;)*) => {$(
        #[doc = concat!("Writes a little-endian `", stringify!($t), "`.")]
        pub fn $write(w: &mut impl Write, v: $t) -> io::Result<()> {
            w.write_all(&v.to_le_bytes())
        }

        #[doc = concat!("Reads a little-endian `", stringify!($t), "`.")]
        pub fn $read(r: &mut impl Read) -> io::Result<$t> {
            let mut b = [0u8; std::mem::size_of::<$t>()];
            r.read_exact(&mut b)?;
            Ok($t::from_le_bytes(b))
        }
        $(
            #[doc = concat!("Writes every `", stringify!($t), "` of `values` little-endian, with no length.")]
            pub fn $writes(w: &mut impl Write, values: impl IntoIterator<Item = $t>) -> io::Result<()> {
                write_array(w, values, $t::to_le_bytes)
            }

            #[doc = concat!("Reads `n` little-endian `", stringify!($t), "`s; `n` must have passed the caller's cap.")]
            pub fn $reads(r: &mut impl Read, n: usize) -> io::Result<Vec<$t>> {
                read_array(r, n, $t::from_le_bytes)
            }
        )?
    )*};
}

scalars! {
    u8 read_u8 write_u8;
    u16 read_u16 write_u16;
    u32 read_u32 write_u32;
    u64 read_u64 write_u64, read_u64s write_u64s;
    f32 read_f32 write_f32, read_f32s write_f32s;
    f64 read_f64 write_f64, read_f64s write_f64s;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scalar round-trips bit for bit, including NaN payloads.
    #[test]
    fn scalars_round_trip() {
        let mut buf = Vec::new();
        write_u8(&mut buf, 0xAB).unwrap();
        write_u16(&mut buf, 0xBEEF).unwrap();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u64(&mut buf, 0x0123_4567_89AB_CDEF).unwrap();
        write_f32(&mut buf, f32::from_bits(0x7FC0_1234)).unwrap();
        write_f64(&mut buf, -0.0).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_u8(&mut r).unwrap(), 0xAB);
        assert_eq!(read_u16(&mut r).unwrap(), 0xBEEF);
        assert_eq!(read_u32(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u64(&mut r).unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(read_f32(&mut r).unwrap().to_bits(), 0x7FC0_1234);
        assert_eq!(read_f64(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.is_empty());
    }

    /// A short read is an error, never a silent zero.
    #[test]
    fn short_reads_error() {
        let mut r: &[u8] = &[1, 2, 3];
        assert!(read_u32(&mut r).is_err());
        let mut empty: &[u8] = &[];
        assert!(read_f32(&mut empty).is_err());
    }

    /// Arrays round-trip bit for bit at every length around a block and a
    /// chunk boundary, the bytes are each element's `to_le_bytes` in
    /// order, and the reader stops exactly after the `n` it was asked for.
    #[test]
    fn arrays_round_trip_across_blocks_and_chunks() {
        let chunk = CHUNK / 4;
        for n in [0, 1, 63, 64, 65, chunk - 1, chunk, chunk + 1, 3 * chunk + 7] {
            let values: Vec<f32> = (0..n)
                .map(|i| f32::from_bits((i as u32).wrapping_mul(2_654_435_761)))
                .collect();
            let mut buf = Vec::new();
            write_f32s(&mut buf, values.iter().copied()).unwrap();
            let expected: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(buf, expected, "n = {n}");
            buf.push(0xAB);
            let mut r = buf.as_slice();
            let back = read_f32s(&mut r, n).unwrap();
            assert!(back
                .iter()
                .map(|v| v.to_bits())
                .eq(values.iter().map(|v| v.to_bits())));
            assert_eq!(r, [0xAB], "n = {n}");
        }
        let wide: Vec<f64> = (0..20_000).map(|i| i as f64 / 7.0).collect();
        let mut buf = Vec::new();
        write_f64s(&mut buf, wide.iter().copied()).unwrap();
        assert_eq!(read_f64s(&mut buf.as_slice(), wide.len()).unwrap(), wide);
        let ids = [0, 1, u64::MAX];
        let mut buf = Vec::new();
        write_u64s(&mut buf, ids).unwrap();
        assert_eq!(read_u64s(&mut buf.as_slice(), 3).unwrap(), ids);
    }

    /// A count beyond the bytes is `UnexpectedEof`, whatever it claims.
    #[test]
    fn a_claim_beyond_the_stream_is_unexpected_eof() {
        let bytes = [0u8; 12];
        for n in [4, CHUNK, usize::MAX / 8] {
            let err = read_f64s(&mut bytes.as_slice(), n).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "n = {n}");
        }
        let err = read_utf8(&mut &b"abc"[..], 1 << 30, "name").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Lengths over their cap and text that is not UTF-8 are
    /// `InvalidData`, naming the field.
    #[test]
    fn caps_and_utf8_are_invalid_data() {
        assert_eq!(check_len(16, 16, "count").unwrap(), 16);
        for len in [17, u64::MAX] {
            let err = check_len(len, 16, "count").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("count"), "{err}");
        }
        let mut buf = Vec::new();
        write_u64(&mut buf, 1 << 40).unwrap();
        let err = read_len(&mut buf.as_slice(), 1 << 20, "dimension").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(read_utf8(&mut &b"alpha"[..], 5, "id").unwrap(), "alpha");
        let err = read_utf8(&mut &[0xFF, 0xFE][..], 2, "id").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
