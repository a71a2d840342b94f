//! Minimal binary wire format for machine checkpoints.
//!
//! Every crate in the suite serialises its dynamic state through [`Enc`] /
//! [`Dec`]: fixed-width little-endian scalars, length-prefixed byte runs,
//! no self-description. The format is deliberately dumb — the checkpoint
//! header (magic, version, config hash) is what guards against decoding a
//! stream with the wrong layout, and [`Dec`] returns [`WireError`] instead
//! of panicking so a truncated or corrupted checkpoint file degrades to a
//! recoverable error.

/// Decoding failure: the stream was shorter than the reader expected or a
/// field held an impossible value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset at which decoding failed.
    pub pos: usize,
    /// What the reader was trying to decode.
    pub what: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error at byte {}: {}", self.pos, self.what)
    }
}

impl std::error::Error for WireError {}

/// Convenience alias for decode results.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an i64 (two's-complement little-endian).
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Writes an f64 by bit pattern (NaN payloads round-trip exactly).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a usize as u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes raw bytes (no length prefix — pair with a prior `usize`).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Consumes the encoder, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Creates a decoder at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError {
                pos: self.pos,
                what,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> WireResult<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> WireResult<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads an i64.
    pub fn i64(&mut self) -> WireResult<i64> {
        Ok(self.u64()? as i64)
    }

    /// Reads an f64 by bit pattern.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a usize (errors if the value exceeds the host's usize).
    pub fn usize(&mut self) -> WireResult<usize> {
        let pos = self.pos;
        usize::try_from(self.u64()?).map_err(|_| WireError {
            pos,
            what: "usize overflow",
        })
    }

    /// Reads a bool, rejecting anything but 0/1 (corruption check).
    pub fn bool(&mut self) -> WireResult<bool> {
        let pos = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError {
                pos,
                what: "bool out of range",
            }),
        }
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        self.take(n, "bytes")
    }

    /// Reads and checks a fixed tag (e.g. a section magic).
    pub fn tag(&mut self, expect: &[u8], what: &'static str) -> WireResult<()> {
        let pos = self.pos;
        let got = self.take(expect.len(), what)?;
        if got != expect {
            return Err(WireError { pos, what });
        }
        Ok(())
    }

    /// Errors unless the whole buffer was consumed (trailing-garbage check).
    pub fn done(&self) -> WireResult<()> {
        if self.remaining() != 0 {
            return Err(WireError {
                pos: self.pos,
                what: "trailing bytes",
            });
        }
        Ok(())
    }
}

/// A record of `u64` statistics counters whose field list is written once,
/// in [`Counters::fields`]; the fast-forward delta, the idle-cycle replay
/// and the checkpoint encoding are derived from it. Each counter is encoded
/// as a little-endian u64 in field order.
pub trait Counters: Copy {
    /// Visits every counter in wire order as `f(key, idle, values)`: `key`
    /// is the camelCase JSON name, `idle` says whether an idle cycle (one
    /// the machine's fast-forward may skip) can move the counter, and
    /// `values` is the counter itself — one element for a scalar, the
    /// whole array for an array field.
    ///
    /// Implementations destructure the record exhaustively, so adding a
    /// field without classifying it does not compile.
    fn fields(&mut self, f: impl FnMut(&'static str, bool, &mut [u64]));

    /// Field-wise difference `self - before` of two snapshots of the same
    /// growing counters.
    fn delta_since(&self, before: &Self) -> Self {
        let prev = values(before);
        let mut out = *self;
        let mut i = 0;
        out.fields(|_, _, v| {
            for x in v {
                *x -= prev[i];
                i += 1;
            }
        });
        out
    }

    /// Adds `delta` scaled by `k`: the effect of `k` identical idle cycles,
    /// `delta` being what one idle cycle added. Only idle counters move;
    /// every other counter's delta must be zero.
    fn add_idle_scaled(&mut self, delta: &Self, k: u64) {
        let per_cycle = values(delta);
        let mut i = 0;
        self.fields(|key, idle, v| {
            for x in v {
                let d = per_cycle[i];
                i += 1;
                if idle {
                    *x += d * k;
                } else {
                    debug_assert_eq!(d, 0, "fast-forward applied a non-idle delta to `{key}`");
                }
            }
        });
    }

    /// Writes every counter in field order.
    fn save_state(&self, e: &mut Enc) {
        let mut c = *self;
        c.fields(|_, _, v| v.iter().for_each(|&x| e.u64(x)));
    }

    /// Reads every counter written by [`Counters::save_state`].
    fn load_state(&mut self, d: &mut Dec) -> WireResult<()> {
        let mut res = Ok(());
        self.fields(|_, _, v| {
            for x in v {
                if res.is_ok() {
                    res = d.u64().map(|y| *x = y);
                }
            }
        });
        res
    }
}

/// One step of the order-sensitive mixing hash used by the
/// progress-token fingerprints (FxHash-style multiply/rotate).
#[inline]
pub fn token_mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Most counters one [`Counters`] record may hold, array elements
/// included: the derived methods stage a record's values on the stack
/// (they run on every fast-forward jump).
const MAX_COUNTERS: usize = 64;

/// The counters of `c` in field order, zero-padded.
fn values<C: Counters>(c: &C) -> [u64; MAX_COUNTERS] {
    let (mut buf, mut n) = ([0; MAX_COUNTERS], 0);
    let mut c = *c;
    c.fields(|_, _, v| {
        buf[n..n + v.len()].copy_from_slice(v);
        n += v.len();
    });
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.usize(12345);
        e.bool(true);
        e.bool(false);
        e.bytes(b"xyz");
        let buf = e.finish();

        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.usize().unwrap(), 12345);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.bytes(3).unwrap(), b"xyz");
        d.done().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.u64(1);
        let buf = e.finish();
        let mut d = Dec::new(&buf[..5]);
        let err = d.u64().unwrap_err();
        assert_eq!(err.pos, 0);
        assert_eq!(err.what, "u64");
    }

    #[test]
    fn bad_bool_rejected() {
        let buf = [2u8];
        let mut d = Dec::new(&buf);
        assert!(d.bool().is_err());
    }

    #[test]
    fn tag_mismatch_rejected() {
        let mut d = Dec::new(b"HDXX");
        assert!(d.tag(b"HDCP", "magic").is_err());
        let mut d2 = Dec::new(b"HDCP");
        d2.tag(b"HDCP", "magic").unwrap();
        d2.done().unwrap();
    }

    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Rec {
        busy: u64,
        stalls: [u64; 2],
        done: u64,
    }

    impl Counters for Rec {
        fn fields(&mut self, mut f: impl FnMut(&'static str, bool, &mut [u64])) {
            let Rec { busy, stalls, done } = self;
            f("busy", true, std::slice::from_mut(busy));
            f("stalls", true, stalls);
            f("done", false, std::slice::from_mut(done));
        }
    }

    #[test]
    fn counters_delta_idle_replay_and_round_trip() {
        let before = Rec {
            busy: 10,
            stalls: [1, 2],
            done: 7,
        };
        let after = Rec {
            busy: 11,
            stalls: [1, 4],
            done: 7,
        };
        let d = after.delta_since(&before);
        assert_eq!(
            d,
            Rec {
                busy: 1,
                stalls: [0, 2],
                done: 0
            }
        );
        let mut r = after;
        r.add_idle_scaled(&d, 5);
        assert_eq!(
            r,
            Rec {
                busy: 16,
                stalls: [1, 14],
                done: 7
            }
        );

        let mut e = Enc::new();
        r.save_state(&mut e);
        let buf = e.finish();
        assert_eq!(buf.len(), 4 * 8);
        assert_eq!(buf[8..16], 1u64.to_le_bytes());
        let mut back = Rec::default();
        back.load_state(&mut Dec::new(&buf)).unwrap();
        assert_eq!(back, r);
        let err = Rec::default()
            .load_state(&mut Dec::new(&buf[..20]))
            .unwrap_err();
        assert_eq!(err.pos, 16);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-idle delta to `done`")]
    fn idle_replay_rejects_a_non_idle_delta() {
        let d = Rec {
            done: 1,
            ..Rec::default()
        };
        Rec::default().add_idle_scaled(&d, 3);
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        let _ = d.u8().unwrap();
        assert!(d.done().is_err());
    }
}
