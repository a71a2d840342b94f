//! Statistics counter records and the progress-token hash.
//!
//! [`Counters`] lists a record's `u64` counters once, in
//! [`Counters::fields`]; every crate's statistics implement it, and the
//! JSON encoding, the fast-forward delta and the idle-cycle replay all
//! walk that one list. [`token_mix`] is the mixing step of the
//! fingerprints the fast-forward detector compares across cycles.

/// A record of `u64` statistics counters whose field list is written once,
/// in [`Counters::fields`]; the fast-forward delta and the idle-cycle
/// replay are derived from it.
pub trait Counters: Copy {
    /// Visits every counter in field order as `f(key, idle, values)`: `key`
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
    fn counters_delta_and_idle_replay() {
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
}
