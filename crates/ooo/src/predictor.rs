//! Bimodal branch predictor (Table 1: "Branch predict mode: Bimodal,
//! branch table size 2048").

/// A table of 2-bit saturating counters indexed by instruction index.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<u8>,
    mask: u32,
    predictions: u64,
    mispredictions: u64,
}

impl Bimodal {
    /// Creates a predictor with `entries` 2-bit counters (power of two),
    /// initialised to weakly-taken.
    pub fn new(entries: u32) -> Bimodal {
        assert!(
            entries.is_power_of_two(),
            "predictor size must be a power of two"
        );
        Bimodal {
            table: vec![2; entries as usize],
            mask: entries - 1,
            predictions: 0,
            mispredictions: 0,
        }
    }

    #[inline]
    fn idx(&self, pc: u32) -> usize {
        (pc & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    #[inline]
    pub fn predict(&mut self, pc: u32) -> bool {
        self.predictions += 1;
        self.table[self.idx(pc)] >= 2
    }

    /// Trains the counter with the actual outcome; counts a misprediction
    /// if `predicted != taken`.
    #[inline]
    pub fn update(&mut self, pc: u32, taken: bool, predicted: bool) {
        if predicted != taken {
            self.mispredictions += 1;
        }
        let i = self.idx(pc);
        let c = &mut self.table[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// `(predictions, mispredictions)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut p = Bimodal::new(16);
        for _ in 0..4 {
            let pred = p.predict(5);
            p.update(5, true, pred);
        }
        assert!(p.predict(5));
        // Now always-not-taken: takes a couple of updates to flip.
        for _ in 0..4 {
            let pred = p.predict(5);
            p.update(5, false, pred);
        }
        assert!(!p.predict(5));
    }

    #[test]
    fn counts_mispredictions() {
        let mut p = Bimodal::new(16);
        let pred = p.predict(0); // weakly taken ⇒ true
        assert!(pred);
        p.update(0, false, pred);
        assert_eq!(p.stats().1, 1);
    }

    #[test]
    fn aliasing_uses_mask() {
        let mut p = Bimodal::new(4);
        // pcs 1 and 5 alias
        for _ in 0..3 {
            let pr = p.predict(1);
            p.update(1, false, pr);
        }
        assert!(!p.predict(5));
    }

    #[test]
    #[should_panic]
    fn non_pow2_rejected() {
        Bimodal::new(12);
    }
}
