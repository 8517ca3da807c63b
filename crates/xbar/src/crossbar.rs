//! Crossbar arrays: analog matrix–vector compute with event counting.
//!
//! A [`SignedCrossbar`] is RAELLA's 512×512 2T2R array (Fig. 6, §5.1): each
//! cell pair adds `input·(pos − neg)` to its column's analog sum. An
//! [`UnsignedCrossbar`] is an ISAAC-style single-cell array computing
//! unsigned sums. Both count the events the energy model prices —
//! ADC converts, DAC pulses, row activations, device charge.

use serde::{Deserialize, Serialize};

use crate::device::{ReramCell, TwoT2R};
use crate::error::XbarError;
use crate::noise::{NoiseModel, NoiseRng};

/// Event counters accumulated while driving crossbars.
///
/// These are *architecture-neutral quantities*; `raella-energy` prices them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EventCounts {
    /// ADC conversions performed.
    pub adc_converts: u64,
    /// DAC pulses driven (data-dependent: a value `v` costs `v` pulses).
    pub dac_pulses: u64,
    /// Crossbar row activations (rows × cycles with a nonzero input).
    pub row_activations: u64,
    /// Total device charge moved: `Σ input·(pos+neg)` over all cells read.
    pub device_charge: u64,
    /// Crossbar cycles elapsed (one cycle = one input slice streamed).
    pub cycles: u64,
    /// MACs logically performed (for converts/MAC reporting).
    pub macs: u64,
}

impl EventCounts {
    /// Zeroed counters.
    pub fn new() -> Self {
        EventCounts::default()
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &EventCounts) {
        self.adc_converts += other.adc_converts;
        self.dac_pulses += other.dac_pulses;
        self.row_activations += other.row_activations;
        self.device_charge += other.device_charge;
        self.cycles += other.cycles;
        self.macs += other.macs;
    }

    /// ADC conversions per MAC — the paper's headline efficiency metric
    /// (Table 2). Returns 0 when no MACs were performed.
    pub fn converts_per_mac(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.adc_converts as f64 / self.macs as f64
        }
    }
}

/// A 2T2R signed crossbar (`rows × cols` pairs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignedCrossbar {
    rows: usize,
    cols: usize,
    cell_bits: u8,
    pairs: Vec<TwoT2R>,
}

impl SignedCrossbar {
    /// An erased array of `rows × cols` pairs rated `cell_bits` per cell.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero (cell rating is validated by
    /// [`TwoT2R::new`]).
    pub fn new(rows: usize, cols: usize, cell_bits: u8) -> Self {
        assert!(rows > 0 && cols > 0, "degenerate crossbar {rows}×{cols}");
        SignedCrossbar {
            rows,
            cols,
            cell_bits,
            pairs: vec![TwoT2R::new(cell_bits); rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bits per cell.
    pub fn cell_bits(&self) -> u8 {
        self.cell_bits
    }

    fn index(&self, row: usize, col: usize) -> usize {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        assert!(col < self.cols, "col {col} out of range {}", self.cols);
        row * self.cols + col
    }

    /// Programs the pair at (`row`, `col`) with positive/negative offsets.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range or a level does not fit
    /// the cell rating — programming happens at compile time, and a bad
    /// program is a bug, not a runtime condition.
    pub fn program(&mut self, row: usize, col: usize, pos: u8, neg: u8) {
        let idx = self.index(row, col);
        self.pairs[idx]
            .program(pos, neg)
            .expect("offset level exceeds cell rating");
    }

    /// Fallible programming for callers validating untrusted levels.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::IndexOutOfRange`] or
    /// [`XbarError::ValueOutOfRange`].
    pub fn try_program(
        &mut self,
        row: usize,
        col: usize,
        pos: u8,
        neg: u8,
    ) -> Result<(), XbarError> {
        if row >= self.rows {
            return Err(XbarError::IndexOutOfRange {
                axis: "row",
                index: row,
                extent: self.rows,
            });
        }
        if col >= self.cols {
            return Err(XbarError::IndexOutOfRange {
                axis: "col",
                index: col,
                extent: self.cols,
            });
        }
        let idx = row * self.cols + col;
        self.pairs[idx].program(pos, neg)
    }

    /// The (positive, negative) levels at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn levels(&self, row: usize, col: usize) -> (u8, u8) {
        self.pairs[self.index(row, col)].levels()
    }

    /// Ideal analog column sum `Σᵣ inputs[r]·(pos − neg)` for one column.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.rows()`.
    pub fn column_sum(&self, col: usize, inputs: &[u16]) -> i64 {
        assert_eq!(inputs.len(), self.rows, "one input per row");
        assert!(col < self.cols, "col {col} out of range {}", self.cols);
        let mut sum = 0i64;
        for (r, &x) in inputs.iter().enumerate() {
            sum += self.pairs[r * self.cols + col].read(x);
        }
        sum
    }

    /// Ideal analog sums of **all** columns in one row-major pass:
    /// `out[c] = Σᵣ inputs[r]·(pos − neg)`. One traversal of the (row-major)
    /// pair array serves every column — the cache-blocked panel order —
    /// instead of `cols()` strided walks of [`SignedCrossbar::column_sum`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.rows()` or
    /// `out.len() != self.cols()`.
    pub fn column_sums_into(&self, inputs: &[u16], out: &mut [i64]) {
        assert_eq!(inputs.len(), self.rows, "one input per row");
        assert_eq!(out.len(), self.cols, "one output per column");
        out.fill(0);
        for (r, &x) in inputs.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let row = &self.pairs[r * self.cols..(r + 1) * self.cols];
            for (o, pair) in out.iter_mut().zip(row) {
                *o += pair.read(x);
            }
        }
    }

    /// Positive and negative product sums `(N⁺, N⁻)` for one column — the
    /// quantities the noise model scales with.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.rows()`.
    pub fn column_charge(&self, col: usize, inputs: &[u16]) -> (i64, i64) {
        assert_eq!(inputs.len(), self.rows, "one input per row");
        let mut pos = 0i64;
        let mut neg = 0i64;
        for (r, &x) in inputs.iter().enumerate() {
            let (p, n) = self.pairs[r * self.cols + col].levels();
            pos += i64::from(x) * i64::from(p);
            neg += i64::from(x) * i64::from(n);
        }
        (pos, neg)
    }

    /// Column sum under the §7.2 noise model.
    pub fn column_sum_noisy(
        &self,
        col: usize,
        inputs: &[u16],
        noise: &NoiseModel,
        rng: &mut NoiseRng,
    ) -> i64 {
        let (pos, neg) = self.column_charge(col, inputs);
        noise.read(pos - neg, pos + neg, rng)
    }
}

/// An ISAAC-style unsigned crossbar (one cell per crosspoint).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnsignedCrossbar {
    rows: usize,
    cols: usize,
    cells: Vec<ReramCell>,
}

impl UnsignedCrossbar {
    /// An erased `rows × cols` array rated `cell_bits` per cell.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, cell_bits: u8) -> Self {
        assert!(rows > 0 && cols > 0, "degenerate crossbar {rows}×{cols}");
        UnsignedCrossbar {
            rows,
            cols,
            cells: vec![ReramCell::new(cell_bits); rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Programs the cell at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates or an overfull level.
    pub fn program(&mut self, row: usize, col: usize, level: u8) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.cells[row * self.cols + col]
            .program(level)
            .expect("level exceeds cell rating");
    }

    /// Unsigned analog column sum for one column.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.rows()`.
    pub fn column_sum(&self, col: usize, inputs: &[u16]) -> i64 {
        assert_eq!(inputs.len(), self.rows, "one input per row");
        assert!(col < self.cols, "col {col} out of range {}", self.cols);
        let mut sum = 0i64;
        for (r, &x) in inputs.iter().enumerate() {
            sum += self.cells[r * self.cols + col].read(x);
        }
        sum
    }

    /// Column sum under noise (all charge is positive here).
    pub fn column_sum_noisy(
        &self,
        col: usize,
        inputs: &[u16],
        noise: &NoiseModel,
        rng: &mut NoiseRng,
    ) -> i64 {
        let sum = self.column_sum(col, inputs);
        noise.read(sum, sum, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_column_sum_matches_dot_product() {
        let mut x = SignedCrossbar::new(4, 2, 4);
        // Column 0: weights +1, −2, +3, 0; column 1: all +1.
        x.program(0, 0, 1, 0);
        x.program(1, 0, 0, 2);
        x.program(2, 0, 3, 0);
        for r in 0..4 {
            x.program(r, 1, 1, 0);
        }
        let inputs = [10u16, 20, 30, 40];
        assert_eq!(x.column_sum(0, &inputs), 10 - 40 + 90);
        assert_eq!(x.column_sum(1, &inputs), 100);
    }

    #[test]
    fn column_sums_into_matches_per_column_sums() {
        let mut x = SignedCrossbar::new(5, 3, 4);
        for r in 0..5 {
            for c in 0..3 {
                let level = ((r * 3 + c) % 7) as u8;
                if (r + c) % 2 == 0 {
                    x.program(r, c, level, 0);
                } else {
                    x.program(r, c, 0, level);
                }
            }
        }
        let inputs = [3u16, 0, 7, 1, 15];
        let mut panel = vec![0i64; 3];
        x.column_sums_into(&inputs, &mut panel);
        for (c, &sum) in panel.iter().enumerate() {
            assert_eq!(sum, x.column_sum(c, &inputs), "column {c}");
        }
    }

    #[test]
    #[should_panic(expected = "one output per column")]
    fn column_sums_into_checks_output_length() {
        let x = SignedCrossbar::new(2, 3, 4);
        x.column_sums_into(&[1, 2], &mut [0i64; 2]);
    }

    #[test]
    fn column_charge_splits_pos_neg() {
        let mut x = SignedCrossbar::new(2, 1, 4);
        x.program(0, 0, 5, 0);
        x.program(1, 0, 0, 3);
        let (pos, neg) = x.column_charge(0, &[2, 4]);
        assert_eq!(pos, 10);
        assert_eq!(neg, 12);
        assert_eq!(x.column_sum(0, &[2, 4]), -2);
    }

    #[test]
    fn try_program_reports_errors() {
        let mut x = SignedCrossbar::new(2, 2, 4);
        assert!(matches!(
            x.try_program(2, 0, 1, 0),
            Err(XbarError::IndexOutOfRange { axis: "row", .. })
        ));
        assert!(matches!(
            x.try_program(0, 5, 1, 0),
            Err(XbarError::IndexOutOfRange { axis: "col", .. })
        ));
        assert!(matches!(
            x.try_program(0, 0, 16, 0),
            Err(XbarError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "one input per row")]
    fn column_sum_checks_input_length() {
        let x = SignedCrossbar::new(3, 1, 4);
        x.column_sum(0, &[1, 2]);
    }

    #[test]
    fn unsigned_crossbar_sums_unsigned() {
        let mut x = UnsignedCrossbar::new(3, 1, 2);
        x.program(0, 0, 3);
        x.program(1, 0, 2);
        x.program(2, 0, 1);
        assert_eq!(x.column_sum(0, &[1, 1, 1]), 6);
        assert_eq!(x.column_sum(0, &[0, 0, 5]), 5);
    }

    #[test]
    fn noisy_sum_with_ideal_model_is_exact() {
        let mut x = SignedCrossbar::new(2, 1, 4);
        x.program(0, 0, 4, 0);
        x.program(1, 0, 0, 4);
        let mut rng = NoiseRng::new(0);
        assert_eq!(
            x.column_sum_noisy(0, &[3, 1], &NoiseModel::ideal(), &mut rng),
            8
        );
    }

    #[test]
    fn noisy_sum_perturbs_with_noise() {
        let mut x = SignedCrossbar::new(64, 1, 4);
        for r in 0..64 {
            x.program(r, 0, 8, 0);
        }
        let inputs = vec![8u16; 64];
        let noise = NoiseModel::new(0.12);
        let mut rng = NoiseRng::new(1);
        let ideal = x.column_sum(0, &inputs);
        let samples: Vec<i64> = (0..200)
            .map(|_| x.column_sum_noisy(0, &inputs, &noise, &mut rng))
            .collect();
        assert!(samples.iter().any(|&s| s != ideal), "noise had no effect");
        let mean = samples.iter().sum::<i64>() as f64 / 200.0;
        assert!((mean - ideal as f64).abs() < 20.0, "mean {mean} vs {ideal}");
    }

    #[test]
    fn event_counts_merge_and_converts_per_mac() {
        let mut a = EventCounts {
            adc_converts: 10,
            macs: 40,
            ..EventCounts::new()
        };
        let b = EventCounts {
            adc_converts: 6,
            dac_pulses: 100,
            macs: 24,
            ..EventCounts::new()
        };
        a.merge(&b);
        assert_eq!(a.adc_converts, 16);
        assert_eq!(a.dac_pulses, 100);
        assert!((a.converts_per_mac() - 0.25).abs() < 1e-12);
        assert_eq!(EventCounts::new().converts_per_mac(), 0.0);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_sized_crossbar_rejected() {
        SignedCrossbar::new(0, 4, 4);
    }
}
