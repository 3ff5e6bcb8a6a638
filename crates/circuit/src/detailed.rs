//! Per-capacitor array simulator — the behavioural ground truth.
//!
//! [`DetailedArray`] tracks every unit capacitor through the four phases of
//! §III-A, computing each charge-sharing event from charge conservation with
//! the instance's [`MismatchField`] and [`NoiseModel`] applied. It exposes
//! every intermediate voltage (row DAC outputs, per-column accumulations,
//! per-CB MAC results) so tests and figures can probe any stage
//! (C-INTERMEDIATE).

// Index loops here deliberately walk several same-length arrays in lockstep.
#![allow(clippy::needless_range_loop)]

use crate::charge::{share, CapNode};
use crate::geometry::ArrayGeometry;
use crate::mcc::MemoryKind;
use crate::units::{Farad, Joule, Volt};
use crate::variation::{standard_normal, MismatchField, NoiseModel};
use crate::CircuitError;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// All voltages produced by one vector-matrix multiplication.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmmOutput {
    /// Phase-1 row DAC voltages, one per row.
    pub row_voltages: Vec<Volt>,
    /// Phase-3 column accumulation voltages, one per physical column.
    pub column_voltages: Vec<Volt>,
    /// Phase-4 MAC voltages, one per compute bar. This is what the TDA reads.
    pub cb_voltages: Vec<Volt>,
    /// Number of unit capacitors charged to `VDD` during input conversion.
    pub charged_caps: usize,
    /// Dynamic energy of the array for this VMM (`charged_caps · C · VDD²`).
    pub energy: Joule,
}

impl VmmOutput {
    /// Fraction of MCC capacitors activated (the paper assumes 50 % on
    /// average, following \[13\]).
    pub fn activity(&self, geometry: &ArrayGeometry) -> f64 {
        self.charged_caps as f64 / geometry.num_mccs() as f64
    }
}

/// A fully-instantiated in-charge computing array.
///
/// ```
/// use yoco_circuit::{ArrayGeometry, DetailedArray};
///
/// # fn main() -> Result<(), yoco_circuit::CircuitError> {
/// let geom = ArrayGeometry::fig2_example(); // 3x4, 2-bit
/// // Weight matrix: rows x num_cbs codes.
/// let weights = vec![vec![2, 1], vec![3, 0], vec![1, 2]];
/// let array = DetailedArray::new(geom, &weights)?;
/// let out = array.compute_vmm(&[2, 1, 3])?;
/// // CB 0 computes 2*2 + 1*3 + 3*1 = 10.
/// let dot = geom.voltage_to_dot(out.cb_voltages[0]);
/// assert!((dot - 10.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetailedArray {
    geom: ArrayGeometry,
    kind: MemoryKind,
    /// Multi-bit weight codes, `rows x num_cbs`.
    weights: Vec<u32>,
    /// Expanded 1-bit weights, `rows x cols` (column `cb*wb + b` holds bit `b`).
    bits: Vec<bool>,
    mismatch: MismatchField,
    noise: NoiseModel,
}

impl DetailedArray {
    /// Creates an ideal (noise-free, mismatch-free) array with the given
    /// weights, stored in SRAM-backed cells.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ShapeMismatch`] if `weights` is not
    /// `rows x num_cbs`, or [`CircuitError::CodeOutOfRange`] if any weight
    /// exceeds the weight resolution.
    pub fn new(geom: ArrayGeometry, weights: &[Vec<u32>]) -> Result<Self, CircuitError> {
        Self::with_noise(
            geom,
            weights,
            MemoryKind::Sram,
            NoiseModel::ideal(),
            MismatchField::ideal(geom.rows(), geom.cols()),
        )
    }

    /// Creates an array with a sampled mismatch field and the given noise
    /// model; `seed` makes the instance reproducible.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DetailedArray::new`].
    pub fn with_seeded_noise(
        geom: ArrayGeometry,
        weights: &[Vec<u32>],
        kind: MemoryKind,
        noise: NoiseModel,
        seed: u64,
    ) -> Result<Self, CircuitError> {
        let mismatch =
            MismatchField::sample(geom.rows(), geom.cols(), noise.cap_mismatch_sigma, seed);
        Self::with_noise(geom, weights, kind, noise, mismatch)
    }

    /// Creates an array from an explicit mismatch field (shared with a
    /// [`crate::FastArray`] for equivalence testing).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DetailedArray::new`], plus a shape mismatch if
    /// the field does not match the geometry.
    pub fn with_noise(
        geom: ArrayGeometry,
        weights: &[Vec<u32>],
        kind: MemoryKind,
        noise: NoiseModel,
        mismatch: MismatchField,
    ) -> Result<Self, CircuitError> {
        if mismatch.rows() != geom.rows() || mismatch.cols() != geom.cols() {
            return Err(CircuitError::ShapeMismatch {
                what: "mismatch field",
                expected: geom.num_mccs(),
                actual: mismatch.rows() * mismatch.cols(),
            });
        }
        let mut array = Self {
            geom,
            kind,
            weights: vec![0; geom.rows() * geom.num_cbs()],
            bits: vec![false; geom.num_mccs()],
            mismatch,
            noise,
        };
        array.write_weights(weights)?;
        Ok(array)
    }

    /// Replaces the full weight matrix (`rows x num_cbs` multi-bit codes).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ShapeMismatch`] or
    /// [`CircuitError::CodeOutOfRange`] on invalid input; the array is left
    /// unchanged on error.
    pub fn write_weights(&mut self, weights: &[Vec<u32>]) -> Result<(), CircuitError> {
        if weights.len() != self.geom.rows() {
            return Err(CircuitError::ShapeMismatch {
                what: "weight matrix rows",
                expected: self.geom.rows(),
                actual: weights.len(),
            });
        }
        for (r, row) in weights.iter().enumerate() {
            if row.len() != self.geom.num_cbs() {
                return Err(CircuitError::ShapeMismatch {
                    what: "weight matrix columns",
                    expected: self.geom.num_cbs(),
                    actual: row.len(),
                });
            }
            for &w in row {
                if w > self.geom.max_weight() {
                    return Err(CircuitError::CodeOutOfRange {
                        code: w,
                        bits: self.geom.weight_bits(),
                    });
                }
                let _ = r;
            }
        }
        let wb = self.geom.weight_bits() as usize;
        for (r, row) in weights.iter().enumerate() {
            for (cb, &w) in row.iter().enumerate() {
                self.weights[r * self.geom.num_cbs() + cb] = w;
                for b in 0..wb {
                    let col = cb * wb + b;
                    self.bits[r * self.geom.cols() + col] = (w >> b) & 1 == 1;
                }
            }
        }
        Ok(())
    }

    /// The array geometry.
    pub fn geometry(&self) -> &ArrayGeometry {
        &self.geom
    }

    /// The memory technology backing the cells.
    pub fn memory_kind(&self) -> MemoryKind {
        self.kind
    }

    /// The stored multi-bit weight at `(row, cb)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn weight(&self, row: usize, cb: usize) -> u32 {
        assert!(row < self.geom.rows() && cb < self.geom.num_cbs());
        self.weights[row * self.geom.num_cbs() + cb]
    }

    /// The noise model attached to this instance.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Marks the unit capacitor at `(row, col)` as dead: it contributes
    /// (almost) no charge and no capacitance to any sharing event. Used by
    /// the fault-injection campaign in [`crate::faults`].
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn kill_capacitor(&mut self, row: usize, col: usize) {
        self.mismatch.set(row, col, 1e-6);
    }

    /// Redraws this instance's mismatch field in place from `seed`, with
    /// the noise model's capacitor sigma: afterwards the array equals a
    /// [`DetailedArray::with_seeded_noise`] instance of the same weights,
    /// noise model and `seed` (killed capacitors come back to life).
    pub fn resample_mismatch(&mut self, seed: u64) {
        self.mismatch.resample(self.noise.cap_mismatch_sigma, seed);
    }

    fn cap_at(&self, row: usize, col: usize) -> Farad {
        Farad::new(crate::UNIT_CAP * self.mismatch.get(row, col))
    }

    /// Phase 1 — DAC-less input conversion for every row.
    ///
    /// Returns the row voltages and the number of capacitors charged to
    /// `VDD` (for the energy account).
    ///
    /// # Errors
    ///
    /// Returns a shape or range error if `inputs` does not match the
    /// geometry.
    pub fn convert_inputs(&self, inputs: &[u32]) -> Result<(Vec<Volt>, usize), CircuitError> {
        if inputs.len() != self.geom.rows() {
            return Err(CircuitError::ShapeMismatch {
                what: "input vector",
                expected: self.geom.rows(),
                actual: inputs.len(),
            });
        }
        for &x in inputs {
            if x > self.geom.max_input() {
                return Err(CircuitError::CodeOutOfRange {
                    code: x,
                    bits: self.geom.input_bits(),
                });
            }
        }
        let group_sizes = self.geom.edac_group_sizes();
        let mut charged = 0usize;
        let mut rows = Vec::with_capacity(self.geom.rows());
        let mut nodes: Vec<CapNode> = Vec::with_capacity(self.geom.cols());
        for (r, &x) in inputs.iter().enumerate() {
            nodes.clear();
            let mut col = 0usize;
            for (g, &size) in group_sizes.iter().enumerate() {
                // Group 0 is tied to VSS; group g>=1 carries input bit g-1.
                let v = if g == 0 {
                    Volt::ZERO
                } else if (x >> (g - 1)) & 1 == 1 {
                    charged += size;
                    Volt::new(crate::VDD)
                } else {
                    Volt::ZERO
                };
                for _ in 0..size {
                    nodes.push(CapNode::new(self.cap_at(r, col), v));
                    col += 1;
                }
            }
            let ideal = share(&nodes);
            let v = self.noise.settle(self.noise.inject(ideal.value()));
            rows.push(Volt::new(v));
        }
        Ok((rows, charged))
    }

    /// Runs all four phases deterministically (no random readout offset).
    ///
    /// # Errors
    ///
    /// Propagates input validation errors from [`Self::convert_inputs`].
    pub fn compute_vmm(&self, inputs: &[u32]) -> Result<VmmOutput, CircuitError> {
        self.compute_inner(inputs, None)
    }

    /// Runs all four phases including the random readout offset, drawn
    /// deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates input validation errors from [`Self::convert_inputs`].
    pub fn compute_vmm_seeded(&self, inputs: &[u32], seed: u64) -> Result<VmmOutput, CircuitError> {
        self.compute_inner(inputs, Some(seed))
    }

    fn compute_inner(&self, inputs: &[u32], seed: Option<u64>) -> Result<VmmOutput, CircuitError> {
        let (row_voltages, charged_caps) = self.convert_inputs(inputs)?;
        let cols = self.geom.cols();
        let rows = self.geom.rows();

        // Phase 2 (multiply) + Phase 3 (column accumulation). Cells whose
        // weight bit is 0 discharge but stay connected, so the denominator
        // covers every cell of the column. The walk is row-major over the
        // storage; each column still sums its rows in ascending order.
        let mut q = vec![0.0f64; cols];
        let mut cap = vec![0.0f64; cols];
        for r in 0..rows {
            let v = row_voltages[r].value();
            let mult = self.mismatch.row(r);
            let bits = &self.bits[r * cols..(r + 1) * cols];
            for c in 0..cols {
                let c_ij = crate::UNIT_CAP * mult[c];
                cap[c] += c_ij;
                if bits[c] {
                    q[c] += c_ij * v;
                }
            }
        }
        let column_voltages: Vec<Volt> = q
            .iter()
            .zip(&cap)
            .map(|(q, cap)| Volt::new(self.noise.settle(self.noise.inject(q / cap))))
            .collect();

        // Phase 4 — weighted summation within each compute bar: 2^b cells of
        // the bit-b column join the final output line.
        let wb = self.geom.weight_bits() as usize;
        let mut rng = seed.map(ChaCha12Rng::seed_from_u64);
        let mut cb_voltages = Vec::with_capacity(self.geom.num_cbs());
        for cb in 0..self.geom.num_cbs() {
            let mut q = 0.0f64;
            let mut cap = 0.0f64;
            for b in 0..wb {
                let col = cb * wb + b;
                let participating = self.geom.esa_caps_for_bit(b as u8);
                for r in 0..participating {
                    let c_ij = self.cap_at(r, col).value();
                    cap += c_ij;
                    q += c_ij * column_voltages[col].value();
                }
            }
            let ideal = q / cap;
            let mut v = self.noise.settle(self.noise.inject(ideal));
            if let Some(rng) = rng.as_mut() {
                v += self.noise.readout_offset_sigma * standard_normal(rng);
            }
            cb_voltages.push(Volt::new(v));
        }

        let energy = Joule::new(charged_caps as f64 * crate::UNIT_CAP * crate::VDD * crate::VDD);
        Ok(VmmOutput {
            row_voltages,
            column_voltages,
            cb_voltages,
            charged_caps,
            energy,
        })
    }

    /// The exact integer dot products this VMM should produce, one per CB.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `inputs` does not match the geometry.
    pub fn expected_dots(&self, inputs: &[u32]) -> Result<Vec<f64>, CircuitError> {
        if inputs.len() != self.geom.rows() {
            return Err(CircuitError::ShapeMismatch {
                what: "input vector",
                expected: self.geom.rows(),
                actual: inputs.len(),
            });
        }
        let mut dots = vec![0.0f64; self.geom.num_cbs()];
        for (r, &x) in inputs.iter().enumerate() {
            for (cb, dot) in dots.iter_mut().enumerate() {
                *dot += x as f64 * self.weights[r * self.geom.num_cbs() + cb] as f64;
            }
        }
        Ok(dots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_array() -> DetailedArray {
        let geom = ArrayGeometry::fig2_example();
        let weights = vec![vec![2, 1], vec![3, 0], vec![1, 2]];
        DetailedArray::new(geom, &weights).unwrap()
    }

    #[test]
    fn fig2_ideal_dot_products_are_exact() {
        let array = fig2_array();
        let inputs = [2u32, 1, 3];
        let out = array.compute_vmm(&inputs).unwrap();
        let dots = array.expected_dots(&inputs).unwrap();
        for (cb, &d) in dots.iter().enumerate() {
            let got = array.geometry().voltage_to_dot(out.cb_voltages[cb]);
            assert!((got - d).abs() < 1e-9, "cb {cb}: got {got}, want {d}");
        }
    }

    #[test]
    fn paper_example_half_vdd_row_voltage() {
        // Fig 3 step 1: X = 0b10 converts to VDD/2.
        let array = fig2_array();
        let (rows, _) = array.convert_inputs(&[2, 0, 0]).unwrap();
        assert!((rows[0].value() - crate::VDD / 2.0).abs() < 1e-12);
        assert!(rows[1].value().abs() < 1e-12);
    }

    #[test]
    fn full_size_ideal_array_is_exact() {
        let geom = ArrayGeometry::yoco_default();
        let weights: Vec<Vec<u32>> = (0..geom.rows())
            .map(|r| {
                (0..geom.num_cbs())
                    .map(|c| ((r * 7 + c * 13) % 256) as u32)
                    .collect()
            })
            .collect();
        let array = DetailedArray::new(geom, &weights).unwrap();
        let inputs: Vec<u32> = (0..geom.rows()).map(|r| ((r * 31) % 256) as u32).collect();
        let out = array.compute_vmm(&inputs).unwrap();
        let dots = array.expected_dots(&inputs).unwrap();
        for cb in 0..geom.num_cbs() {
            let got = geom.voltage_to_dot(out.cb_voltages[cb]);
            assert!(
                (got - dots[cb]).abs() < 1e-6,
                "cb {cb}: got {got}, want {}",
                dots[cb]
            );
        }
    }

    #[test]
    fn charged_caps_counts_set_bits() {
        let geom = ArrayGeometry::fig2_example();
        let weights = vec![vec![0, 0]; 3];
        let array = DetailedArray::new(geom, &weights).unwrap();
        // X = 3 charges groups of size 1 and 2; X = 0 charges none.
        let (_, charged) = array.convert_inputs(&[3, 0, 1]).unwrap();
        assert_eq!(charged, 3 + 1);
    }

    #[test]
    fn energy_matches_activation_count() {
        let geom = ArrayGeometry::yoco_default();
        let weights = vec![vec![255u32; 32]; 128];
        let array = DetailedArray::new(geom, &weights).unwrap();
        let out = array.compute_vmm(&vec![255u32; 128]).unwrap();
        // All-ones input charges every non-VSS group: 255 of 256 caps per row.
        assert_eq!(out.charged_caps, 128 * 255);
        let expected = 128.0 * 255.0 * 1.62e-15;
        assert!((out.energy.value() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn rejects_bad_shapes_and_codes() {
        let geom = ArrayGeometry::fig2_example();
        assert!(DetailedArray::new(geom, &[vec![0, 0]]).is_err());
        assert!(DetailedArray::new(geom, &[vec![0], vec![0], vec![0]]).is_err());
        assert!(DetailedArray::new(geom, &[vec![4, 0], vec![0, 0], vec![0, 0]]).is_err());
        let array = fig2_array();
        assert!(array.compute_vmm(&[1, 2]).is_err());
        assert!(array.compute_vmm(&[4, 0, 0]).is_err());
    }

    #[test]
    fn noisy_instance_is_reproducible() {
        let geom = ArrayGeometry::yoco_default();
        let weights = vec![vec![128u32; 32]; 128];
        let a = DetailedArray::with_seeded_noise(
            geom,
            &weights,
            MemoryKind::Sram,
            NoiseModel::tt_corner(),
            99,
        )
        .unwrap();
        let b = DetailedArray::with_seeded_noise(
            geom,
            &weights,
            MemoryKind::Sram,
            NoiseModel::tt_corner(),
            99,
        )
        .unwrap();
        let inputs = vec![200u32; 128];
        assert_eq!(
            a.compute_vmm_seeded(&inputs, 5).unwrap(),
            b.compute_vmm_seeded(&inputs, 5).unwrap()
        );
    }

    #[test]
    fn resampled_instance_equals_a_freshly_seeded_one() {
        let geom = ArrayGeometry::fig2_example();
        let weights = vec![vec![2, 1], vec![3, 0], vec![1, 2]];
        let noise = NoiseModel::ss_corner();
        let mut reused =
            DetailedArray::with_seeded_noise(geom, &weights, MemoryKind::Sram, noise, 1).unwrap();
        reused.kill_capacitor(0, 0);
        for seed in [2, 99, 1 << 40] {
            reused.resample_mismatch(seed);
            let fresh =
                DetailedArray::with_seeded_noise(geom, &weights, MemoryKind::Sram, noise, seed)
                    .unwrap();
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn noisy_error_stays_inside_fig6_bound() {
        // Array-level MAC error < 0.68 % of full scale (Fig 6c).
        let geom = ArrayGeometry::yoco_default();
        let weights: Vec<Vec<u32>> = (0..128)
            .map(|r| {
                (0..32)
                    .map(|c| ((r * 11 + c * 3 + 7) % 256) as u32)
                    .collect()
            })
            .collect();
        let array = DetailedArray::with_seeded_noise(
            geom,
            &weights,
            MemoryKind::Sram,
            NoiseModel::tt_corner(),
            7,
        )
        .unwrap();
        let fs = geom.full_scale_voltage().value();
        for trial in 0..8u64 {
            let inputs: Vec<u32> = (0..128)
                .map(|r| ((r as u64 * 29 + trial * 57) % 256) as u32)
                .collect();
            let out = array.compute_vmm_seeded(&inputs, trial).unwrap();
            let dots = array.expected_dots(&inputs).unwrap();
            for cb in 0..32 {
                let ideal_v = geom.dot_to_voltage(dots[cb]).value();
                let err = (out.cb_voltages[cb].value() - ideal_v).abs() / fs;
                assert!(err < 0.0068, "trial {trial} cb {cb}: err {err}");
            }
        }
    }
}
