//! Fig 6 computations: circuit accuracy characterization, lifted out of
//! the `fig6` bin so they run (and cache) through the engine.
//!
//! The numeric output is pinned by the golden digests in
//! `tests/golden_digests.rs`: reusing arrays across sweep points and
//! running Fig 6(d)'s instances in parallel must not change a bit.

use crate::api::SweepError;
use crate::executor::JobBudget;
use serde::{Deserialize, Serialize};
use yoco_circuit::dac::DacTransfer;
use yoco_circuit::units::Volt;
use yoco_circuit::variation::{MismatchField, MonteCarloReport};
use yoco_circuit::{ArrayGeometry, DetailedArray, MemoryKind, MonteCarlo, NoiseModel};

/// Fig 6(a): the input-conversion transfer curve with INL/DNL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6aRecord {
    /// Input codes, 0..=255.
    pub codes: Vec<u32>,
    /// Converted row voltage per code.
    pub volts: Vec<f64>,
    /// Integral nonlinearity per code, LSB.
    pub inl_lsb: Vec<f64>,
    /// Differential nonlinearity per code, LSB.
    pub dnl_lsb: Vec<f64>,
    /// Worst |INL|, LSB.
    pub max_inl: f64,
    /// Worst |DNL|, LSB.
    pub max_dnl: f64,
}

/// Computes Fig 6(a).
pub fn fig6a() -> Result<Fig6aRecord, SweepError> {
    let t = DacTransfer::measure(ArrayGeometry::yoco_default(), NoiseModel::tt_corner(), 42)
        .map_err(|e| SweepError::evaluation("study/fig6a", e))?;
    let lin = t.linearity();
    Ok(Fig6aRecord {
        codes: t.codes.clone(),
        volts: t.volts.iter().map(|v| v.value()).collect(),
        inl_lsb: lin.inl.clone(),
        dnl_lsb: lin.dnl.clone(),
        max_inl: lin.max_inl,
        max_dnl: lin.max_dnl,
    })
}

/// Fig 6(b)/(c): the 8-bit MAC transfer curves over 128 channels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6bcRecord {
    /// Swept codes, 0..=255.
    pub codes: Vec<u32>,
    /// CB voltage with weights swept (input fixed at 255).
    pub weight_sweep_volts: Vec<f64>,
    /// CB voltage with inputs swept (weight fixed at 255).
    pub input_sweep_volts: Vec<f64>,
    /// MAC error of the weight sweep, percent of full scale.
    pub weight_sweep_err_pct: Vec<f64>,
    /// MAC error of the input sweep, percent of full scale.
    pub input_sweep_err_pct: Vec<f64>,
    /// Worst |error| over both sweeps, percent.
    pub max_err_pct: f64,
}

/// Computes Fig 6(b)/(c). Every sweep point is the same seed-1234
/// instance with new weights, so the array is built once and rewritten.
pub fn fig6bc() -> Result<Fig6bcRecord, SweepError> {
    let fail = |e| SweepError::evaluation("study/fig6bc", e);
    let geom = ArrayGeometry::yoco_default();
    let fs = geom.full_scale_voltage().value();
    let mut array = DetailedArray::with_seeded_noise(
        geom,
        &vec![vec![0; geom.num_cbs()]; geom.rows()],
        MemoryKind::Sram,
        NoiseModel::tt_corner(),
        1234,
    )
    .map_err(fail)?;
    let mut codes = Vec::new();
    let mut wv = Vec::new();
    let mut iv = Vec::new();
    let mut we = Vec::new();
    let mut ie = Vec::new();
    let mut max_err = 0.0f64;
    for code in 0..=255u32 {
        codes.push(code);
        // Blue curve: weights swept, input fixed at 255.
        // Red curve: inputs swept, weight fixed at 255.
        for (sweep_w, volts, errs) in [(true, &mut wv, &mut we), (false, &mut iv, &mut ie)] {
            let (w, x) = if sweep_w { (code, 255) } else { (255, code) };
            array.write_weights(&vec![vec![w; 32]; 128]).map_err(fail)?;
            let out = array
                .compute_vmm_seeded(&vec![x; 128], code as u64)
                .map_err(fail)?;
            let v = out.cb_voltages[0].value();
            let ideal = geom.dot_to_voltage(128.0 * (w * x) as f64).value();
            let err = (v - ideal) / fs * 100.0;
            volts.push(v);
            errs.push(err);
            max_err = max_err.max(err.abs());
        }
    }
    Ok(Fig6bcRecord {
        codes,
        weight_sweep_volts: wv,
        input_sweep_volts: iv,
        weight_sweep_err_pct: we,
        input_sweep_err_pct: ie,
        max_err_pct: max_err,
    })
}

/// Monte-Carlo instances per fan-out item of [`fig6d`]: each item reuses
/// one array for its instances, and is short enough (tens of
/// milliseconds) that a freed worker joins soon.
const FIG6D_CHUNK: usize = 32;

/// Computes Fig 6(d): the 2000-run Monte-Carlo voltage-offset
/// distribution at TT, 25 °C.
///
/// Instances run in contiguous chunks fanned out over spare tokens of
/// `budget`. Each chunk builds one array and resamples its mismatch
/// field in place for every further instance, which is bit-identical to
/// building the instance from its seed, and the offsets are summarized
/// in instance order — so the report is the same at any budget.
pub fn fig6d(budget: &JobBudget) -> Result<MonteCarloReport, SweepError> {
    let fail = |e| SweepError::evaluation("study/fig6d", e);
    let geom = ArrayGeometry::yoco_default();
    let weights: Vec<Vec<u32>> = (0..128)
        .map(|r| {
            (0..32)
                .map(|c| ((r * 11 + c * 3 + 7) % 256) as u32)
                .collect()
        })
        .collect();
    let inputs: Vec<u32> = (0..128).map(|r| ((r * 97 + 31) % 256) as u32).collect();
    let v_nom = DetailedArray::with_noise(
        geom,
        &weights,
        MemoryKind::Sram,
        NoiseModel {
            cap_mismatch_sigma: 0.0,
            readout_offset_sigma: 0.0,
            ..NoiseModel::tt_corner()
        },
        MismatchField::ideal(geom.rows(), geom.cols()),
    )
    .and_then(|nominal| nominal.compute_vmm(&inputs))
    .map_err(fail)?
    .cb_voltages[0];
    let mc = MonteCarlo::new(2000, 99);
    let chunks = budget.fan_out(mc.runs().div_ceil(FIG6D_CHUNK), |c| {
        let instances = c * FIG6D_CHUNK..((c + 1) * FIG6D_CHUNK).min(mc.runs());
        let mut inst = DetailedArray::with_seeded_noise(
            geom,
            &weights,
            MemoryKind::Sram,
            NoiseModel::tt_corner(),
            mc.instance_seed(instances.start),
        )?;
        let mut offsets = Vec::with_capacity(instances.len());
        for i in instances.clone() {
            let seed = mc.instance_seed(i);
            if i > instances.start {
                inst.resample_mismatch(seed);
            }
            offsets.push(inst.compute_vmm_seeded(&inputs, seed ^ 0xABCD)?.cb_voltages[0] - v_nom);
        }
        Ok(offsets)
    });
    let offsets: Vec<Volt> = chunks
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(fail)?
        .concat();
    Ok(mc.summarize(&offsets))
}

/// Fig 6(f): one stand-in benchmark's accuracy comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6fRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Model class (`"Cnn"` / `"Transformer"`).
    pub class: String,
    /// Held-out samples evaluated.
    pub test_samples: usize,
    /// FP32 accuracy, fraction.
    pub accuracy_f32: f64,
    /// Analog (YOCO-based) accuracy, fraction.
    pub accuracy_yoco: f64,
    /// Accuracy loss, percentage points.
    pub loss_pct: f64,
}

/// Computes Fig 6(f): trains the stand-in benchmarks (seeded) and
/// evaluates FP32 vs analog inference.
pub fn fig6f() -> Result<Vec<Fig6fRow>, SweepError> {
    let standins = yoco_nn::standins::fig6f_standins(2025)
        .map_err(|e| SweepError::evaluation("study/fig6f", e))?;
    Ok(standins
        .iter()
        .map(|s| {
            let f = s.accuracy_f32();
            let a = s.accuracy_analog(7);
            Fig6fRow {
                benchmark: s.name.clone(),
                class: format!("{:?}", s.class),
                test_samples: s.test_len(),
                accuracy_f32: f,
                accuracy_yoco: a,
                loss_pct: (f - a) * 100.0,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_linearity_is_within_spec() {
        let r = fig6a().unwrap();
        assert_eq!(r.codes.len(), 256);
        assert_eq!(r.volts.len(), 256);
        assert!(r.max_inl < 2.0, "INL {} LSB", r.max_inl);
        assert!(r.max_dnl < 2.0, "DNL {} LSB", r.max_dnl);
    }

    #[test]
    fn fig6d_offsets_stay_under_one_lsb() {
        let r = fig6d(&JobBudget::new(2)).unwrap();
        assert_eq!(r.runs, 2000);
        assert!(r.within_one_lsb(), "3σ = {} mV", r.three_sigma_mv());
    }
}
