//! Property-based tests for the signal-processing kernels: FFT linearity
//! and energy conservation, dedispersion alignment, folding conservation,
//! and single-pulse boxcar bounds; and hostile input for the VOTable parser.

use sciflow_arecibo::dedisperse::{dedisperse, series_peak_snr};
use sciflow_arecibo::fft::{fft_in_place, Complex};
use sciflow_arecibo::fold::fold;
use sciflow_arecibo::meta::{create_candidate_table, load_candidates};
use sciflow_arecibo::nvo::{export_votable, parse_votable};
use sciflow_arecibo::search::Candidate;
use sciflow_arecibo::singlepulse::single_pulse_search;
use sciflow_arecibo::spectra::{DynamicSpectrum, ObsConfig};
use sciflow_arecibo::units::Dm;
use sciflow_metastore::Database;
use sciflow_testkit::check;

fn small_config() -> ObsConfig {
    ObsConfig { n_channels: 16, n_samples: 512, dt: 1e-3, f_lo_mhz: 1375.0, f_hi_mhz: 1425.0 }
}

/// Parseval: FFT preserves energy (÷N convention) for random inputs.
#[test]
fn fft_preserves_energy() {
    check("fft_preserves_energy", 64, |g| {
        let re = g.vec(64..=64, |g| g.range(-100.0f64..100.0));
        let mut buf: Vec<Complex> = re.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_in_place(&mut buf, false);
        let time_energy: f64 = re.iter().map(|&x| x * x).sum();
        let freq_energy: f64 = buf.iter().map(|c| c.norm_sqr()).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
    });
}

/// FFT is linear: FFT(a + b) = FFT(a) + FFT(b).
#[test]
fn fft_is_linear() {
    check("fft_is_linear", 64, |g| {
        let a = g.vec(32..=32, |g| g.range(-10.0f64..10.0));
        let b = g.vec(32..=32, |g| g.range(-10.0f64..10.0));
        let go = |v: &[f64]| {
            let mut buf: Vec<Complex> = v.iter().map(|&x| Complex::new(x, 0.0)).collect();
            fft_in_place(&mut buf, false);
            buf
        };
        let fa = go(&a);
        let fb = go(&b);
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let fs = go(&sum);
        for i in 0..32 {
            assert!((fs[i].re - (fa[i].re + fb[i].re)).abs() < 1e-9);
            assert!((fs[i].im - (fa[i].im + fb[i].im)).abs() < 1e-9);
        }
    });
}

/// Dedispersion at the true DM concentrates an injected transient: the
/// aligned peak is at least as high as at any sampled wrong DM.
#[test]
fn true_dm_is_at_least_as_good() {
    check("true_dm_is_at_least_as_good", 64, |g| {
        let (true_dm, t0) = (g.range(20.0f64..200.0), g.range(0.1f64..0.35));
        let cfg = small_config();
        let mut spec = DynamicSpectrum::zeros(cfg);
        spec.inject_transient(Dm(true_dm), t0, 0.002, 10.0);
        let right = series_peak_snr(&dedisperse(&spec, Dm(true_dm)));
        for wrong in [0.0, true_dm / 2.0, true_dm * 2.0] {
            if (wrong - true_dm).abs() < 1.0 {
                continue;
            }
            let w = series_peak_snr(&dedisperse(&spec, Dm(wrong)));
            assert!(right >= w * 0.95, "true DM {true_dm}: snr {right} vs wrong {wrong}: {w}");
        }
    });
}

/// Folding conserves samples: bin counts sum to the series length for
/// any period and bin count.
#[test]
fn fold_conserves_samples() {
    check("fold_conserves_samples", 64, |g| {
        let (period_ms, n_bins, n) =
            (g.range(5u32..400), g.range(2usize..64), g.range(64usize..1024));
        let series = vec![1.0f32; n];
        let prof = fold(&series, 1e-3, period_ms as f64 / 1e3, n_bins);
        assert_eq!(prof.counts.iter().sum::<u64>(), n as u64);
        assert_eq!(prof.bins.len(), n_bins);
        // Constant series folds to a flat profile wherever bins have data.
        for (bin, count) in prof.bins.iter().zip(&prof.counts) {
            if *count > 0 {
                assert!((bin - 1.0).abs() < 1e-6);
            }
        }
    });
}

/// Single-pulse search on a constant series finds nothing, and on any
/// series never reports out-of-range times or zero widths.
#[test]
fn single_pulse_outputs_are_well_formed() {
    check("single_pulse_outputs_are_well_formed", 64, |g| {
        let values = g.vec(128..512, |g| g.range(-3.0f32..3.0));
        let threshold = g.range(4.0f64..10.0);
        let hits = single_pulse_search(&values, 1e-3, Dm(0.0), threshold, 32);
        let duration = values.len() as f64 * 1e-3;
        for h in &hits {
            assert!(h.t_secs >= 0.0 && h.t_secs < duration);
            assert!(h.width_samples >= 1 && h.width_samples <= 32);
            assert!(h.snr >= threshold);
        }
        let flat = single_pulse_search(&vec![2.5f32; 256], 1e-3, Dm(0.0), 4.0, 32);
        assert!(flat.is_empty(), "constant series has no pulses");
    });
}

/// The dedispersed series length always equals the input sample count
/// (the storage identity behind the paper's 30 TB figure).
#[test]
fn dedispersion_preserves_length() {
    check("dedispersion_preserves_length", 64, |g| {
        let dm = g.range(0.0f64..500.0);
        let cfg = small_config();
        let spec = DynamicSpectrum::zeros(cfg);
        assert_eq!(dedisperse(&spec, Dm(dm)).len(), cfg.n_samples);
    });
}

/// EX2's VOTable export of `n` candidates.
fn ex2_votable(n: usize) -> String {
    let mut db = Database::new();
    create_candidate_table(&mut db).expect("fresh db");
    let cands: Vec<Candidate> = (0..n)
        .map(|i| Candidate {
            dm: Dm(5.0 * i as f64),
            freq_hz: 0.5 + i as f64 * 0.37,
            period_s: 1.0 / (0.5 + i as f64 * 0.37),
            snr: 6.0 + (i % 10) as f64,
            harmonics: 1 + (i % 4),
        })
        .collect();
    load_candidates(&mut db, 11, 2, &cands, &mut 0).expect("fresh ids");
    export_votable(db.table("candidates").expect("created above"), "PALFA pointing 11 candidates")
}

/// Hostile VOTables: every truncation, single-character substitutions, and
/// every closing tag swapped with its neighbour or moved before another tag,
/// of EX2's export. Each parses to a table or an error; none panics.
#[test]
fn hostile_votables_are_errors() {
    check("hostile_votables_are_errors", 64, |g| {
        let n = g.range(0usize..4);
        let xml = ex2_votable(n);
        assert_eq!(parse_votable(&xml).expect("own output parses").rows.len(), n);
        // The results are ignored: reaching the next line is the property.
        for cut in (0..xml.len()).filter(|&cut| xml.is_char_boundary(cut)) {
            let _ = parse_votable(&xml[..cut]);
        }
        for _ in 0..32 {
            let at = g.range(0..xml.len());
            if xml.is_char_boundary(at) && xml.is_char_boundary(at + 1) {
                let c = g.string("<>/=\"A-Z0-9 ", 1..=1);
                let _ = parse_votable(&format!("{}{c}{}", &xml[..at], &xml[at + 1..]));
            }
        }
        let closing: Vec<(usize, usize)> = xml
            .match_indices("</")
            .map(|(at, _)| (at, at + xml[at..].find('>').expect("closed") + 1))
            .collect();
        for pair in closing.windows(2) {
            let ((a, a_end), (b, b_end)) = (pair[0], pair[1]);
            let swapped =
                [&xml[..a], &xml[b..b_end], &xml[a_end..b], &xml[a..a_end], &xml[b_end..]];
            let _ = parse_votable(&swapped.concat());
        }
        for _ in 0..8 {
            let (a, a_end) = closing[g.range(0..closing.len())];
            let rest = [&xml[..a], &xml[a_end..]].concat();
            let tags: Vec<usize> = rest.match_indices('<').map(|(at, _)| at).collect();
            let to = tags[g.range(0..tags.len())];
            let _ = parse_votable(&[&rest[..to], &xml[a..a_end], &rest[to..]].concat());
        }
    });
}
