//! Properties of the layers under the flows that no crate's own suite
//! states on generated inputs: the field codec, sealed frames and trailers
//! the durable formats are built from, the scheduler's slab, the metadata
//! store's planner and snapshots, and the case-study kernels (FFT, the
//! zero-DM filter, VOTable export, the link graph, stratified sampling,
//! archive migration). Each is checked against a model, a second path or
//! its own inverse.

use std::collections::{BTreeMap, HashMap};

use sciflow_arecibo::fft::{fft_in_place, real_power_spectrum, Complex};
use sciflow_arecibo::nvo::{export_votable, parse_votable};
use sciflow_arecibo::rfi::zero_dm_filter;
use sciflow_arecibo::search::harmonically_related;
use sciflow_arecibo::spectra::{DynamicSpectrum, ObsConfig};
use sciflow_arecibo::units::{dm_trials, Dm, Period};
use sciflow_cleo::generator::{generate_event, GeneratorConfig};
use sciflow_core::fault::{FaultPlan, RetryPolicy};
use sciflow_core::fnv::{fnv1a, fnv1a_update, FNV_OFFSET};
use sciflow_core::frame::{self, Damage, Reader};
use sciflow_core::rng::Rng;
use sciflow_core::slab::Slab;
use sciflow_core::units::{DataRate, DataVolume, SimDuration};
use sciflow_core::version::CalDate;
use sciflow_eventstore::RunRange;
use sciflow_metastore::persist::{from_sealed_bytes, sealed_bytes};
use sciflow_metastore::prelude::*;
use sciflow_simnet::link::NetworkLink;
use sciflow_simnet::shipping::{MediaSpec, ShippingRoute};
use sciflow_simnet::transfer::{compare, compare_with_faults};
use sciflow_storage::archive::{LongTermArchive, MediaGeneration};
use sciflow_testkit::{check, Gen};
use sciflow_weblab::analytics::{pagerank, weakly_connected_components};
use sciflow_weblab::crawlsim::{SyntheticWeb, WebConfig};
use sciflow_weblab::graph::LinkGraph;
use sciflow_weblab::sample::{stratified_sample, stratified_sample_flat};

// --- core: field codec, sealed frames and trailers, slab, units -------------

#[test]
fn uvars_round_trip_at_their_minimal_length() {
    check("uvars_round_trip_at_their_minimal_length", 64, |g| {
        let bits = g.range(0u32..=64);
        let v = if bits == 0 { 0 } else { g.any::<u64>() >> (64 - bits) | 1 << (bits - 1) };
        let mut out = Vec::new();
        frame::put_uvar(&mut out, v);
        assert_eq!(out.len(), (bits.max(1) as usize).div_ceil(7));
        let mut r = Reader::new(&out);
        assert_eq!(r.uvar(), Ok(v));
        assert_eq!(r.done(), Ok(()));
    });
}

#[test]
fn overlong_and_too_wide_uvars_are_refused() {
    check("overlong_and_too_wide_uvars_are_refused", 64, |g| {
        let v = g.any::<u64>() >> g.range(8u32..64);
        let mut out = Vec::new();
        frame::put_uvar(&mut out, v);
        assert_eq!(Reader::new(&out).uvar_as::<u32>().is_ok(), v <= u64::from(u32::MAX));
        // The same value with one more, empty, seven-bit group.
        *out.last_mut().expect("one byte at least") |= 0x80;
        out.push(0);
        assert!(Reader::new(&out).uvar().is_err(), "{out:?} decoded");
    });
}

#[test]
fn field_codec_round_trips_and_refuses_every_truncation() {
    check("field_codec_round_trips_and_refuses_every_truncation", 64, |g| {
        let (a, b, c, n) = (g.any::<u16>(), g.any::<u32>(), g.range(-1e9f64..1e9), g.any::<u64>());
        let (bytes, s) = (g.vec(0..64, |g| g.any::<u8>()), g.string("a-zé€ ", 0..=16));
        let mut out = Vec::new();
        frame::put_u16(&mut out, a);
        frame::put_u32(&mut out, b);
        frame::put_f64(&mut out, c);
        frame::put_uvar(&mut out, n);
        frame::put_bytes(&mut out, &bytes);
        frame::put_str(&mut out, &s);
        let read = |buf: &[u8]| -> Result<_, Damage> {
            let mut r = Reader::new(buf);
            let v = (r.u16()?, r.u32()?, r.f64()?, r.uvar()?, r.bytes()?.to_vec(), r.str()?);
            r.done()?;
            Ok(v)
        };
        assert_eq!(read(&out), Ok((a, b, c, n, bytes, s)));
        let cut = g.range(0..out.len());
        assert!(read(&out[..cut]).is_err(), "a {cut}-byte prefix decoded");
    });
}

#[test]
fn sealed_frames_refuse_every_flip_and_cut() {
    check("sealed_frames_refuse_every_flip_and_cut", 64, |g| {
        let (kind, payload) = (g.any::<u8>(), g.vec(0..256, |g| g.any::<u8>()));
        let sealed = frame::seal(kind, &payload);
        assert_eq!(frame::open(&sealed), Ok((kind, &payload[..])));
        let (at, flip) = (g.range(0..sealed.len()), g.range(1u8..=255));
        let mut forged = sealed.clone();
        forged[at] ^= flip;
        assert!(frame::open(&forged).is_err(), "flip at {at} opened");
        assert!(frame::open(&sealed[..g.range(0..sealed.len())]).is_err());
    });
}

#[test]
fn sealed_trailers_refuse_every_flip() {
    check("sealed_trailers_refuse_every_flip", 64, |g| {
        let payload = g.vec(0..256, |g| g.any::<u8>());
        let mut sealed = payload.clone();
        frame::seal_trailer(&mut sealed, b"PROP");
        assert_eq!(frame::open_trailer(&sealed, b"PROP"), Ok(&payload[..]));
        let at = g.range(0..sealed.len());
        sealed[at] ^= g.range(1u8..=255);
        assert!(frame::open_trailer(&sealed, b"PROP").is_err(), "flip at {at} opened");
    });
}

#[test]
fn fnv_folded_over_any_split_equals_one_shot() {
    check("fnv_folded_over_any_split_equals_one_shot", 64, |g| {
        let data = g.vec(0..1024, |g| g.any::<u8>());
        let mut cuts: Vec<usize> = g.set(0..8, |g| g.range(0..=data.len())).into_iter().collect();
        cuts.push(data.len());
        let (mut hash, mut from) = (FNV_OFFSET, 0);
        for to in cuts {
            hash = fnv1a_update(hash, &data[from..to]);
            from = to;
        }
        assert_eq!(hash, fnv1a(&data));
    });
}

/// The slab against a model of its claimed slots: `take` empties a value
/// but keeps the slot, `retire` frees it, a retired key never hits again,
/// and storage grows to the peak number of claimed slots only.
#[test]
fn slab_matches_a_model_and_stale_keys_miss() {
    check("slab_matches_a_model_and_stale_keys_miss", 64, |g| {
        let ops = g.vec(0..300, |g| (g.range(0u8..3), g.any::<u32>(), g.any::<u16>()));
        let (mut slab, mut claimed, mut retired, mut peak) =
            (Slab::new(), Vec::new(), Vec::new(), 0);
        for (op, value, pick) in ops {
            let i = usize::from(pick) % claimed.len().max(1);
            match op {
                0 => claimed.push((slab.insert(value), Some(value))),
                1 if !claimed.is_empty() => {
                    let (key, held) = &mut claimed[i];
                    assert_eq!(slab.take(*key), held.take());
                }
                2 if !claimed.is_empty() => {
                    let (key, held) = claimed.swap_remove(i);
                    assert_eq!(slab.retire(key.slot()), held);
                    retired.push(key);
                }
                _ => {}
            }
            peak = peak.max(claimed.len());
        }
        assert!(retired.into_iter().all(|key| slab.take(key).is_none()));
        assert_eq!(slab.high_water(), peak);
    });
}

#[test]
fn durations_round_trip_through_seconds() {
    check("durations_round_trip_through_seconds", 64, |g| {
        // 2^48 µs is nine years; far beyond, a second's f64 loses whole µs.
        let d = SimDuration::from_micros(g.range(0u64..1 << 48));
        assert_eq!(SimDuration::from_secs_f64(d.as_secs_f64()), d);
    });
}

#[test]
fn date_keys_order_like_day_numbers() {
    check("date_keys_order_like_day_numbers", 64, |g| {
        let mut date = || {
            let (y, m, d) = (g.range(1996u16..2040), g.range(1u8..13), g.range(1u8..29));
            CalDate::new(y, m, d).expect("day < 29 is always valid")
        };
        let (a, b) = (date(), date());
        assert_eq!(a.as_key().cmp(&b.as_key()), a.day_number().cmp(&b.day_number()));
    });
}

// --- metastore: planner and snapshots ----------------------------------------

/// `k` (primary key) and `v`.
fn kv_schema() -> Schema {
    Schema::new(vec![ColumnDef::new("k", ValueType::Int), ColumnDef::new("v", ValueType::Int)])
        .expect("valid schema")
        .with_primary_key("k")
        .expect("k exists")
}

/// A [`kv_schema`] table holding `rows`, optionally indexed on `v`.
fn kv_table(rows: &BTreeMap<i64, i64>, indexed: bool) -> Table {
    let mut t = Table::new("t", kv_schema());
    if indexed {
        t.create_index("v").expect("v exists");
    }
    for (&k, &v) in rows {
        t.insert(vec![Value::Int(k), Value::Int(v)]).expect("unique keys");
    }
    t
}

fn kv_rows(g: &mut Gen) -> BTreeMap<i64, i64> {
    g.map(0..120, |g| (g.range(0i64..1000), g.range(-20i64..20)))
}

/// How many rows hold each `v`.
fn counts_of(rows: &BTreeMap<i64, i64>) -> BTreeMap<i64, usize> {
    let mut counts = BTreeMap::new();
    for &v in rows.values() {
        *counts.entry(v).or_default() += 1;
    }
    counts
}

fn keys_of(rows: &[Vec<Value>]) -> Vec<i64> {
    let mut keys: Vec<i64> = rows.iter().map(|r| r[0].as_int().expect("int key")).collect();
    keys.sort_unstable();
    keys
}

#[test]
fn indexed_and_scanned_selects_agree() {
    check("indexed_and_scanned_selects_agree", 64, |g| {
        let rows = kv_rows(g);
        let (indexed, plain) = (kv_table(&rows, true), kv_table(&rows, false));
        let (a, b) = (g.range(-25i64..25), g.range(-25i64..25));
        let range = Predicate::Range {
            col: 1,
            lo: Some(Value::Int(a.min(b))),
            hi: Some(Value::Int(a.max(b))),
        };
        for (p, path) in [
            (Predicate::Eq(1, Value::Int(a)), AccessPath::IndexEq),
            (range, AccessPath::IndexRange),
        ] {
            let fast = select(&indexed, &Query::filter(p.clone())).expect("select works");
            let slow = select(&plain, &Query::filter(p.clone())).expect("select works");
            assert_eq!((fast.path, slow.path), (path, AccessPath::FullScan));
            let want: Vec<i64> = rows
                .iter()
                .filter(|(&k, &v)| p.matches(&[Value::Int(k), Value::Int(v)]))
                .map(|(&k, _)| k)
                .collect();
            assert_eq!(keys_of(&fast.rows), want);
            assert_eq!(keys_of(&slow.rows), want);
        }
    });
}

/// Inserts, updates that keep or change `v`, updates that move the key,
/// and deletes, applied to an indexed table and a plain one: both keep
/// selecting the rows of a model.
#[test]
fn indexes_follow_churn() {
    check("indexes_follow_churn", 64, |g| {
        let ops = g.vec(0..200, |g| {
            (g.range(0u8..5), g.range(0i64..40), g.range(0i64..40), g.range(-8i64..8))
        });
        let mut model = BTreeMap::new();
        let (mut indexed, mut plain) = (kv_table(&model, true), kv_table(&model, false));
        for (op, k, to, v) in ops {
            let v = if op == 2 { model.get(&k).copied().unwrap_or(v) } else { v };
            let (key, row) =
                (Value::Int(k), vec![Value::Int(if op == 3 { to } else { k }), Value::Int(v)]);
            let applied: Vec<bool> = [&mut indexed, &mut plain]
                .into_iter()
                .map(|t| match op {
                    0 => t.insert(row.clone()).is_ok(),
                    1..=3 => t.update_by_key(&key, row.clone()).is_ok(),
                    _ => t.delete_by_key(&key).is_ok(),
                })
                .collect();
            let want = match op {
                0 => !model.contains_key(&k),
                3 => model.contains_key(&k) && (to == k || !model.contains_key(&to)),
                _ => model.contains_key(&k),
            };
            assert_eq!(applied, [want, want], "op {op} on {k}");
            if want {
                model.remove(&k);
                if op != 4 {
                    model.insert(if op == 3 { to } else { k }, v);
                }
            }
        }
        let (a, b) = (g.range(-9i64..9), g.range(-9i64..9));
        let range = Predicate::Range {
            col: 1,
            lo: Some(Value::Int(a.min(b))),
            hi: Some(Value::Int(a.max(b))),
        };
        for p in [Predicate::Eq(1, Value::Int(a)), range] {
            let want: Vec<i64> = model
                .iter()
                .filter(|(&k, &v)| p.matches(&[Value::Int(k), Value::Int(v)]))
                .map(|(&k, _)| k)
                .collect();
            for t in [&indexed, &plain] {
                assert_eq!(
                    keys_of(&select(t, &Query::filter(p.clone())).expect("select").rows),
                    want
                );
            }
        }
    });
}

#[test]
fn ordered_limited_selects_match_a_sorted_model() {
    check("ordered_limited_selects_match_a_sorted_model", 64, |g| {
        let rows = kv_rows(g);
        let (desc, limit) = (g.any::<bool>(), g.range(0usize..150));
        let got = select(
            &kv_table(&rows, false),
            &Query::all().order_by(1, desc).limit(limit).project(vec![1]),
        )
        .expect("select works");
        let mut want: Vec<i64> = rows.values().copied().collect();
        want.sort_unstable();
        if desc {
            want.reverse();
        }
        want.truncate(limit);
        let got: Vec<i64> = got.rows.iter().map(|r| r[0].as_int().expect("int")).collect();
        assert_eq!(got, want);
    });
}

#[test]
fn group_counts_partition_the_table() {
    check("group_counts_partition_the_table", 64, |g| {
        let rows = kv_rows(g);
        let got: BTreeMap<i64, usize> = group_count(&kv_table(&rows, true), 1)
            .into_iter()
            .map(|(v, n)| (v.as_int().expect("int"), n))
            .collect();
        assert_eq!(got, counts_of(&rows));
    });
}

/// A value of `ty`, or (a quarter of the time) null.
fn nullable_value(g: &mut Gen, ty: ValueType) -> Value {
    if g.range(0u8..4) == 0 {
        return Value::Null;
    }
    match ty {
        ValueType::Real => Value::Real(g.range(-1e12f64..1e12)),
        ValueType::Text => Value::Text(g.string("a-zA-Z0-9 é\"'<>&", 0..=24)),
        ValueType::Blob => Value::Blob(g.vec(0..48, |g| g.any::<u8>())),
        ValueType::Date => Value::Date(
            CalDate::new(g.range(1996u16..2040), g.range(1u8..13), g.range(1u8..29))
                .expect("day < 29 is always valid")
                .as_key(),
        ),
        ValueType::Int => Value::Int(g.any::<i64>()),
    }
}

#[test]
fn sealed_snapshots_round_trip_every_value_type() {
    check("sealed_snapshots_round_trip_every_value_type", 64, |g| {
        let types =
            [ValueType::Int, ValueType::Real, ValueType::Text, ValueType::Blob, ValueType::Date];
        let mut columns = vec![ColumnDef::new("id", ValueType::Int)];
        columns.extend(types.iter().map(|&ty| ColumnDef::new(format!("{ty:?}"), ty).nullable()));
        let schema =
            Schema::new(columns).expect("valid").with_primary_key("id").expect("id exists");
        let mut db = Database::new();
        let table = db.create_table("t", schema).expect("fresh db");
        for id in 0..g.range(0i64..40) {
            let mut row = vec![Value::Int(id)];
            row.extend(types.iter().map(|&ty| nullable_value(g, ty)));
            table.insert(row).expect("valid row");
        }
        let restored = from_sealed_bytes(&sealed_bytes(&db)).expect("own snapshot opens");
        let scan = |db: &Database| -> Vec<Vec<Value>> {
            db.table("t").expect("t").scan().map(|(_, r)| r.to_vec()).collect()
        };
        assert_eq!(scan(&restored), scan(&db));
    });
}

/// A value of any type. Integers span the whole `i64` range, and a quarter
/// of the numbers sit within a few units of ±2^53, where `i64 as f64` starts
/// to round, so `Int` and `Real` neighbours there meet.
fn any_value(g: &mut Gen) -> Value {
    let ty = g.one_of(&[
        |_| ValueType::Int,
        |_| ValueType::Real,
        |_| ValueType::Text,
        |_| ValueType::Blob,
        |_| ValueType::Date,
    ]);
    let near_two_53 = |g: &mut Gen| {
        let sign = if g.any::<bool>() { 1 } else { -1 };
        sign * (1i64 << 53) + g.range(-4i64..=4)
    };
    match nullable_value(g, ty) {
        Value::Int(_) if g.range(0u8..4) == 0 => Value::Int(near_two_53(g)),
        Value::Real(_) if g.range(0u8..4) == 0 => Value::Real(near_two_53(g) as f64),
        v => v,
    }
}

#[test]
fn value_order_is_total() {
    check("value_order_is_total", 64, |g| {
        let mut values = g.vec(0..12, any_value);
        // Each number beside its nearest value of the other type and that
        // value's own nearest, so an `Int` meets the `Real` it rounds to and
        // the other `Int` that rounds there too.
        let neighbours: Vec<Value> = values
            .iter()
            .flat_map(|v| match *v {
                Value::Int(i) => vec![Value::Real(i as f64), Value::Int(i as f64 as i64)],
                Value::Real(r) => vec![Value::Int(r as i64), Value::Real(r as i64 as f64)],
                _ => vec![],
            })
            .collect();
        values.extend(neighbours);
        for a in &values {
            for b in &values {
                assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse(), "{a:?} vs {b:?}");
                for c in &values {
                    if a.total_cmp(b).is_le() && b.total_cmp(c).is_le() {
                        assert!(a.total_cmp(c).is_le(), "{a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }
    });
}

#[test]
fn views_evaluate_and_materialize_to_their_query() {
    check("views_evaluate_and_materialize_to_their_query", 64, |g| {
        let rows = kv_rows(g);
        let mut query = Query::filter(Predicate::Range {
            col: 1,
            lo: Some(Value::Int(g.range(-20i64..0))),
            hi: Some(Value::Int(g.range(0i64..20))),
        });
        if g.any::<bool>() {
            query = query.project(vec![1]);
        }
        let mut db = Database::new();
        *db.create_table("t", kv_schema()).expect("fresh db") = kv_table(&rows, true);
        let want = select(db.table("t").expect("t"), &query).expect("select works").rows;
        let mut views = ViewCatalog::new();
        let def =
            ViewDef { name: "v".into(), base_table: "t".into(), query, description: String::new() };
        views.create_view(def).expect("fresh catalog");
        assert_eq!(views.evaluate(&db, "v").expect("view exists"), want);
        assert_eq!(views.materialize(&mut db, "v", "m").expect("fresh target"), want.len());
        let copied: Vec<Vec<Value>> =
            db.table("m").expect("m").scan().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(copied, want);
    });
}

// --- arecibo: FFT, zero-DM filter, VOTable, units ----------------------------

#[test]
fn inverse_fft_round_trips() {
    check("inverse_fft_round_trips", 64, |g| {
        let n = 1usize << g.range(0u32..=10);
        let data = g.vec(n..=n, |g| Complex::new(g.range(-10.0..10.0), g.range(-10.0..10.0)));
        let mut buf = data.clone();
        fft_in_place(&mut buf, false);
        fft_in_place(&mut buf, true);
        for (x, y) in data.iter().zip(&buf) {
            assert!((x.re - y.re / n as f64).abs() < 1e-9 && (x.im - y.im / n as f64).abs() < 1e-9);
        }
    });
}

#[test]
fn power_spectra_are_nonnegative_one_sided_halves() {
    check("power_spectra_are_nonnegative_one_sided_halves", 64, |g| {
        let series = g.vec(1..600, |g| g.range(-5.0f32..5.0));
        let power = real_power_spectrum(&series);
        assert_eq!(power.len(), (series.len().next_power_of_two() / 2).saturating_sub(1));
        assert!(power.iter().all(|&p| p >= 0.0));
    });
}

#[test]
fn zero_dm_filter_removes_every_broadband_impulse() {
    check("zero_dm_filter_removes_every_broadband_impulse", 64, |g| {
        let cfg = ObsConfig {
            n_channels: 16,
            n_samples: 256,
            dt: 1e-3,
            f_lo_mhz: 1375.0,
            f_hi_mhz: 1425.0,
        };
        let impulses = g.vec(0..32, |g| (g.range(0usize..256), g.range(-50.0f32..50.0)));
        let mut spec = DynamicSpectrum::zeros(cfg);
        for &(sample, amplitude) in &impulses {
            spec.inject_impulse_rfi(sample, amplitude);
        }
        // What summing a sample's channels can round away, in f32.
        let slack = 1e-5 * (1.0 + impulses.iter().map(|(_, a)| a.abs()).sum::<f32>());
        let filtered = zero_dm_filter(&spec);
        for ch in 0..cfg.n_channels {
            assert!(filtered.channel(ch).iter().all(|x| x.abs() <= slack), "channel {ch} kept RFI");
        }
    });
}

#[test]
fn votables_round_trip_any_text() {
    check("votables_round_trip_any_text", 64, |g| {
        let rows = g.vec(0..20, |g| {
            (g.any::<i64>(), g.range(-1e6f64..1e6), g.string("a-z <>&\"';#/=", 0..=20))
        });
        let schema = Schema::new(vec![
            ColumnDef::new("id", ValueType::Int),
            ColumnDef::new("snr", ValueType::Real),
            ColumnDef::new("note & <kind>", ValueType::Text),
        ])
        .expect("valid");
        let mut table = Table::new("cands \"x\"", schema);
        for (id, snr, note) in &rows {
            table
                .insert(vec![Value::Int(*id), Value::Real(*snr), Value::Text(note.clone())])
                .expect("valid row");
        }
        let vo = parse_votable(&export_votable(&table, "<any> & all")).expect("own export parses");
        assert_eq!(vo.table_name, "cands \"x\"");
        assert_eq!(vo.fields, ["id", "snr", "note & <kind>"]);
        let parsed: Vec<(i64, f64, String)> = vo
            .rows
            .into_iter()
            .map(|r| {
                (r[0].parse().expect("int cell"), r[1].parse().expect("real cell"), r[2].clone())
            })
            .collect();
        assert_eq!(parsed, rows);
    });
}

#[test]
fn dispersion_delays_scale_with_dm_and_favour_high_frequencies() {
    check("dispersion_delays_scale_with_dm_and_favour_high_frequencies", 64, |g| {
        let (dm, k) = (g.range(0.1f64..1000.0), g.range(1.0f64..8.0));
        let (lo, hi) = (g.range(300.0f64..1400.0), g.range(1400.0f64..2000.0));
        assert!(Dm(dm).delay_between(lo, hi) > 0.0);
        let (one, scaled) = (Dm(dm).delay_secs(lo), Dm(dm * k).delay_secs(lo));
        assert!((scaled - k * one).abs() <= 1e-12 * scaled);
        let f = g.range(0.01f64..1000.0);
        assert!((Period(1.0 / f).freq_hz() - f).abs() <= 1e-12 * f);
    });
}

#[test]
fn dm_trial_ladders_are_even_and_span_the_range() {
    check("dm_trial_ladders_are_even_and_span_the_range", 64, |g| {
        let (dm_max, n) = (g.range(1.0f64..2000.0), g.range(2usize..1200));
        let trials = dm_trials(dm_max, n);
        assert_eq!(trials.len(), n);
        assert_eq!(trials[0].0, 0.0);
        assert!((trials[n - 1].0 - dm_max).abs() <= 1e-12 * dm_max);
        let step = dm_max / (n - 1) as f64;
        assert!(trials.windows(2).all(|w| (w[1].0 - w[0].0 - step).abs() <= 1e-9 * dm_max));
    });
}

#[test]
fn harmonic_matching_is_symmetric_on_small_ratios() {
    check("harmonic_matching_is_symmetric_on_small_ratios", 64, |g| {
        let f = g.range(0.1f64..1000.0);
        let (num, den) = (g.range(1u32..=4), g.range(1u32..=4));
        let related = f * f64::from(num) / f64::from(den);
        assert!(harmonically_related(related, f, 1e-9) && harmonically_related(f, related, 1e-9));
        assert!(!harmonically_related(f * g.range(4.5f64..8.0), f, 0.01));
    });
}

// --- weblab: link graph, PageRank, components, sampling ----------------------

/// A link graph over `n` pages `u0…`, with links to pages outside the
/// universe (`x…`) mixed in; returns it and the in-universe edges drawn.
fn link_graph(g: &mut Gen) -> (LinkGraph, Vec<(usize, usize)>) {
    let n = g.range(1usize..40);
    let pairs = g.vec(0..160, |g| (g.range(0..n), g.range(0..n + n / 4)));
    let url = |i: usize| if i < n { format!("u{i}") } else { format!("x{i}") };
    let links: Vec<(i64, String)> = pairs.iter().map(|&(s, t)| (s as i64, url(t))).collect();
    let graph = LinkGraph::build((0..n).map(url).collect(), &links).expect("sources in range");
    (graph, pairs.into_iter().filter(|&(_, t)| t < n).collect())
}

#[test]
fn link_graphs_keep_every_in_universe_edge() {
    check("link_graphs_keep_every_in_universe_edge", 64, |g| {
        let (graph, edges) = link_graph(g);
        assert_eq!(graph.edge_count(), edges.len());
        let mut want: HashMap<usize, Vec<u32>> = HashMap::new();
        for &(s, t) in &edges {
            want.entry(s).or_default().push(t as u32);
        }
        for v in 0..graph.node_count() {
            assert_eq!(graph.out_neighbors(v), want.get(&v).map_or(&[][..], Vec::as_slice));
            assert_eq!(graph.url(v), format!("u{v}"));
        }
        assert_eq!(graph.in_degrees().iter().sum::<usize>(), edges.len());
    });
}

#[test]
fn pagerank_is_a_probability_distribution() {
    check("pagerank_is_a_probability_distribution", 64, |g| {
        let (graph, _) = link_graph(g);
        let rank = pagerank(&graph, g.range(0.5f64..0.95), g.range(1usize..40));
        assert_eq!(rank.len(), graph.node_count());
        assert!(rank.iter().all(|&r| r > 0.0));
        assert!((rank.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    });
}

#[test]
fn weak_components_match_an_undirected_search() {
    check("weak_components_match_an_undirected_search", 64, |g| {
        let (graph, edges) = link_graph(g);
        let n = graph.node_count();
        let mut adj = vec![Vec::new(); n];
        for (s, t) in edges {
            adj[s].push(t);
            adj[t].push(s);
        }
        let mut component = vec![usize::MAX; n];
        let mut count = 0;
        for root in 0..n {
            if component[root] != usize::MAX {
                continue;
            }
            let mut stack = vec![root];
            component[root] = count;
            while let Some(v) = stack.pop() {
                for &w in &adj[v] {
                    if component[w] == usize::MAX {
                        component[w] = count;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        let (labels, found) = weakly_connected_components(&graph);
        assert_eq!(found, count);
        for a in 0..n {
            for b in 0..n {
                assert_eq!(labels[a] == labels[b], component[a] == component[b], "{a} and {b}");
            }
        }
    });
}

#[test]
fn stratified_samples_fill_each_stratum_up_to_the_quota() {
    check("stratified_samples_fill_each_stratum_up_to_the_quota", 64, |g| {
        let rows = g.map(0..120, |g| (g.range(0i64..10_000), g.range(0i64..8)));
        let (quota, seed) = (g.range(1usize..10), g.any::<u64>());
        let table = kv_table(&rows, true);
        let sizes = counts_of(&rows);
        let mut rng = Rng::seed_from_u64(seed);
        let indexed = stratified_sample(&table, 1, quota, &mut rng).expect("quota > 0");
        let flat = stratified_sample_flat(&table, 1, quota, &mut rng).expect("quota > 0");
        assert_eq!(indexed.rows_examined, rows.len());
        assert_eq!(flat.rows_examined, rows.len() * (sizes.len() + 1));
        for sample in [indexed, flat] {
            let mut got = BTreeMap::new();
            for (value, picked) in &sample.strata {
                let v = value.as_int().expect("int stratum");
                assert!(picked.iter().all(|r| r[1] == Value::Int(v)), "stratum {v}");
                let mut keys = keys_of(picked);
                keys.dedup();
                got.insert(v, keys.len());
            }
            let want: BTreeMap<i64, usize> =
                sizes.iter().map(|(&v, &n)| (v, n.min(quota))).collect();
            assert_eq!(got, want);
        }
    });
}

#[test]
fn synthetic_webs_and_events_replay_from_their_seed() {
    check("synthetic_webs_and_events_replay_from_their_seed", 64, |g| {
        let (seed, per_file) = (g.any::<u64>(), g.range(1usize..30));
        let config = WebConfig {
            n_domains: g.range(1usize..5),
            pages_per_domain: g.range(1usize..20),
            body_bytes: 64,
            ..WebConfig::default()
        };
        let crawl = || {
            let web = SyntheticWeb::generate(config, 2, &mut Rng::seed_from_u64(seed));
            web.crawl_files(1, per_file).expect("serializes")
        };
        assert_eq!(crawl(), crawl());
        let event =
            || generate_event(7, &GeneratorConfig::default(), &mut Rng::seed_from_u64(seed));
        assert_eq!(event(), event());
    });
}

// --- eventstore, simnet, storage ---------------------------------------------

#[test]
fn run_ranges_overlap_exactly_when_they_share_a_run() {
    check("run_ranges_overlap_exactly_when_they_share_a_run", 64, |g| {
        let mut range = || {
            let (a, b) = (g.range(0u32..60), g.range(0u32..60));
            RunRange::new(a.min(b), a.max(b)).expect("first <= last")
        };
        let (x, y) = (range(), range());
        let shared = (0..60).any(|run| x.contains(run) && y.contains(run));
        assert_eq!(x.overlaps(&y), shared);
        assert_eq!(y.overlaps(&x), shared);
        assert_eq!(x.len() as usize, (0..60).filter(|&run| x.contains(run)).count());
    });
}

#[test]
fn transfer_time_grows_with_volume_and_shrinks_with_bandwidth() {
    check("transfer_time_grows_with_volume_and_shrinks_with_bandwidth", 64, |g| {
        let (mbit, factor) = (g.range(1.0f64..10_000.0), g.range(1.0f64..16.0));
        let (gb1, gb2) = (g.range(1u64..5000), g.range(1u64..5000));
        let latency = SimDuration::from_micros(g.range(0u64..500_000));
        let slow = NetworkLink::new("slow", DataRate::mbit_per_sec(mbit), latency);
        let fast = NetworkLink::new("fast", DataRate::mbit_per_sec(mbit * factor), latency);
        let time =
            |link: &NetworkLink, gb| link.transfer_time(DataVolume::gb(gb)).expect("live link");
        let (lo, hi) = (gb1.min(gb2), gb1.max(gb2));
        assert!(time(&slow, lo) <= time(&slow, hi));
        assert!(time(&fast, hi) <= time(&slow, hi));
    });
}

#[test]
fn an_unfaulted_executed_leg_gives_the_assumed_verdict() {
    check("an_unfaulted_executed_leg_gives_the_assumed_verdict", 64, |g| {
        let mbit = if g.range(0u8..8) == 0 { 0.0 } else { g.range(0.5f64..10_000.0) };
        let link = NetworkLink::new(
            "generated",
            DataRate::mbit_per_sec(mbit),
            SimDuration::from_micros(g.range(0u64..=1_000_000)),
        )
        .with_efficiency(g.range(0.33f64..=1.0));
        let volume = DataVolume::from_bytes(g.range(1u64..=10_000_000_000_000));
        let media = MediaSpec::new(
            "disk",
            DataVolume::gb(g.range(1u64..2000)),
            DataRate::mb_per_sec(g.range(1.0f64..500.0)),
            DataRate::mb_per_sec(g.range(1.0f64..500.0)),
        );
        let route = ShippingRoute {
            name: "courier".into(),
            transit: SimDuration::from_hours(g.range(1u64..200)),
            handling: SimDuration::from_mins(g.range(0u64..600)),
            personnel_hours_per_shipment: g.range(0.0f64..10.0),
            units_per_shipment: g.range(1usize..50),
        };
        let policy = RetryPolicy::default();
        let executed =
            compare_with_faults(volume, &link, &FaultPlan::none(), policy, &media, &route);
        assert_eq!(executed.comparison, compare(volume, &link, &media, &route));
    });
}

#[test]
fn archive_migrations_charge_each_generation_for_the_whole_volume() {
    check("archive_migrations_charge_each_generation_for_the_whole_volume", 64, |g| {
        let generation = |g: &mut Gen| {
            MediaGeneration::new(
                "gen",
                g.range(10.0f64..1000.0),
                DataRate::mb_per_sec(g.range(10.0f64..500.0)),
                0.01,
            )
        };
        let (first, hours_per_tb) = (generation(g), g.range(0.0f64..10.0));
        let ingests = g.vec(0..10, |g| g.range(1u64..500));
        let targets = g.vec(0..5, generation);
        let mut archive = LongTermArchive::new(first.clone(), hours_per_tb);
        for &gb in &ingests {
            archive.ingest(DataVolume::gb(gb));
        }
        let tb = archive.volume().bytes() as f64 / 1e12;
        let mut media = tb * first.cost_per_tb;
        for to in &targets {
            media += tb * to.cost_per_tb;
            archive.migrate(to.clone()).expect("positive copy rate");
        }
        assert_eq!(archive.migrations() as usize, targets.len());
        assert_eq!(archive.volume(), DataVolume::gb(ingests.iter().sum()));
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.max(1.0);
        assert!(close(archive.ledger().media_cost(), media));
        assert!(close(
            archive.ledger().personnel_hours(),
            tb * hours_per_tb * targets.len() as f64
        ));
    });
}
