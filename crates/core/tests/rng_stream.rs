//! The generator's stream, pinned word for word.
//!
//! Every faulted golden, the replica chaos suites and the benchmark's
//! result digest are decided by this one xoshiro256**/SplitMix64 stream, so
//! each draw below is a literal: a change to the generator, or to how a
//! type is drawn from it, fails here before any golden moves.

use sciflow_core::rng::Rng;

fn words(rng: &mut Rng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.gen::<u64>()).collect()
}

#[test]
fn first_words_of_three_seeds() {
    let cases: [(u64, [u64; 8]); 3] = [
        (
            0,
            [
                0x99ec5f36cb75f2b4,
                0xbf6e1f784956452a,
                0x1a5f849d4933e6e0,
                0x6aa594f1262d2d2c,
                0xbba5ad4a1f842e59,
                0xffef8375d9ebcaca,
                0x6c160deed2f54c98,
                0x8920ad648fc30a3f,
            ],
        ),
        (
            1,
            [
                0xb3f2af6d0fc710c5,
                0x853b559647364cea,
                0x92f89756082a4514,
                0x642e1c7bc266a3a7,
                0xb27a48e29a233673,
                0x24c123126ffda722,
                0x123004ef8df510e6,
                0x61954dcc47b1e89d,
            ],
        ),
        (
            u64::MAX,
            [
                0x8f5520d52a7ead08,
                0xc476a018caa1802d,
                0x81de31c0d260469e,
                0xbf658d7e065f3c2f,
                0x913593fda1bca32a,
                0xbb535e93941ba525,
                0x5ecda415c3c6dfde,
                0xc487398fc9de9ae2,
            ],
        ),
    ];
    for (seed, expect) in cases {
        assert_eq!(words(&mut Rng::seed_from_u64(seed), 8), expect, "seed {seed}");
    }
}

#[test]
fn standard_draws() {
    let mut rng = Rng::seed_from_u64(42);
    let f64s: Vec<f64> = (0..3).map(|_| rng.gen()).collect();
    assert_eq!(f64s, [0.08386297105988216, 0.3789802506626686, 0.6800434110281394]);
    let f32s: Vec<f32> = (0..3).map(|_| rng.gen()).collect();
    assert_eq!(f32s, [0.9246929, 0.9918039, 0.76973945]);
    assert_eq!(
        words(&mut rng, 3),
        [13267978908934200754, 15679888225317814407, 14044878350692344958]
    );
    assert_eq!(rng.gen::<u8>(), 61);
    assert_eq!(rng.gen::<u16>(), 14705);
    assert_eq!(rng.gen::<u32>(), 1940883813);
    assert_eq!(rng.gen::<i64>(), -3670453860372658506);
    let bools: Vec<bool> = (0..8).map(|_| rng.gen()).collect();
    assert_eq!(bools, [false, true, true, true, true, true, true, false]);
    let coins: Vec<bool> = (0..16).map(|_| rng.gen_bool(0.3)).collect();
    let heads: Vec<usize> = (0..16).filter(|&i| coins[i]).collect();
    assert_eq!(heads, [0, 8]);
}

#[test]
fn range_draws() {
    let mut rng = Rng::seed_from_u64(7);
    let mut four = |draw: &mut dyn FnMut(&mut Rng) -> i128| -> Vec<i128> {
        (0..4).map(|_| draw(&mut rng)).collect()
    };
    assert_eq!(four(&mut |r| r.gen_range(3u8..200).into()), [198, 34, 58, 166]);
    assert_eq!(four(&mut |r| r.gen_range(0u8..=255).into()), [24, 73, 84, 220]);
    assert_eq!(four(&mut |r| r.gen_range(1990u16..2030).into()), [1998, 2009, 2013, 2006]);
    assert_eq!(four(&mut |r| r.gen_range(1u16..=12).into()), [10, 12, 7, 12]);
    assert_eq!(four(&mut |r| r.gen_range(0u32..100).into()), [75, 94, 15, 97]);
    assert_eq!(four(&mut |r| r.gen_range(4u32..=12).into()), [11, 8, 4, 4]);
    assert_eq!(
        four(&mut |r| r.gen_range(1u64..1 << 40).into()),
        [377499396052, 291802172425, 512881100142, 440922849477]
    );
    assert_eq!(
        four(&mut |r| r.gen_range(0u64..=u64::MAX).into()),
        [3237470732251711755, 8849608494865257565, 1615450213743511012, 2528831630446021850]
    );
    assert_eq!(four(&mut |r| r.gen_range(0usize..12) as i128), [8, 7, 10, 10]);
    assert_eq!(four(&mut |r| r.gen_range(1usize..=2) as i128), [1, 2, 1, 1]);
    assert_eq!(four(&mut |r| r.gen_range(-50i32..50).into()), [-18, 4, 49, -33]);
    assert_eq!(four(&mut |r| r.gen_range(45i32..=60).into()), [48, 48, 47, 50]);
    assert_eq!(four(&mut |r| r.gen_range(-5i64..=5).into()), [2, 1, 4, -3]);
    assert_eq!(
        four(&mut |r| r.gen_range(i64::MIN..i64::MAX).into()),
        [-4276195168781491983, 8635908228844003942, 2113957099851770779, 5951761370347158977]
    );
    let open: Vec<f64> = (0..3).map(|_| rng.gen_range(f64::MIN_POSITIVE..1.0)).collect();
    assert_eq!(open, [0.101076556855202, 0.5134817336839665, 0.8018474270468703]);
    let closed: Vec<f64> = (0..3).map(|_| rng.gen_range(-2.0f64..=2.0)).collect();
    assert_eq!(closed, [1.6785521689883223, -1.5987123463186066, 0.3268100952008832]);
    let narrow: Vec<f32> = (0..3).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
    assert_eq!(narrow, [2.5857177, 1.780725, -0.845171]);
}

#[test]
fn the_all_zero_state_restarts_as_seed_zero() {
    let mut zero = Rng::from_state([0; 4]);
    assert_eq!(
        zero.state(),
        [16294208416658607535, 7960286522194355700, 487617019471545679, 17909611376780542444]
    );
    assert_eq!(zero.state(), Rng::seed_from_u64(0).state());
    assert_eq!(
        words(&mut zero, 4),
        [0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c]
    );
}

#[test]
fn gaussian_deviates() {
    let mut rng = Rng::seed_from_u64(42);
    let deviates: Vec<f32> = (0..6).map(|_| rng.gauss()).collect();
    assert_eq!(deviates, [-1.6132238, 0.781692, 0.015871294, 0.4772168, -0.6394511, -0.22099379]);
    assert_eq!(rng.gen::<u64>(), 14776290213336893110, "the word after them");
}
