//! Median, quartile and regression-bound logic.

use glbench::metrics::end_to_end;
use glbench::stats::{
    fastest, median, minima, percentile, quartiles, verdict, worsening, Better, Summary, Verdict,
};
use sim_base::rng::SplitMix64;

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    // Two samples: Python extrapolates from the clamped rank —
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5].
    assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
}

#[test]
fn percentile_interpolates_between_ranks() {
    let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(percentile(&xs, 0.0), 10.0);
    assert_eq!(percentile(&xs, 0.5), 30.0);
    assert_eq!(percentile(&xs, 1.0), 50.0);
    assert!((percentile(&xs, 0.99) - 49.6).abs() < 1e-9);
}

#[test]
fn summary_keeps_quartiles_extremes_and_count() {
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
    assert_eq!(
        (s.value, s.q1, s.q3, s.min, s.max, s.n, s.p99),
        (3.0, 1.5, 4.5, 1.0, 5.0, 5, None)
    );
    // The spread is the interquartile distance, not the range.
    assert!((s.spread() - 1.0).abs() < 1e-12);
    assert!(Summary::with_p99(&[1.0, 2.0]).p99.is_some());
    assert_eq!(Summary::exact(0.0).spread(), 0.0);
    assert_eq!(Summary::exact(7.0).spread(), 0.0);
}

#[test]
fn the_pass_timing_is_the_sum_of_each_simulations_fastest_sample() {
    let samples = vec![
        vec![1.0, 20.0, 300.0],
        vec![2.0, 10.0, 500.0],
        vec![3.0, 30.0, 100.0],
        vec![4.0, 40.0, 400.0],
    ];
    assert_eq!(minima(&samples), [1.0, 10.0, 100.0]);
    // All four, then samples 0 and 2, then samples 1 and 3.
    assert_eq!(fastest(&samples), (111.0, vec![121.0, 412.0]));
    assert_eq!(fastest(&samples[..1]), (321.0, vec![321.0]));
    let s = Summary::estimate(111.0, &[121.0, 412.0], 4);
    assert_eq!((s.value, s.min, s.max, s.n), (111.0, 121.0, 412.0, 4));
}

#[test]
fn worsening_follows_the_metric_direction() {
    assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
    assert!((worsening(10.0, 9.0, Better::Lower) + 0.1).abs() < 1e-12);
    assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
}

fn tight(x: f64) -> Summary {
    Summary::of(&[x * 0.995, x, x * 1.005])
}

#[test]
fn verdicts_respect_the_bound() {
    let lower = |old, new| verdict(&tight(old), &tight(new), Better::Lower, 0.10);
    assert_eq!(lower(10.0, 10.5), Verdict::WithinBound);
    assert_eq!(lower(10.0, 9.5), Verdict::WithinBound);
    assert_eq!(lower(10.0, 11.5), Verdict::Worse);
    assert_eq!(lower(10.0, 8.0), Verdict::Better);
    let higher = |old, new| verdict(&tight(old), &tight(new), Better::Higher, 0.10);
    assert_eq!(higher(10.0, 8.0), Verdict::Worse);
    assert_eq!(higher(10.0, 12.0), Verdict::Better);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
    let noisy = Summary::of(&[8.0, 10.0, 12.0]);
    // Overlapping samples: the data cannot tell.
    assert_eq!(
        verdict(&noisy, &tight(10.5), Better::Lower, 0.10),
        Verdict::Unresolved
    );
    // Every new sample beats every old one: resolved despite the noise.
    assert_eq!(
        verdict(&noisy, &tight(5.0), Better::Lower, 0.10),
        Verdict::Better
    );
    assert_eq!(
        verdict(&noisy, &tight(20.0), Better::Lower, 0.10),
        Verdict::Worse
    );
}

/// Set-up samples like the reference host's: twenty samples of eight
/// simulations, every sample a few per cent off, every other stretch of
/// four 1.5 times slower, and one reading fifteen times too long.
fn setup_samples(scale: f64, rng: &mut SplitMix64) -> Summary {
    let base = [0.001, 0.002, 0.005, 0.01, 0.02, 0.03, 0.05, 0.06];
    let samples: Vec<Vec<f64>> = (0..20)
        .map(|i| {
            let slow = if (i / 4) % 2 == 1 { 1.5 } else { 1.0 };
            base.iter()
                .enumerate()
                .map(|(j, b)| {
                    let jitter = 1.0 + 0.03 * rng.next_below(1000) as f64 / 1000.0;
                    let outlier = if (i, j) == (6, 7) { 15.0 } else { 1.0 };
                    b * scale * slow * jitter * outlier
                })
                .collect()
        })
        .collect();
    let (value, halves) = fastest(&samples);
    Summary::estimate(value, &halves, samples.len())
}

#[test]
fn a_setup_regression_of_twice_the_bound_reads_worse_despite_host_noise() {
    let m = end_to_end("setup_s").unwrap();
    let bound = m.bound.unwrap();
    let mut rng = SplitMix64::new(11);
    let old = setup_samples(1.0, &mut rng);
    // The estimator shrugs off the slow stretches and the outlier.
    assert!(old.spread() < bound / 3.0, "spread {}", old.spread());
    let again = setup_samples(1.0, &mut rng);
    let slower = setup_samples(1.0 + 2.0 * bound, &mut rng);
    assert_eq!(verdict(&old, &again, m.better, bound), Verdict::WithinBound);
    assert_eq!(verdict(&old, &slower, m.better, bound), Verdict::Worse);
    assert_eq!(verdict(&slower, &old, m.better, bound), Verdict::Better);
}
