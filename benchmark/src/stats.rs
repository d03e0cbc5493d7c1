//! Order statistics of a metric's samples, and the regression-bound
//! verdicts built on them.

use sim_base::json::Json;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value below which `p` (0..=1) of the samples fall, by linear
/// interpolation between closest ranks.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "percentile of no samples");
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile by the exclusive method — the one Python's
/// `statistics.quantiles(xs, n=4)` uses, so spreads computed here and by
/// the driver agree. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks. Like Python, the rank is
        // clamped into the data and the offset taken from the clamped
        // rank, which extrapolates when there are under three samples.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

/// Each simulation's fastest reading: the element-wise minimum of
/// `samples`, where `samples[i][j]` is the host time of simulation `j` in
/// sample `i`.
pub fn minima<'a>(samples: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for sample in samples {
        if best.is_empty() {
            best.clone_from(sample);
        } else {
            for (b, s) in best.iter_mut().zip(sample) {
                *b = b.min(*s);
            }
        }
    }
    best
}

/// The pass-timing estimator: the sum over the simulations of the
/// fastest sample (see `runner`). Returns it over all of `samples` and,
/// with two samples or more, over the even- and the odd-numbered samples
/// apart — two estimates of the same kind from interleaved halves of the
/// run, which is what the estimate's own spread is judged by.
pub fn fastest(samples: &[Vec<f64>]) -> (f64, Vec<f64>) {
    let over = |skip: usize| -> f64 { minima(samples.iter().skip(skip).step_by(2)).iter().sum() };
    let all = minima(samples).iter().sum();
    if samples.len() < 2 {
        (all, vec![all])
    } else {
        (all, vec![over(0), over(1)])
    }
}

/// A metric's reported value and what is kept of the estimates behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// The reported estimate: the median of the samples, or — for the
    /// pass timings, see [`estimate`](Self::estimate) — the sum of each
    /// simulation's fastest sample.
    pub value: f64,
    /// First quartile of the estimates the spread is judged by: the
    /// samples themselves under a median, the half-run estimates of
    /// [`fastest`] under a pass timing.
    pub q1: f64,
    /// Third quartile of the same.
    pub q3: f64,
    /// Smallest of them.
    pub min: f64,
    /// Largest of them.
    pub max: f64,
    /// 99th percentile; kept only for the probes, which alone have the
    /// hundreds of samples a tail percentile needs.
    pub p99: Option<f64>,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `xs` (at least one sample).
    pub fn of(xs: &[f64]) -> Summary {
        let v = sorted(xs);
        let (q1, q3) = if v.len() < 2 {
            (v[0], v[0])
        } else {
            quartiles(&v)
        };
        Summary {
            value: median(&v),
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
            p99: None,
            n: v.len(),
        }
    }

    /// Like [`of`](Self::of), with the 99th percentile.
    pub fn with_p99(xs: &[f64]) -> Summary {
        Summary {
            p99: Some(percentile(xs, 0.99)),
            ..Summary::of(xs)
        }
    }

    /// A count or ratio that repeats exactly: one sample.
    pub fn exact(x: f64) -> Summary {
        Summary::of(&[x])
    }

    /// A value estimated from `n` samples some other way than by their
    /// median, with `parts`, estimates of the same kind from parts of
    /// the run, to judge its spread by. Estimates from fewer samples can
    /// all lie to one side of `value`.
    pub fn estimate(value: f64, parts: &[f64], n: usize) -> Summary {
        Summary {
            value,
            n,
            ..Summary::of(parts)
        }
    }

    /// Spread as a share of the value: the distance between the
    /// quartiles of the estimates behind it, the measure the benchmark
    /// contract judges run-to-run spread by.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }

    /// Result-file form.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::from(self.value)),
            ("q1", Json::from(self.q1)),
            ("q3", Json::from(self.q3)),
            ("min", Json::from(self.min)),
            ("max", Json::from(self.max)),
            ("n", Json::from(self.n)),
        ];
        if let Some(p) = self.p99 {
            pairs.push(("p99", Json::from(p)));
        }
        Json::obj(pairs)
    }

    /// Parses the result-file form.
    pub fn from_json(j: &Json) -> Result<Summary, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("summary lacks number `{k}`"))
        };
        Ok(Summary {
            value: num("value")?,
            q1: num("q1")?,
            q3: num("q3")?,
            min: num("min")?,
            max: num("max")?,
            p99: j.get("p99").and_then(Json::as_f64),
            n: num("n")? as usize,
        })
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `old` the value got worse going to `new` (negative
/// when it improved).
pub fn worsening(old: f64, new: f64, better: Better) -> f64 {
    if old == 0.0 {
        return if new == old { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

/// Outcome of comparing one metric on one workload between two results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound, and the estimates do not overlap.
    Better,
    /// Neither side is outside the other's bound.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// Either side's own spread is wider than the bound and the
    /// estimates overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    /// Printed form.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `old` for a metric with regression bound `bound`
/// (a share of the old value). A spread wider than the bound makes the
/// comparison unresolved unless every estimate of one side beats every
/// estimate of the other.
pub fn verdict(old: &Summary, new: &Summary, better: Better, bound: f64) -> Verdict {
    let all_new_better = match better {
        Better::Lower => new.max < old.min,
        Better::Higher => new.min > old.max,
    };
    let all_new_worse = match better {
        Better::Lower => new.min > old.max,
        Better::Higher => new.max < old.min,
    };
    let noisy = old.spread() > bound || new.spread() > bound;
    if noisy && !all_new_better && !all_new_worse {
        return Verdict::Unresolved;
    }
    let w = worsening(old.value, new.value, better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound && all_new_better {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}
