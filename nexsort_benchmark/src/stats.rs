//! Summary statistics and the parsers for what `xsort` and `/proc` print.

/// The median (mean of the middle pair for an even count); `None` if empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method, the default of
/// Python's `statistics.quantiles(xs, n=4)`; `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// The lower quartile, roughly the median of the faster half. Every job of
/// a run does identical work, so what spreads the slower half is the host;
/// on a shared host this statistic tracks the program about twice as
/// steadily from run to run as the median does.
pub fn lower_quartile(xs: &[f64]) -> Option<f64> {
    quartiles(xs).map(|(q1, _)| q1)
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile that leaves at least ten samples beyond it, with
/// its nearest-rank value; `None` when even the 75th leaves fewer than ten.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len() as f64;
    let p = TAIL_PERCENTILES.into_iter().find(|p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)?;
    let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, v.len());
    Some((p, v[rank - 1]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The block count of the `TOTAL` row that `xsort sort --stats` prints.
pub fn parse_total(stats: &str) -> Option<u64> {
    stats
        .lines()
        .find(|l| l.split_whitespace().next() == Some("TOTAL"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|t| t.parse().ok())
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(lower_quartile(&xs), Some(2.75));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((95.0, 190.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((75.0, 45.0)));
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&xs), None, "the 75th leaves only 9.75 samples beyond");
    }

    #[test]
    fn parses_the_stats_total_row() {
        let text = "sort: N=3 recs\ncategory  reads writes total\n\
                    input-read  1 0 1\nTOTAL                     8614\ncache: x\n";
        assert_eq!(parse_total(text), Some(8614));
        assert_eq!(parse_total("no table here"), None);
    }

    #[test]
    fn parses_vmhwm() {
        let status = "Name:\txsort\nVmPeak:\t  90000 kB\nVmHWM:\t   63904 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(63904));
        assert_eq!(parse_vmhwm_kb("Name:\tzombie\nState:\tZ\n"), None);
    }
}
