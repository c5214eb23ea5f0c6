//! Differential fuzz of the event-sweep kernels — [`RegionSet::canonicalize`]
//! and `slab_sweep` — against the per-slab rescans they replaced,
//! compared bit for bit, plus the two properties the sharded plane
//! depends on: canonical form is idempotent and invariant under
//! re-cutting the input.

use super::*;

/// `canonicalize` as a rescan: every slab filters the whole list.
fn canonicalize_rescan(set: &RegionSet) -> Vec<Rect> {
    let mut rects: Vec<Rect> = set.rects.clone();
    rects.retain(|r| !r.is_degenerate());
    if rects.len() < 2 {
        rects.sort_by(|a, b| a.x_lo.total_cmp(&b.x_lo).then(a.y_lo.total_cmp(&b.y_lo)));
        return rects;
    }
    let mut xs: Vec<f64> = rects.iter().flat_map(|r| [r.x_lo, r.x_hi]).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| a.total_cmp(b).is_eq());

    let mut out: Vec<Rect> = Vec::new();
    let mut open: Vec<Rect> = Vec::new();
    for w in xs.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        if x0 >= x1 {
            continue;
        }
        let mut spans: Vec<(f64, f64)> = rects
            .iter()
            .filter(|r| r.x_lo <= x0 && x0 < r.x_hi)
            .map(|r| (r.y_lo, r.y_hi))
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut runs: Vec<(f64, f64)> = Vec::with_capacity(spans.len());
        for &(lo, hi) in &spans {
            match runs.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => runs.push((lo, hi)),
            }
        }
        let mut next_open: Vec<Rect> = Vec::with_capacity(runs.len());
        for &(lo, hi) in &runs {
            let carried = open
                .iter()
                .position(|r| r.x_hi == x0 && r.y_lo == lo && r.y_hi == hi);
            match carried {
                Some(i) => {
                    let mut r = open.swap_remove(i);
                    r.x_hi = x1;
                    next_open.push(r);
                }
                None => next_open.push(Rect::new(x0, lo, x1, hi)),
            }
        }
        out.append(&mut open);
        open = next_open;
    }
    out.append(&mut open);
    out.sort_by(|a, b| a.x_lo.total_cmp(&b.x_lo).then(a.y_lo.total_cmp(&b.y_lo)));
    out
}

/// `slab_sweep` as a rescan: every slab filters both whole lists.
fn slab_sweep_rescan(a: &RegionSet, b: Option<&RegionSet>, mode: Mode) -> f64 {
    let slab = |set: &RegionSet, x: f64| {
        IntervalSet::from_intervals(
            set.rects
                .iter()
                .filter(|r| r.x_lo <= x && x < r.x_hi)
                .map(|r| Interval::new(r.y_lo, r.y_hi)),
        )
    };
    let mut xs: Vec<f64> = a
        .rects
        .iter()
        .chain(b.map_or(&[][..], |b| &b.rects[..]))
        .flat_map(|r| [r.x_lo, r.x_hi])
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|x, y| (*x - *y).abs() <= EPS);
    let mut total = 0.0;
    for w in xs.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        let width = x1 - x0;
        if width <= 0.0 {
            continue;
        }
        let mid = 0.5 * (x0 + x1);
        let ya = slab(a, mid);
        let contribution = match mode {
            Mode::SelfArea => ya.measure(),
            Mode::Intersection => ya.intersection(&slab(b.unwrap(), mid)).measure(),
            Mode::Difference => ya.difference_measure(&slab(b.unwrap(), mid)),
        };
        total += width * contribution;
    }
    total
}

/// Seeded test generator (64-bit LCG, high bits out).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        self.below(1 << 30) as f64 / (1u64 << 30) as f64
    }

    fn pick(&mut self, pool: &[f64]) -> f64 {
        pool[self.below(pool.len())]
    }
}

/// The coordinates of one fuzz case. Every coordinate of a case comes
/// from one small pool, so edges coincide, abut and overlap; the pools
/// cover the regimes where exact comparisons bite.
fn pool(rng: &mut Lcg, regime: usize) -> Vec<f64> {
    match regime {
        // Small dyadic values around a signed zero.
        0 => {
            let mut p: Vec<f64> = (-4..=8).map(|i| i as f64 * 0.5).collect();
            p.push(-0.0);
            p
        }
        // Near 1e15, where the ulp is 0.125 and midpoints round.
        1 => (0..10)
            .map(|i| 1e15 + i as f64 * 0.125 * (1 + rng.below(3)) as f64)
            .chain([-1e15, 1e15 - 0.5])
            .collect(),
        // Cell edges of a non-dyadic pitch, objects and their x ± l/2
        // sweep events (l = 2 cells), including events on cell edges.
        _ => {
            let pitch = 1000.0 / 30.0;
            let half = pitch;
            let mut p: Vec<f64> = (0..6).map(|i| i as f64 * pitch).collect();
            for _ in 0..3 {
                let x = rng.unit() * 5.0 * pitch;
                p.extend([x - half, x, x + half]);
            }
            let edge = (1 + rng.below(4)) as f64 * pitch;
            p.extend([edge - half, edge + half]);
            p
        }
    }
}

/// A random rect list over `pool`: fresh rects (some degenerate),
/// duplicates of earlier ones, and rects abutting an earlier one.
fn rect_list(rng: &mut Lcg, pool: &[f64]) -> RegionSet {
    let n = 1 + rng.below(24);
    let mut rects: Vec<Rect> = Vec::with_capacity(n);
    for _ in 0..n {
        let (a, b, c, d) = (
            rng.pick(pool),
            rng.pick(pool),
            rng.pick(pool),
            rng.pick(pool),
        );
        let mut r = Rect::new(a.min(b), c.min(d), a.max(b), c.max(d));
        if let Some(&prev) = rects.get(rng.below(rects.len().max(1))) {
            match rng.below(6) {
                0 => r = prev,
                1 if prev.x_hi <= r.x_hi => r.x_lo = prev.x_hi,
                2 if prev.y_hi <= r.y_hi => r.y_lo = prev.y_hi,
                3 => {
                    r = Rect {
                        y_lo: prev.y_lo,
                        y_hi: prev.y_hi,
                        ..r
                    }
                }
                _ => {}
            }
        }
        rects.push(r);
    }
    RegionSet { rects }
}

/// The same point set, cut by random lines from `pool` and shuffled.
/// Signed zeros are not cut lines: a cut at `+0.0` next to an edge at
/// `-0.0` may move a canonical edge between the two zeros.
fn recut(rng: &mut Lcg, set: &RegionSet, pool: &[f64]) -> RegionSet {
    let mut rects = set.rects.clone();
    for _ in 0..4 {
        let c = rng.pick(pool);
        if c == 0.0 {
            continue;
        }
        let vertical = rng.below(2) == 0;
        rects = rects
            .into_iter()
            .flat_map(|r| {
                if vertical && r.x_lo < c && c < r.x_hi {
                    vec![Rect { x_hi: c, ..r }, Rect { x_lo: c, ..r }]
                } else if !vertical && r.y_lo < c && c < r.y_hi {
                    vec![Rect { y_hi: c, ..r }, Rect { y_lo: c, ..r }]
                } else {
                    vec![r]
                }
            })
            .collect();
    }
    for i in (1..rects.len()).rev() {
        rects.swap(i, rng.below(i + 1));
    }
    RegionSet { rects }
}

fn bits(rects: &[Rect]) -> Vec<[u64; 4]> {
    rects
        .iter()
        .map(|r| [r.x_lo, r.y_lo, r.x_hi, r.y_hi].map(f64::to_bits))
        .collect()
}

fn canonical(set: &RegionSet) -> RegionSet {
    let mut c = set.clone();
    c.canonicalize();
    c
}

#[test]
fn event_sweep_canonicalize_matches_rescan_bit_for_bit() {
    let mut rng = Lcg(0xC4_0001);
    for case in 0..3000 {
        let pool = pool(&mut rng, case % 3);
        let set = rect_list(&mut rng, &pool);
        assert_eq!(
            bits(canonical(&set).rects()),
            bits(&canonicalize_rescan(&set)),
            "case {case}: {set:?}"
        );
    }
}

#[test]
fn event_sweep_areas_match_rescan_bit_for_bit() {
    let mut rng = Lcg(0xC4_0002);
    for case in 0..3000 {
        let pool = pool(&mut rng, case % 3);
        let a = rect_list(&mut rng, &pool);
        let b = rect_list(&mut rng, &pool);
        let pairs = [
            (a.area(), slab_sweep_rescan(&a, None, Mode::SelfArea)),
            (
                a.intersection_area(&b),
                slab_sweep_rescan(&a, Some(&b), Mode::Intersection),
            ),
            (
                a.difference_area(&b),
                slab_sweep_rescan(&a, Some(&b), Mode::Difference),
            ),
            (
                b.difference_area(&a),
                slab_sweep_rescan(&b, Some(&a), Mode::Difference),
            ),
        ];
        for (i, (got, want)) in pairs.into_iter().enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "case {case} measure {i}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn canonicalize_is_idempotent_and_cut_invariant() {
    let mut rng = Lcg(0xC4_0003);
    for case in 0..3000 {
        let pool = pool(&mut rng, case % 3);
        let set = rect_list(&mut rng, &pool);
        let once = canonical(&set);
        assert_eq!(
            bits(canonical(&once).rects()),
            bits(once.rects()),
            "case {case}: not idempotent on {set:?}"
        );
        let cut = recut(&mut rng, &set, &pool);
        assert_eq!(
            bits(canonical(&cut).rects()),
            bits(once.rects()),
            "case {case}: {set:?} re-cut as {cut:?}"
        );
    }
}
