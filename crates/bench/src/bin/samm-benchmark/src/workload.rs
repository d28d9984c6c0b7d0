//! The four workloads: which requests each one sends, in which seeded
//! order, against which cache geometry.
//!
//! A workload owns a table of distinct requests (`reqs`), the distinct
//! wire lines built from them (`lines`: one single line per request,
//! then any batch lines), and a seeded `stream` of line indices that the
//! clients walk cyclically. The set-up pass sends every single line
//! once; the timed windows and the traced replays walk the stream.

use samm_litmus::catalog::{self, CatalogEntry, ModelSel};

/// Workload names, in the order the all-workloads mode runs them.
pub const NAMES: [&str; 4] = ["warm-singles", "warm-batch32", "fresh-mix", "zipf-churn"];

/// Requests per batch line in `warm-batch32`.
const BATCH: usize = 32;
/// Length of the drawn streams (`fresh-mix`, `zipf-churn`) before they
/// repeat.
const STREAM_LEN: usize = 1 << 15;
/// Cache geometry of a server started without cache flags.
const DEFAULT_GEOMETRY: (usize, usize) = (16, 256);
/// Seed of the `zipf-churn` popularity ranking. The ranking decides
/// which expensive keys stay cold, so a seeded ranking moved p99 by a
/// quarter between seeds; the run seed draws the request order only.
const RANKING_SEED: u64 = 0x5EED;

/// A small, fixed PRNG (SplitMix64): every stream is a pure function of
/// the seed, on any platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Request kinds the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Enumerate,
    Verdict,
    Witness,
    Refutation,
    Certify,
}

/// The `fresh-mix` kind shares, in percent.
pub const MIX: [(Kind, u32); 5] = [
    (Kind::Enumerate, 40),
    (Kind::Verdict, 20),
    (Kind::Witness, 15),
    (Kind::Refutation, 15),
    (Kind::Certify, 10),
];

/// Draws one kind with the [`MIX`] shares.
pub fn draw_kind(rng: &mut Rng) -> Kind {
    let mut ticket = rng.below(100) as u32;
    for (kind, share) in MIX {
        if ticket < share {
            return kind;
        }
        ticket -= share;
    }
    unreachable!("MIX shares sum to 100")
}

/// One distinct request.
#[derive(Debug, Clone)]
pub struct Req {
    pub kind: Kind,
    /// Index into [`Workload::catalog`].
    pub entry: usize,
    /// The model, for every kind but `verdict`.
    pub model: Option<ModelSel>,
    /// The request as one JSON object. It never carries `engine` or
    /// `id`, so the service's default path is what gets measured.
    pub text: String,
}

/// One distinct wire line: a single request or a batch of them.
#[derive(Debug, Clone)]
pub struct Line {
    pub text: String,
    /// Indices into [`Workload::reqs`], in slot order.
    pub slots: Vec<usize>,
    pub batch: bool,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// `samm-serve` flags beyond the common ones.
    pub server_flags: &'static [&'static str],
    /// `(shards, capacity per shard)` those flags give the server cache.
    pub geometry: (usize, usize),
    pub catalog: Vec<CatalogEntry>,
    pub reqs: Vec<Req>,
    /// `lines[i]` is the single line of `reqs[i]` for `i < reqs.len()`;
    /// batch lines follow.
    pub lines: Vec<Line>,
    /// Line indices in send order; clients cycle through it.
    pub stream: Vec<usize>,
}

impl Workload {
    /// Builds workload `name` from `seed`; `None` for an unknown name.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let catalog = catalog::all();
        let keys: Vec<(usize, ModelSel)> = catalog
            .iter()
            .enumerate()
            .flat_map(|(i, e)| e.models().into_iter().map(move |m| (i, m)))
            .collect();
        let mut rng = Rng::new(seed);
        let mut w = Workload {
            name: NAMES.into_iter().find(|n| *n == name)?,
            server_flags: &[],
            geometry: DEFAULT_GEOMETRY,
            reqs: Vec::new(),
            lines: Vec::new(),
            stream: Vec::new(),
            catalog,
        };
        match name {
            "warm-singles" => {
                w.push_all(Kind::Enumerate, &keys);
                w.stream = (0..keys.len()).collect();
                rng.shuffle(&mut w.stream);
            }
            "warm-batch32" => {
                w.push_all(Kind::Enumerate, &keys);
                let mut order: Vec<usize> = (0..keys.len()).collect();
                rng.shuffle(&mut order);
                // 141 lines of 32 walk the shuffled order exactly 32
                // times, since 141 and 32 are coprime.
                for b in 0..order.len() {
                    let slots: Vec<usize> = (0..BATCH)
                        .map(|j| order[(b * BATCH + j) % order.len()])
                        .collect();
                    w.stream.push(w.lines.len());
                    w.push_batch(slots);
                }
            }
            "fresh-mix" => {
                w.server_flags = &["--cache-shards", "1", "--cache-capacity", "1"];
                w.geometry = (1, 1);
                let tests: Vec<(usize, ModelSel)> =
                    (0..w.catalog.len()).map(|i| (i, ModelSel::Sc)).collect();
                let ranges = [
                    w.push_all(Kind::Enumerate, &keys),
                    w.push_all(Kind::Verdict, &tests),
                    w.push_all(Kind::Witness, &keys),
                    w.push_all(Kind::Refutation, &keys),
                    w.push_all(Kind::Certify, &keys),
                ];
                for _ in 0..STREAM_LEN {
                    let kind = draw_kind(&mut rng);
                    let range = &ranges[MIX.iter().position(|(k, _)| *k == kind).expect("mixed")];
                    w.stream.push(range.start + rng.below(range.len()));
                }
            }
            "zipf-churn" => {
                w.server_flags = &["--cache-shards", "4", "--cache-capacity", "12"];
                w.geometry = (4, 12);
                w.push_all(Kind::Enumerate, &keys);
                let mut by_rank: Vec<usize> = (0..keys.len()).collect();
                Rng::new(RANKING_SEED).shuffle(&mut by_rank);
                let zipf = Zipf::new(keys.len());
                w.stream = (0..STREAM_LEN)
                    .map(|_| by_rank[zipf.draw(&mut rng)])
                    .collect();
            }
            _ => unreachable!("name was checked against NAMES"),
        }
        Some(w)
    }

    /// Appends one request of `kind` per key and returns their indices.
    fn push_all(&mut self, kind: Kind, keys: &[(usize, ModelSel)]) -> std::ops::Range<usize> {
        let start = self.reqs.len();
        for &(entry, model) in keys {
            let test = &self.catalog[entry].test.name;
            let m = model.name();
            let text = match kind {
                Kind::Enumerate => {
                    format!(r#"{{"kind":"enumerate","test":"{test}","model":"{m}"}}"#)
                }
                Kind::Verdict => format!(r#"{{"kind":"verdict","test":"{test}"}}"#),
                Kind::Witness => {
                    format!(r#"{{"kind":"witness","test":"{test}","model":"{m}","condition":0}}"#)
                }
                Kind::Refutation => format!(
                    r#"{{"kind":"refutation","test":"{test}","model":"{m}","condition":0}}"#
                ),
                Kind::Certify => {
                    format!(r#"{{"kind":"certify","test":"{test}","model":"{m}","robust":true}}"#)
                }
            };
            self.lines.push(Line {
                text: text.clone(),
                slots: vec![self.reqs.len()],
                batch: false,
            });
            self.reqs.push(Req {
                kind,
                entry,
                model: (kind != Kind::Verdict).then_some(model),
                text,
            });
        }
        start..self.reqs.len()
    }

    fn push_batch(&mut self, slots: Vec<usize>) {
        let body: Vec<&str> = slots.iter().map(|&r| self.reqs[r].text.as_str()).collect();
        self.lines.push(Line {
            text: format!(r#"{{"kind":"batch","requests":[{}]}}"#, body.join(",")),
            slots,
            batch: true,
        });
    }

    /// The index of the line at stream position `pos` (the stream
    /// repeats).
    pub fn line_at(&self, pos: usize) -> usize {
        self.stream[pos % self.stream.len()]
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` has weight `1 / (r + 1)`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(w: &Workload) -> Vec<&str> {
        (0..4000)
            .map(|p| w.lines[w.line_at(p)].text.as_str())
            .collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for name in NAMES {
            let a = Workload::build(name, 7).unwrap();
            let b = Workload::build(name, 7).unwrap();
            let c = Workload::build(name, 8).unwrap();
            assert_eq!(texts(&a), texts(&b), "{name}");
            assert_ne!(texts(&a), texts(&c), "{name}");
        }
    }

    #[test]
    fn catalog_has_141_keys_and_every_line_parses() {
        for name in NAMES {
            let w = Workload::build(name, 1).unwrap();
            let enumerates = w.reqs.iter().filter(|r| r.kind == Kind::Enumerate).count();
            assert_eq!(enumerates, 141, "{name}");
            for line in &w.lines {
                samm_serve::parse_envelope(&line.text).unwrap();
            }
        }
        assert!(Workload::build("nope", 1).is_none());
    }

    #[test]
    fn mix_proportions_are_within_two_percent() {
        let mut rng = Rng::new(3);
        let mut counts = [0usize; MIX.len()];
        let draws = 10_000;
        for _ in 0..draws {
            let kind = draw_kind(&mut rng);
            counts[MIX.iter().position(|(k, _)| *k == kind).unwrap()] += 1;
        }
        for ((kind, share), count) in MIX.iter().zip(counts) {
            let got = count as f64 / draws as f64;
            assert!(
                (got - f64::from(*share) / 100.0).abs() < 0.02,
                "{kind:?}: {got}"
            );
        }
        // The built stream follows the same mix.
        let w = Workload::build("fresh-mix", 3).unwrap();
        let verdicts = w
            .stream
            .iter()
            .filter(|&&l| w.reqs[w.lines[l].slots[0]].kind == Kind::Verdict)
            .count();
        assert!((verdicts as f64 / w.stream.len() as f64 - 0.20).abs() < 0.02);
    }

    #[test]
    fn batch_lines_cover_every_key_equally() {
        let w = Workload::build("warm-batch32", 5).unwrap();
        let mut uses = vec![0usize; w.reqs.len()];
        for &l in &w.stream {
            assert_eq!(w.lines[l].slots.len(), BATCH);
            for &r in &w.lines[l].slots {
                uses[r] += 1;
            }
        }
        assert!(uses.iter().all(|&u| u == BATCH));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(141);
        let mut rng = Rng::new(9);
        let top = (0..10_000).filter(|_| zipf.draw(&mut rng) == 0).count();
        // P(rank 0) = 1 / H(141) ≈ 0.18.
        assert!((1500..2100).contains(&top), "{top}");
    }
}
