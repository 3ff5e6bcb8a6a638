//! Seeded request generators. The same seed gives byte-identical
//! request lines; every line is serialized here, before any clock runs.

use std::collections::{HashSet, VecDeque};
use yoco_sweep::api::{EvalRequest, Request};
use yoco_sweep::{AcceleratorKind, DesignPoint, DseGrid, Scenario, WorkloadSpec, DSE_WORKLOADS};

/// Cells the server keeps in its in-memory warm memo (FIFO). A revisit
/// must ask for cells that left it, so its cells are read from the disk
/// cache.
pub const MEMO_CELLS: usize = 4096;
/// Extra insertions a cell must age past [`MEMO_CELLS`] before it is
/// revisited. Covers the reordering of at most a few in-flight batches
/// between concurrent connections.
pub const REVISIT_MARGIN: usize = 512;
/// Cells per `serve-dse` request: 20 design points × the DSE workload pair.
pub const BATCH_CELLS: usize = 40;
/// First-visit batches sent before the clock starts, so that revisits
/// have cells old enough to be out of the memo (6000 cells).
pub const PRIME_BATCHES: usize = 150;

const WARM_SALT: u64 = 0x7761_726d;
const DSE_SALT: u64 = 0x6473_6521;

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (the modulo bias is below 2^-40 for the small
    /// `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `serve-warm` / `cluster-warm` stream: the 40-cell fig8 request,
/// a seeded one in four in the buffered v1 form, the rest v2 streamed.
#[derive(Debug, Clone)]
pub struct WarmStream {
    pub id: String,
    pub scenarios: Vec<Scenario>,
    pub v1: String,
    pub v2: String,
    pub is_v1: Vec<bool>,
}

impl WarmStream {
    pub fn new(seed: u64, len: usize) -> Self {
        let scenarios = yoco_sweep::grids::resolve("fig8").expect("fig8 is a named grid");
        let id = format!("warm-{seed:x}");
        let line = |req: EvalRequest| {
            serde_json::to_string(&Request::Eval(req)).expect("request serialization")
        };
        let v1 = line(EvalRequest::new(id.clone(), scenarios.clone()));
        let v2 = line(EvalRequest::streaming(id.clone(), scenarios.clone()));
        let mut rng = Rng::new(seed ^ WARM_SALT);
        let is_v1 = (0..len).map(|_| rng.below(4) == 0).collect();
        Self {
            id,
            scenarios,
            v1,
            v2,
            is_v1,
        }
    }

    pub fn line(&self, i: usize) -> &str {
        if self.is_v1[i] {
            &self.v1
        } else {
            &self.v2
        }
    }
}

/// One `serve-dse` request: indices into [`DseStream::cells`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    pub cells: Vec<u32>,
    /// Whether the batch re-asks for cells already evaluated (and since
    /// evicted from the memo) instead of visiting new design points.
    pub revisit: bool,
}

/// The `serve-dse` stream: 40-cell batches of distinct YOCO design
/// points × the DSE workload pair. About half the timed batches are
/// first visits; the rest revisit cells that aged out of the memo.
#[derive(Debug, Clone)]
pub struct DseStream {
    pub id: String,
    /// Every distinct cell, in first-visit order.
    pub cells: Vec<Scenario>,
    /// Each cell's scenario JSON, serialized once.
    fragments: Vec<String>,
    prefix: String,
    suffix: String,
    pub prime: Vec<Batch>,
    pub timed: Vec<Batch>,
}

/// The DSE knob axes the generator draws from: the program's own
/// `dse-tiles`, `dse-stack` and `dse-ima-mix` grids.
struct Axes {
    tiles: &'static [usize],
    stack: &'static [usize],
    width: &'static [usize],
    ima_mix: &'static [(usize, usize)],
}

fn axes() -> Axes {
    let grid = |name| DseGrid::find(name).unwrap_or_else(|| panic!("{name} is a DSE grid"));
    Axes {
        tiles: grid("dse-tiles").tiles,
        stack: grid("dse-stack").ima_stack,
        width: grid("dse-stack").ima_width,
        ima_mix: grid("dse-ima-mix").ima_mix,
    }
}

/// Activity is drawn on a 10⁻⁴ grid over [0.05, 1.0]: continuous for the
/// purpose of the workload, exact in decimal.
const ACTIVITY_STEPS: u64 = 9501;

/// One design point from the five DSE knobs (`coords[4]` is the
/// activity step).
pub fn design(coords: [u64; 5]) -> DesignPoint {
    let axes = axes();
    let (dimas, simas) = axes.ima_mix[coords[3] as usize];
    DesignPoint {
        tiles: Some(axes.tiles[coords[0] as usize]),
        ima_stack: Some(axes.stack[coords[1] as usize]),
        ima_width: Some(axes.width[coords[2] as usize]),
        dimas_per_tile: Some(dimas),
        simas_per_tile: Some(simas),
        activity: Some((500 + coords[4]) as f64 / 10_000.0),
    }
    .normalized()
}

/// Every knob combination the generator can draw, at one activity.
#[cfg(test)]
fn knob_corners(activity_step: u64) -> Vec<DesignPoint> {
    let axes = axes();
    let mut out = Vec::new();
    for t in 0..axes.tiles.len() as u64 {
        for s in 0..axes.stack.len() as u64 {
            for w in 0..axes.width.len() as u64 {
                for m in 0..axes.ima_mix.len() as u64 {
                    out.push(design([t, s, w, m, activity_step]));
                }
            }
        }
    }
    out
}

/// Generator state: the cells so far plus a model of the server's
/// FIFO memo, used to pick revisits that the memo no longer holds.
struct DseGen {
    rng: Rng,
    seen: HashSet<[u64; 5]>,
    cells: Vec<Scenario>,
    fragments: Vec<String>,
    /// Cell insertions into the memo so far.
    inserted: usize,
    /// Cells still possibly in the memo, oldest first, with the
    /// insertion count at which each went in.
    aging: VecDeque<(usize, u32)>,
    /// Cells old enough to revisit.
    eligible: Vec<u32>,
}

impl DseGen {
    fn insert(&mut self, cell: u32) {
        self.aging.push_back((self.inserted, cell));
        self.inserted += 1;
    }

    fn promote(&mut self) {
        while let Some(&(at, cell)) = self.aging.front() {
            if at + MEMO_CELLS + REVISIT_MARGIN > self.inserted {
                break;
            }
            self.aging.pop_front();
            self.eligible.push(cell);
        }
    }

    fn first_visit(&mut self) -> Batch {
        let axes = axes();
        let mut batch = Vec::with_capacity(BATCH_CELLS);
        while batch.len() < BATCH_CELLS {
            let coords = [
                self.rng.below(axes.tiles.len() as u64),
                self.rng.below(axes.stack.len() as u64),
                self.rng.below(axes.width.len() as u64),
                self.rng.below(axes.ima_mix.len() as u64),
                self.rng.below(ACTIVITY_STEPS),
            ];
            if !self.seen.insert(coords) {
                continue;
            }
            let point = design(coords);
            let label = point.label();
            let n = self.seen.len();
            for model in DSE_WORKLOADS {
                let mut s = Scenario::gemm(
                    AcceleratorKind::Yoco,
                    point,
                    WorkloadSpec::Zoo {
                        model: model.to_owned(),
                    },
                );
                s.id = format!("dse/{label}/{model}/p{n}");
                let cell = u32::try_from(self.cells.len()).expect("cell count fits u32");
                self.fragments
                    .push(serde_json::to_string(&s).expect("scenario serialization"));
                self.cells.push(s);
                self.insert(cell);
                batch.push(cell);
            }
        }
        Batch {
            cells: batch,
            revisit: false,
        }
    }

    fn revisit(&mut self) -> Batch {
        let mut batch = Vec::with_capacity(BATCH_CELLS);
        for _ in 0..BATCH_CELLS {
            let pick = self.rng.below(self.eligible.len() as u64) as usize;
            let cell = self.eligible.swap_remove(pick);
            self.insert(cell);
            batch.push(cell);
        }
        Batch {
            cells: batch,
            revisit: true,
        }
    }
}

impl DseStream {
    pub fn new(seed: u64, timed_len: usize) -> Self {
        let mut g = DseGen {
            rng: Rng::new(seed ^ DSE_SALT),
            seen: HashSet::new(),
            cells: Vec::new(),
            fragments: Vec::new(),
            inserted: 0,
            aging: VecDeque::new(),
            eligible: Vec::new(),
        };
        let prime = (0..PRIME_BATCHES).map(|_| g.first_visit()).collect();
        let mut timed = Vec::with_capacity(timed_len);
        for _ in 0..timed_len {
            g.promote();
            let revisit = g.rng.below(2) == 0 && g.eligible.len() >= BATCH_CELLS;
            timed.push(if revisit {
                g.revisit()
            } else {
                g.first_visit()
            });
        }
        let id = format!("dse-{seed:x}");
        let empty = serde_json::to_string(&Request::Eval(EvalRequest::streaming(
            id.clone(),
            Vec::new(),
        )))
        .expect("request serialization");
        let split = empty
            .find("\"scenarios\":[]")
            .expect("EvalRequest serializes a scenarios array")
            + "\"scenarios\":[".len();
        Self {
            id,
            cells: g.cells,
            fragments: g.fragments,
            prefix: empty[..split].to_owned(),
            suffix: empty[split..].to_owned(),
            prime,
            timed,
        }
    }

    /// Appends the request line of `batch` (with its newline) to `out`,
    /// from the pre-serialized pieces.
    pub fn write_line(&self, batch: &Batch, out: &mut Vec<u8>) {
        out.extend_from_slice(self.prefix.as_bytes());
        for (k, &cell) in batch.cells.iter().enumerate() {
            if k > 0 {
                out.push(b',');
            }
            out.extend_from_slice(self.fragments[cell as usize].as_bytes());
        }
        out.extend_from_slice(self.suffix.as_bytes());
        out.push(b'\n');
    }

    /// The request line of `batch`, without its newline.
    pub fn line(&self, batch: &Batch) -> String {
        let mut out = Vec::new();
        self.write_line(batch, &mut out);
        out.pop();
        String::from_utf8(out).expect("JSON is UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm_bytes(seed: u64) -> Vec<u8> {
        let s = WarmStream::new(seed, 2000);
        (0..2000).flat_map(|i| s.line(i).bytes()).collect()
    }

    fn dse_bytes(seed: u64) -> Vec<u8> {
        let s = DseStream::new(seed, 300);
        let mut out = Vec::new();
        for b in s.prime.iter().chain(&s.timed) {
            s.write_line(b, &mut out);
        }
        out
    }

    #[test]
    fn same_seed_same_lines_other_seed_other_lines() {
        assert_eq!(warm_bytes(7), warm_bytes(7));
        assert_ne!(warm_bytes(7), warm_bytes(8));
        assert_eq!(dse_bytes(7), dse_bytes(7));
        assert_ne!(dse_bytes(7), dse_bytes(8));
    }

    #[test]
    fn assembled_lines_equal_whole_request_serialization() {
        let s = DseStream::new(3, 50);
        for b in s.prime.iter().take(2).chain(s.timed.iter().take(50)) {
            let scenarios = b
                .cells
                .iter()
                .map(|&c| s.cells[c as usize].clone())
                .collect();
            let whole =
                serde_json::to_string(&Request::Eval(EvalRequest::streaming(&s.id, scenarios)))
                    .unwrap();
            assert_eq!(s.line(b), whole);
            let back: Request = serde_json::from_str(&s.line(b)).unwrap();
            let Request::Eval(req) = back else {
                panic!("an eval request")
            };
            let sent: Vec<&Scenario> = b.cells.iter().map(|&c| &s.cells[c as usize]).collect();
            assert_eq!(req.scenarios.iter().collect::<Vec<_>>(), sent);
        }
    }

    #[test]
    fn warm_v1_share_is_one_in_four() {
        for seed in [1, 2, 3] {
            let s = WarmStream::new(seed, 20_000);
            let share = s.is_v1.iter().filter(|&&v| v).count() as f64 / 20_000.0;
            assert!(
                (share - 0.25).abs() < 0.015,
                "seed {seed}: v1 share {share}"
            );
        }
    }

    #[test]
    fn dse_first_visits_and_revisits_are_half_each() {
        for seed in [1, 2, 3] {
            let s = DseStream::new(seed, 4000);
            let revisits = s.timed.iter().filter(|b| b.revisit).count() as f64 / 4000.0;
            assert!(
                (revisits - 0.5).abs() < 0.03,
                "seed {seed}: revisit share {revisits}"
            );
            assert!(s.prime.iter().all(|b| !b.revisit));
            assert!(s
                .prime
                .iter()
                .chain(&s.timed)
                .all(|b| b.cells.len() == BATCH_CELLS));
        }
    }

    /// Replays the stream through an exact model of the server's
    /// per-cell FIFO memo: every revisit cell has left it, and every
    /// first-visit cell is new.
    #[test]
    fn dse_revisits_reach_past_the_memo() {
        let s = DseStream::new(11, 3000);
        let mut memo: VecDeque<u32> = VecDeque::new();
        let mut resident: HashSet<u32> = HashSet::new();
        let mut ever: HashSet<u32> = HashSet::new();
        let mut since = vec![0usize; s.cells.len()];
        let mut inserted = 0usize;
        for b in s.prime.iter().chain(&s.timed) {
            let mut in_batch = HashSet::new();
            for &c in &b.cells {
                assert!(in_batch.insert(c), "a cell appears once per batch");
                assert!(!resident.contains(&c), "cell {c} is still in the memo");
                if b.revisit {
                    assert!(ever.contains(&c));
                    assert!(inserted - since[c as usize] >= MEMO_CELLS);
                } else {
                    assert!(ever.insert(c), "first visits are new cells");
                }
            }
            for &c in &b.cells {
                if memo.len() >= MEMO_CELLS {
                    let old = memo.pop_front().unwrap();
                    resident.remove(&old);
                }
                memo.push_back(c);
                resident.insert(c);
                since[c as usize] = inserted;
                inserted += 1;
            }
        }
        assert!(s.timed.iter().any(|b| b.revisit));
    }

    #[test]
    fn every_knob_corner_evaluates() {
        for step in [0, ACTIVITY_STEPS - 1] {
            for point in knob_corners(step) {
                for model in DSE_WORKLOADS {
                    let s = Scenario::gemm(
                        AcceleratorKind::Yoco,
                        point,
                        WorkloadSpec::Zoo {
                            model: model.to_owned(),
                        },
                    );
                    let kind = s.kind.normalized();
                    assert!(
                        yoco_sweep::eval::evaluate(&kind).is_ok(),
                        "{} fails",
                        point.label()
                    );
                }
            }
        }
    }
}
