//! The disturb ledger against the eager sweep it replaces.
//!
//! `NandArray` logs the pass-voltage exposure of every page read and
//! program and replays a page's pending exposures only when something
//! observes the page. The reference below is the eager order the ledger
//! must reproduce: a bare `CellPopulation` driven through
//! `program_cells`, `erase_block_cells` and one `apply_disturb_cells`
//! sweep over the other pages of the block after every read and
//! program. Random command sequences — single and multi-block forms of
//! program, read and erase — must sense identical bits and leave
//! bitwise-equal charge columns, on the GNR, CNT and PCM backends, with
//! and without per-cell variation. The `&self` views (`state_digest`,
//! `snapshot_state`, `cell`, `settled_population`) must read the same
//! before and after `settle()`, and no block's log may outgrow its bound.

use std::borrow::Cow;

use gnr_flash::backend::{BackendKind, CellBackend};
use gnr_flash::engine::BatchSimulator;
use gnr_flash::threshold::LogicState;
use gnr_flash_array::disturb::DisturbBias;
use gnr_flash_array::ispp::{IsppEraser, IsppProgrammer};
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::population::{CellPopulation, PopulationSnapshot};
use gnr_units::Voltage;
use proptest::prelude::*;

const CONFIG: NandConfig = NandConfig {
    blocks: 3,
    pages_per_block: 4,
    page_width: 8,
};

/// Variation delta pairs `(xto fraction, barrier eV)` cycled over the
/// cells of a varied population: few enough that the flow maps stay
/// cached, enough that equal charges of different variants must replay
/// apart.
const DELTAS: [(f64, f64); 3] = [(0.0, 0.0), (0.03, -0.04), (-0.02, 0.05)];

/// The eager reference: every read and program sweeps its exposure
/// over the rest of the block at once.
struct Eager {
    pop: CellPopulation,
    page_erased: Vec<bool>,
    bias: DisturbBias,
    programmer: IsppProgrammer,
    eraser: IsppEraser,
    batch: BatchSimulator,
}

impl Eager {
    fn new(pop: CellPopulation) -> Self {
        Self {
            pop,
            page_erased: vec![true; CONFIG.pages()],
            bias: DisturbBias::default(),
            programmer: IsppProgrammer::nominal(),
            eraser: IsppEraser::nominal(),
            batch: BatchSimulator::new(),
        }
    }

    fn base(block: usize, page: usize) -> usize {
        (block * CONFIG.pages_per_block + page) * CONFIG.page_width
    }

    fn sweep(&mut self, block: usize, page: usize, program: bool) {
        let others: Vec<usize> = (0..CONFIG.pages_per_block)
            .filter(|&p| p != page)
            .flat_map(|p| Self::base(block, p)..Self::base(block, p) + CONFIG.page_width)
            .collect();
        let (vgs, duration) = self.bias.exposure(program);
        self.pop.apply_disturb_cells(&others, vgs, duration, 1);
    }

    /// `None` when the page is not erased (the array refuses it), else
    /// the first verify failure, as the array reports it.
    fn program(&mut self, block: usize, page: usize, bits: &[bool]) -> Option<Result<(), String>> {
        let slot = block * CONFIG.pages_per_block + page;
        if !self.page_erased[slot] {
            return None;
        }
        let base = Self::base(block, page);
        let selected: Vec<usize> = (0..CONFIG.page_width)
            .filter(|&c| !bits[c])
            .map(|c| base + c)
            .collect();
        let reports = self
            .pop
            .program_cells(&self.programmer, &selected, &self.batch);
        self.page_erased[slot] = false;
        self.sweep(block, page, true);
        let failure = reports.iter().find_map(|r| r.as_ref().err());
        Some(failure.map_or(Ok(()), |e| Err(e.to_string())))
    }

    fn read(&mut self, block: usize, page: usize) -> Vec<bool> {
        let base = Self::base(block, page);
        let bits = (base..base + CONFIG.page_width)
            .map(|i| self.pop.read(i).unwrap() == LogicState::Erased1)
            .collect();
        self.sweep(block, page, false);
        bits
    }

    /// The first erase failure, as the array reports it.
    fn erase(&mut self, block: usize) -> Result<(), String> {
        let base = Self::base(block, 0);
        let cells: Vec<usize> = (base..Self::base(block + 1, 0)).collect();
        let failure = self
            .pop
            .erase_block_cells(&self.eraser, Voltage::from_volts(0.3), &cells, &self.batch)
            .iter()
            .find_map(|r| r.as_ref().err().cloned());
        if let Some(e) = failure {
            return Err(e.to_string());
        }
        let first = block * CONFIG.pages_per_block;
        self.page_erased[first..first + CONFIG.pages_per_block].fill(true);
        Ok(())
    }
}

/// A population of `backend`, with the cells cycling through
/// [`DELTAS`] when `varied`.
fn population(kind: BackendKind, varied: bool) -> CellPopulation {
    let mut pop = CellPopulation::uniform_backend(&CellBackend::preset(kind), CONFIG.cells());
    if varied {
        for i in 0..CONFIG.cells() {
            let (xto, barrier) = DELTAS[i % DELTAS.len()];
            pop.set_cell_variation(i, xto, barrier)
                .expect("floating-gate variation");
        }
    }
    pop
}

/// The configurations every sequence runs on: GNR and CNT with and
/// without variation, and PCM (which carries none).
const CASES: [(BackendKind, bool); 5] = [
    (BackendKind::GnrFloatingGate, false),
    (BackendKind::GnrFloatingGate, true),
    (BackendKind::CntFloatingGate, false),
    (BackendKind::CntFloatingGate, true),
    (BackendKind::PcmResistive, false),
];

/// One command of a random sequence, decoded from a `u64`.
#[derive(Debug, Clone)]
enum Command {
    Program(usize, usize, Vec<bool>),
    Read(usize, usize),
    Erase(usize),
    ProgramMulti(Vec<(usize, usize, Vec<bool>)>),
    ReadMulti(Vec<(usize, usize)>),
    EraseMulti(Vec<usize>),
}

fn decode(code: u64) -> Command {
    let block = (code >> 8) as usize % CONFIG.blocks;
    let page = (code >> 16) as usize % CONFIG.pages_per_block;
    let bits = |salt: u64| -> Vec<bool> {
        (0..CONFIG.page_width)
            .map(|c| (code.rotate_left(salt as u32) >> (24 + c)) & 1 == 1)
            .collect()
    };
    // Two distinct blocks for the multi-block forms.
    let other = (block + 1 + (code >> 40) as usize % (CONFIG.blocks - 1)) % CONFIG.blocks;
    let other_page = (code >> 48) as usize % CONFIG.pages_per_block;
    // Reads dominate, as on a real device, so logs grow long.
    match code % 16 {
        0..=2 => Command::Program(block, page, bits(0)),
        3..=9 => Command::Read(block, page),
        10 => Command::Erase(block),
        11 | 12 => {
            Command::ProgramMulti(vec![(block, page, bits(0)), (other, other_page, bits(7))])
        }
        13 | 14 => Command::ReadMulti(vec![(block, page), (other, other_page)]),
        _ => Command::EraseMulti(vec![block, other]),
    }
}

/// What one command shows from outside — sensed bits and per-page or
/// per-block outcomes — run on the eager reference.
fn eager_apply(eager: &mut Eager, command: &Command) -> Vec<String> {
    match command {
        Command::Program(block, page, bits) => {
            vec![format!("{:?}", eager.program(*block, *page, bits))]
        }
        Command::Read(block, page) => vec![format!("{:?}", eager.read(*block, *page))],
        Command::Erase(block) => vec![format!("{:?}", eager.erase(*block))],
        Command::ProgramMulti(jobs) => jobs
            .iter()
            .map(|(block, page, bits)| format!("{:?}", eager.program(*block, *page, bits)))
            .collect(),
        Command::ReadMulti(pages) => pages
            .iter()
            .map(|&(block, page)| format!("{:?}", eager.read(block, page)))
            .collect(),
        Command::EraseMulti(blocks) => blocks
            .iter()
            .map(|&block| format!("{:?}", eager.erase(block)))
            .collect(),
    }
}

/// [`eager_apply`] on the ledger array.
fn ledger_apply(array: &mut NandArray, command: &Command) -> Vec<String> {
    let erased = |r: gnr_flash_array::Result<()>| format!("{:?}", r.map_err(|e| e.to_string()));
    match command {
        Command::Program(block, page, bits) => {
            vec![format!(
                "{:?}",
                outcome(&array.program_page(*block, *page, bits))
            )]
        }
        Command::Read(block, page) => {
            vec![format!("{:?}", array.read_page(*block, *page).unwrap())]
        }
        Command::Erase(block) => vec![erased(array.erase_block(*block))],
        Command::ProgramMulti(jobs) => {
            let refs: Vec<(usize, usize, &[bool])> = jobs
                .iter()
                .map(|(b, p, bits)| (*b, *p, &bits[..]))
                .collect();
            array
                .program_pages_multi(&refs)
                .iter()
                .map(|r| format!("{:?}", outcome(r)))
                .collect()
        }
        Command::ReadMulti(pages) => array
            .read_pages_multi(pages)
            .into_iter()
            .map(|r| format!("{:?}", r.unwrap()))
            .collect(),
        Command::EraseMulti(blocks) => array
            .erase_blocks_multi(blocks)
            .into_iter()
            .map(erased)
            .collect(),
    }
}

/// `None` when `f` panicked.
fn observe(f: impl FnOnce() -> Vec<String>) -> Option<Vec<String>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Runs `commands` on a ledger array and the eager reference. After
/// each command both must have shown the same, no log may exceed its
/// bound, and the ledger's views must match the reference. Some
/// command histories drive cells out of the engine's range, where a
/// program or erase panics; both paths must then panic at the same
/// command, and the run stops there. Returns `false` when it stopped.
fn run(array: &mut NandArray, eager: &mut Eager, commands: &[Command], context: &str) -> bool {
    for (k, command) in commands.iter().enumerate() {
        let want = observe(|| eager_apply(eager, command));
        let got = observe(|| ledger_apply(array, command));
        assert_eq!(got, want, "{context}, command {k}: {command:?}");
        if want.is_none() {
            return false;
        }
        for block in 0..CONFIG.blocks {
            assert!(
                array.disturb_log_len(block) <= array.disturb_log_bound(),
                "{context}, command {k}: block {block} log {} past bound {}",
                array.disturb_log_len(block),
                array.disturb_log_bound()
            );
        }
        check_settled(array.clone(), eager, &format!("{context}, command {k}"));
    }
    true
}

/// A program result in [`Eager::program`]'s terms.
fn outcome(result: &gnr_flash_array::Result<()>) -> Option<Result<(), String>> {
    match result {
        Err(gnr_flash_array::ArrayError::PageNotErased { .. }) => None,
        Err(e) => Some(Err(e.to_string())),
        Ok(()) => Some(Ok(())),
    }
}

/// The bit pattern of `x`, with every NaN as one: runaway disturb on
/// the CNT cell can reach NaN, and the bits of a NaN are not part of a
/// float result (the compiler may commute `a + b`, and with it which
/// NaN operand's payload survives).
fn bits_of(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn bits(column: &[f64]) -> Vec<u64> {
    column.iter().copied().map(bits_of).collect()
}

/// Every column of a population snapshot, floats as bit patterns.
fn columns(snapshot: &PopulationSnapshot) -> [Vec<u64>; 6] {
    [
        bits(&snapshot.charge),
        bits(&snapshot.injected_charge),
        snapshot.program_ops.clone(),
        snapshot.erase_ops.clone(),
        bits(&snapshot.xto_delta),
        bits(&snapshot.barrier_delta_ev),
    ]
}

/// Everything every `cell()` view holds, floats as bit patterns.
fn cell_views(array: &NandArray) -> Vec<(u64, u64, u64, u64)> {
    (0..CONFIG.blocks)
        .flat_map(|b| (0..CONFIG.pages_per_block).map(move |p| (b, p)))
        .flat_map(|(b, p)| (0..CONFIG.page_width).map(move |c| (b, p, c)))
        .map(|(b, p, c)| {
            let cell = array.cell(b, p, c).unwrap();
            let stats = cell.stats();
            (
                bits_of(cell.charge().as_coulombs()),
                bits_of(stats.injected_charge),
                stats.program_ops,
                stats.erase_ops,
            )
        })
        .collect()
}

/// The views before `settle()` equal the views after it, and the
/// settled population equals the eager reference bitwise.
fn check_settled(mut array: NandArray, eager: &Eager, context: &str) {
    let digest = array.state_digest();
    let snapshot = array.snapshot_state();
    let cells = cell_views(&array);
    let reference = columns(&eager.pop.snapshot());
    assert_eq!(
        columns(&snapshot.population),
        reference,
        "{context}: unsettled snapshot vs eager"
    );
    let logs: Vec<usize> = (0..CONFIG.blocks)
        .map(|b| array.disturb_log_len(b))
        .collect();
    let view = array.settled_population();
    assert_eq!(
        matches!(view, Cow::Borrowed(_)),
        array.is_settled(),
        "{context}: the view copies exactly when disturb is pending"
    );
    assert_eq!(
        columns(&view.snapshot()),
        reference,
        "{context}: settled view vs eager"
    );
    drop(view);
    let logs_after: Vec<usize> = (0..CONFIG.blocks)
        .map(|b| array.disturb_log_len(b))
        .collect();
    assert_eq!(logs_after, logs, "{context}: the view moved a log");

    array.settle();
    assert!(array.is_settled());
    assert_eq!(
        columns(&array.population().snapshot()),
        reference,
        "{context}: settled population vs eager"
    );
    assert_eq!(array.state_digest(), digest, "{context}: digest moved");
    let settled = array.snapshot_state();
    assert_eq!(columns(&settled.population), columns(&snapshot.population));
    assert_eq!(
        (settled.page_erased, settled.erase_count),
        (snapshot.page_erased, snapshot.erase_count),
        "{context}: snapshot moved"
    );
    assert_eq!(cell_views(&array), cells, "{context}: cell views moved");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random command sequences: identical bits, identical settled
    /// state, views that do not move under `settle()`.
    #[test]
    fn ledger_matches_the_eager_sweep(codes in proptest::collection::vec(0u64..u64::MAX, 24..72)) {
        let commands: Vec<Command> = codes.into_iter().map(decode).collect();
        for (kind, varied) in CASES {
            let context = format!("{} varied={varied}", kind.name());
            let mut array = NandArray::with_population(CONFIG, population(kind, varied));
            let mut eager = Eager::new(population(kind, varied));
            run(&mut array, &mut eager, &commands, &context);
        }
    }
}

/// A read hammer of ten times the log bound on one page: the block is
/// settled whole each time its log fills, so the log never exceeds the
/// bound, and the sibling pages end bit-identical to the eager sweep.
#[test]
fn read_hammer_stays_within_the_log_bound() {
    for (kind, varied) in CASES {
        let mut array = NandArray::with_population(CONFIG, population(kind, varied));
        let mut eager = Eager::new(population(kind, varied));
        let pattern: Vec<bool> = (0..CONFIG.page_width).map(|c| c % 3 == 0).collect();
        let mut commands = vec![
            Command::Program(1, 0, pattern.clone()),
            Command::Program(1, 2, pattern),
        ];
        let hammer = 10 * array.disturb_log_bound();
        commands.extend((0..hammer).map(|_| Command::Read(1, 0)));
        let mut peak = 0;
        for command in &commands {
            let ran = run(
                &mut array,
                &mut eager,
                std::slice::from_ref(command),
                kind.name(),
            );
            assert!(ran, "{}: the hammer left the engine's range", kind.name());
            peak = peak.max(array.disturb_log_len(1));
        }
        assert!(peak <= array.disturb_log_bound(), "peak log {peak}");
        // The log filled and emptied: the block settled on its own.
        assert!(peak + 1 >= array.disturb_log_bound(), "peak log {peak}");
        assert_eq!(array.disturb_log_len(0), 0, "untouched block logs nothing");
        check_settled(array, &eager, kind.name());
    }
}
