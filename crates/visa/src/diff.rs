//! The differential harness: runs the same image on both interpreter
//! engines and demands bit- and cycle-identical behaviour.
//!
//! This is the enforcement arm of the [`pred`](crate::pred) cycle-identity
//! contract. [`run_one`] drives a fresh [`Machine`] with one engine,
//! feeding seeded values to every `in` hypercall and recording every
//! externally visible event; [`compare`] runs both engines and diffs the
//! event streams, final architected state, full memory, virtual clock,
//! `mark` timelines, retired-instruction counts, and the memory ledger
//! that prices every later snapshot, wipe and re-arm. Any mismatch is a
//! fast-path bug, reported with enough context to reproduce
//! (`visa/tests/differential.rs` and the `diff_fuzz` binary both call
//! [`compare`]).
//!
//! [`compare_script`] does the same for a *shell lifecycle*: one machine is
//! loaded, run, snapshotted, restored in full or by dirty-page delta, poked
//! by the host, cleaned or destroyed and re-created, and handed another
//! image — the steps `kvmsim` and `wasp` put a shell through — and the two
//! engines are compared after every [`Step`]. The fast engine's block cache
//! survives all of those steps (see the retention invariant in
//! [`pred`](crate::pred)), so this is where a block that outlived the bytes
//! it was decoded from would show.

use vclock::rng::Rng;
use vclock::{Clock, Cycles};

use crate::asm::Image;
use crate::cpu::{Cpu, CpuConfig, CpuExit, CpuState, Engine, Fault, Machine};
use crate::mem::{DirtyExtent, Memory, SparseImage};

/// One externally visible event from a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `out port, value`.
    Out {
        /// Port written.
        port: u16,
        /// Value written.
        value: u64,
    },
    /// `in` satisfied with a seeded value.
    In {
        /// Port read.
        port: u16,
        /// Value supplied by the harness.
        value: u64,
    },
    /// The guest halted.
    Hlt,
    /// The step budget ran out.
    StepLimit,
    /// The guest faulted.
    Fault(Fault),
}

/// Everything observable about a finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Event stream in order.
    pub events: Vec<Event>,
    /// Final architected CPU state.
    pub state: CpuState,
    /// Final guest memory contents.
    pub mem: Vec<u8>,
    /// Final virtual clock.
    pub clock: Cycles,
    /// `mark` milestones (id, timestamp) — mid-run clock observations.
    pub marks: Vec<(u8, Cycles)>,
    /// Instructions retired.
    pub retired: u64,
    /// The memory's ledger: what the host will charge for and visit when it
    /// snapshots, wipes or re-arms this memory next.
    pub ledger: Ledger,
}

/// What [`Memory`] has recorded about the writes to it — beyond the bytes,
/// the state later virtual `memset`/`memcpy` charges are computed from. Two
/// engines that write the same bytes must leave the same ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// The dirty extents ([`Memory::dirty_extent`]).
    pub dirty: DirtyExtent,
    /// The dirty-page log ([`Memory::dirty_page_indices`]).
    pub dirty_pages: Vec<u64>,
    /// Pages out of the log that may still hold a non-zero byte.
    pub touched: Vec<u64>,
}

/// Runs `img` on a fresh machine with the given engine until halt, fault,
/// or `budget` retired instructions. Every `in` is answered from a
/// [`Rng`] seeded with `io_seed`, so two runs with the same seed see the
/// same inputs.
pub fn run_one(engine: Engine, img: &Image, mem_size: usize, budget: u64, io_seed: u64) -> Outcome {
    run_one_with(engine, img, mem_size, budget, io_seed, &[])
}

/// [`run_one`] with pre-loaded memory regions (e.g. marshalled virtine
/// arguments), written after the image and before the first instruction.
pub fn run_one_with(
    engine: Engine,
    img: &Image,
    mem_size: usize,
    budget: u64,
    io_seed: u64,
    prewrites: &[(u64, Vec<u8>)],
) -> Outcome {
    let mut shell = Shell::new(engine, mem_size, io_seed);
    shell.m.load_image(img);
    for (addr, bytes) in prewrites {
        shell
            .m
            .mem
            .write_bytes(*addr, bytes)
            .expect("prewrite must fit in guest memory");
    }
    let events = shell.drive(budget);
    shell.observe(events)
}

/// One machine plus the seeded I/O source that answers its `in`s.
struct Shell {
    m: Machine,
    engine: Engine,
    rng: Rng,
}

impl Shell {
    fn new(engine: Engine, mem_size: usize, io_seed: u64) -> Shell {
        let mut m = Machine::new(Clock::new(), CpuConfig::default(), mem_size, 0);
        m.cpu.set_engine(engine);
        Shell {
            m,
            engine,
            rng: Rng::seeded(io_seed),
        }
    }

    /// Enters the guest and runs it until halt, fault, or `budget` more
    /// retired instructions, answering every `in` from the seeded source.
    fn drive(&mut self, budget: u64) -> Vec<Event> {
        let m = &mut self.m;
        let limit = m.cpu.insts_retired() + budget;
        m.cpu.note_vmentry();
        let mut events = Vec::new();
        loop {
            let remaining = limit.saturating_sub(m.cpu.insts_retired());
            if remaining == 0 {
                events.push(Event::StepLimit);
                break;
            }
            match m.run(remaining) {
                Ok(CpuExit::Hlt) => {
                    events.push(Event::Hlt);
                    break;
                }
                Ok(CpuExit::IoOut { port, value }) => events.push(Event::Out { port, value }),
                Ok(CpuExit::IoIn { port }) => {
                    let value = self.rng.next_u64();
                    m.cpu.provide_in(value);
                    events.push(Event::In { port, value });
                }
                Ok(CpuExit::StepLimit) => {
                    events.push(Event::StepLimit);
                    break;
                }
                Err(fault) => {
                    events.push(Event::Fault(fault));
                    break;
                }
            }
        }
        events
    }

    fn observe(&self, events: Vec<Event>) -> Outcome {
        let m = &self.m;
        Outcome {
            events,
            state: m.cpu.save_state(),
            mem: m.mem.as_slice().to_vec(),
            clock: m.cpu.clock().now(),
            marks: m.cpu.marks.clone(),
            retired: m.cpu.insts_retired(),
            ledger: Ledger {
                dirty: m.mem.dirty_extent(),
                dirty_pages: m.mem.dirty_page_indices(),
                touched: m.mem.touched_page_indices(),
            },
        }
    }
}

/// Runs `img` on both engines and returns a description of the first
/// divergence, or `Ok(())` when the runs are identical in every observable
/// dimension.
pub fn compare(img: &Image, mem_size: usize, budget: u64, io_seed: u64) -> Result<(), String> {
    compare_with(img, mem_size, budget, io_seed, &[])
}

/// [`compare`] with pre-loaded memory regions applied to both machines.
pub fn compare_with(
    img: &Image,
    mem_size: usize,
    budget: u64,
    io_seed: u64,
    prewrites: &[(u64, Vec<u8>)],
) -> Result<(), String> {
    let fast = run_one_with(Engine::Fast, img, mem_size, budget, io_seed, prewrites);
    let reference = run_one_with(Engine::Reference, img, mem_size, budget, io_seed, prewrites);
    divergence(&fast, &reference).map_or(Ok(()), Err)
}

/// Describes how two outcomes differ; `None` when they are identical in
/// every observable dimension.
fn divergence(fast: &Outcome, reference: &Outcome) -> Option<String> {
    if fast == reference {
        return None;
    }
    let mut out = String::from("fast and reference engines diverged:\n");
    let mut field = |name: &str, f: &dyn std::fmt::Debug, r: &dyn std::fmt::Debug| {
        let (f, r) = (format!("{f:?}"), format!("{r:?}"));
        if f != r {
            out.push_str(&format!("  {name}:\n    fast: {f}\n    ref:  {r}\n"));
        }
    };
    field("events", &fast.events, &reference.events);
    field("state", &fast.state, &reference.state);
    field("clock", &fast.clock, &reference.clock);
    field("marks", &fast.marks, &reference.marks);
    field("retired", &fast.retired, &reference.retired);
    field("memory ledger", &fast.ledger, &reference.ledger);
    let mut bytes = fast.mem.iter().zip(&reference.mem);
    if let Some(at) = bytes.position(|(a, b)| a != b) {
        out.push_str(&format!("  memory differs first at {at}\n"));
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Shell-lifecycle scripts.

/// One step in the life of a pooled shell. The host-side steps mirror what
/// `kvmsim::VmFd` does to a vCPU and its memory, call for call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Copy image `n` of the script's image list into guest memory and
    /// point the CPU at its entry (`VmFd::load_image`).
    Load(usize),
    /// Enter the guest for at most this many more instructions.
    Run(u64),
    /// Capture the CPU state and the sparse memory image and reset the
    /// dirty-page log (`VmFd::snapshot`).
    Snapshot,
    /// Full sparse restore of snapshot `n` (`VmFd::restore`). Skipped when
    /// no snapshot `n` exists.
    Restore(usize),
    /// Dirty-page delta re-arm from the snapshot this shell was last armed
    /// from (`VmFd::restore_delta`). Skipped when there is none.
    RestoreDelta,
    /// Wipe memory and reset the vCPU to `entry`, keeping the shell's
    /// predecode cache (`VmFd::clean`).
    Clean(u64),
    /// A host write into guest memory (`VmFd::write_guest`).
    Poke(u64, Vec<u8>),
    /// Destroy the VM and create another of the same size with its reset
    /// vector at `entry` (`Hypervisor::create_vm` after a drop): the machine
    /// retires as a wiped shell with its block cache, and a new vCPU revives
    /// it, cache and all.
    Recreate(u64),
}

/// A captured snapshot: CPU state plus the sparse memory image.
struct Snap {
    cpu: CpuState,
    image: SparseImage,
}

/// Runs `steps` on one machine and returns what was observable after each.
pub fn run_script(
    engine: Engine,
    images: &[Image],
    mem_size: usize,
    steps: &[Step],
    io_seed: u64,
) -> Vec<Outcome> {
    let mut shell = Shell::new(engine, mem_size, io_seed);
    let mut snaps: Vec<Snap> = Vec::new();
    // The snapshot the dirty-page log is currently relative to.
    let mut armed: Option<usize> = None;
    let mut trace = Vec::with_capacity(steps.len());
    for step in steps {
        let mut events = Vec::new();
        let m = &mut shell.m;
        match step {
            Step::Load(n) => m.load_image(&images[*n]),
            Step::Run(budget) => events = shell.drive(*budget),
            Step::Snapshot => {
                let image = m.mem.snapshot_sparse();
                m.mem.reset_dirty_pages();
                armed = Some(snaps.len());
                snaps.push(Snap {
                    cpu: m.cpu.save_state(),
                    image,
                });
            }
            Step::Restore(n) => {
                if let Some(snap) = snaps.get(*n) {
                    m.mem.restore_sparse(&snap.image);
                    m.cpu.restore_state(&snap.cpu);
                    armed = Some(*n);
                }
            }
            Step::RestoreDelta => {
                if let Some(snap) = armed.map(|n| &snaps[n]) {
                    m.mem.restore_pages_sparse(&snap.image);
                    m.cpu.restore_state(&snap.cpu);
                }
            }
            Step::Clean(entry) => {
                m.mem.clear();
                let mut fresh = Cpu::new(m.cpu.clock().clone(), CpuConfig::default(), *entry);
                fresh.adopt_predecode(&mut m.cpu);
                fresh.set_engine(shell.engine);
                m.cpu = fresh;
                armed = None;
            }
            Step::Poke(addr, bytes) => {
                // Out-of-range pokes are refused on both engines alike.
                let _ = m.mem.write_bytes(*addr, bytes);
            }
            Step::Recreate(entry) => {
                m.mem.retire(&mut m.cpu);
                let mut cpu = Cpu::new(m.cpu.clock().clone(), CpuConfig::default(), *entry);
                cpu.set_engine(shell.engine);
                m.mem = Memory::revive(mem_size, &mut cpu);
                m.cpu = cpu;
                armed = None;
            }
        }
        trace.push(shell.observe(events));
    }
    trace
}

/// Runs `steps` on both engines and compares them after *every* step;
/// returns the fast engine's trace, or a description of the first
/// divergence.
pub fn compare_script(
    images: &[Image],
    mem_size: usize,
    steps: &[Step],
    io_seed: u64,
) -> Result<Vec<Outcome>, String> {
    let fast = run_script(Engine::Fast, images, mem_size, steps, io_seed);
    let reference = run_script(Engine::Reference, images, mem_size, steps, io_seed);
    for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
        if let Some(report) = divergence(f, r) {
            return Err(format!(
                "after step {i} ({:?}) of {steps:?}:\n{report}",
                steps[i]
            ));
        }
    }
    Ok(fast)
}

/// A seeded random lifecycle over `images` (all linked at the same base):
/// load, run to a snapshot point, run on, then a shuffle of moves that each
/// start by re-arming the shell — so the run that follows executes real
/// code, not whatever lies past the last `hlt` — and then run with a budget
/// that may stop anywhere: a plain full or delta restore; a host poke into
/// the code just re-armed (random bytes, or the other image's bytes at that
/// offset), which the next move's restore must undo; a later re-snapshot;
/// a clean — or a destroy and re-create, which revives the retired shell and
/// its block cache — that hands the shell to another image.
pub fn random_script(rng: &mut Rng, images: &[Image]) -> Vec<Step> {
    // Log-uniform budgets: most runs stop mid-program, a few reach its end.
    let run = |rng: &mut Rng| {
        let cap = 2 << rng.below(10);
        Step::Run(rng.range_u64(1, cap))
    };
    // The first snapshot point lies just past the three-instruction prologue.
    let first = Step::Run(rng.range_u64(3, 24));
    let mut steps = vec![Step::Load(0), first, Step::Snapshot, run(rng)];
    let mut snapshots = 1;
    for _ in 0..rng.range_u64(3, 9) {
        let kind = rng.below(10);
        if kind < 9 {
            steps.push(if rng.bool(0.5) {
                Step::RestoreDelta
            } else {
                Step::Restore(rng.below(snapshots))
            });
        }
        match kind {
            0..=3 => {}
            4..=6 => {
                let (img, other) = (&images[0], &images[images.len() - 1]);
                let at = rng.below(img.bytes.len());
                // Mostly single bytes: those tend to land in an immediate
                // or register field and leave a *valid, different* stream,
                // which is what a stale block would get wrong.
                let len = if rng.bool(0.7) {
                    1
                } else {
                    rng.range_u64(2, 17) as usize
                };
                let bytes = match other.bytes.get(at..at + len) {
                    Some(theirs) if rng.bool(0.5) => theirs.to_vec(),
                    _ => rng.bytes(len),
                };
                steps.push(Step::Poke(img.base + at as u64, bytes));
            }
            7..=8 => {
                steps.push(run(rng));
                steps.push(Step::Snapshot);
                snapshots += 1;
            }
            _ => {
                let n = rng.below(images.len());
                steps.push(if rng.bool(0.5) {
                    Step::Clean(images[n].entry)
                } else {
                    Step::Recreate(images[n].entry)
                });
                steps.push(Step::Load(n));
                steps.push(run(rng));
                steps.push(Step::Snapshot);
                snapshots += 1;
            }
        }
        steps.push(run(rng));
    }
    steps
}
