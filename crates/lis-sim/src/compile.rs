//! Netlist lowering: levelized programs over dense net slots.
//!
//! [`NetlistSim`](crate::NetlistSim) re-walks the topological order every
//! cycle, chasing `NetId`s through the module and allocating a scratch
//! vector per cell. For the co-simulation sweeps and the 10^5-cycle
//! schedules on the roadmap that interpretation overhead dominates wall
//! time, so this module lowers a validated [`Module`] **once** into a
//! [`NetlistProgram`] — a flat, levelized instruction stream over dense
//! net slots with every operand index pre-resolved and ROM tables baked
//! in. The JIT ([`crate::JitNetlistProgram`]) lowers that stream further
//! and executes it scalar ([`crate::JitNetlistSim`]) or over
//! **64 independent lanes per `u64` word**
//! ([`crate::JitPackedNetlistSim`]), sharing the word abstraction and
//! the ROM reads defined here.

use lis_netlist::{levelize, CellKind, CombNode, Module, NetlistError};

/// Number of independent simulation lanes in a
/// [`JitPackedNetlistSim`](crate::JitPackedNetlistSim).
pub const LANES: usize = 64;

/// One combinational instruction. Operands `a`/`b`/`c` and `dest` are
/// net-slot indices (pin order follows [`CellKind`]); for
/// [`OpCode::Rom`], `a` indexes [`NetlistProgram::roms`] instead.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Instr {
    pub(crate) op: OpCode,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) c: u32,
    pub(crate) dest: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpCode {
    And,
    Or,
    Xor,
    Nand,
    Nor,
    Xnor,
    Not,
    Buf,
    Mux,
    Rom,
}

/// A flip-flop with its pin slots pre-resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledDff {
    pub(crate) d: u32,
    pub(crate) en: u32,
    pub(crate) rst: u32,
    pub(crate) q: u32,
    pub(crate) reset_value: bool,
}

/// A ROM with address/data slots pre-resolved and contents baked in.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRom {
    pub(crate) addr: Vec<u32>,
    pub(crate) data: Vec<u32>,
    pub(crate) contents: Vec<u64>,
}

/// A [`Module`] lowered to a levelized, flat instruction stream.
///
/// The program is immutable and lane-width agnostic: the JIT lowers it
/// once and executes the result over `bool` (one scalar simulation) or
/// `u64` (one bit per lane) net slots.
#[derive(Debug, Clone)]
pub struct NetlistProgram {
    /// Number of net slots (one per module net).
    pub(crate) slots: usize,
    /// Levelized combinational stream (constants excluded — they are
    /// applied once at initialization and never change).
    pub(crate) instrs: Vec<Instr>,
    /// `instrs[level_starts[l]..level_starts[l + 1]]` is level `l`.
    pub(crate) level_starts: Vec<usize>,
    /// Constant drivers, applied at initialization.
    pub(crate) consts: Vec<(u32, bool)>,
    pub(crate) dffs: Vec<CompiledDff>,
    pub(crate) roms: Vec<CompiledRom>,
    /// `(name, bit slots)` per input port, in module order.
    pub(crate) inputs: Vec<(String, Vec<u32>)>,
    /// `(name, bit slots)` per output port, in module order.
    pub(crate) outputs: Vec<(String, Vec<u32>)>,
}

impl NetlistProgram {
    /// Lowers `module` into a levelized instruction stream.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] found while validating or levelizing
    /// the module.
    pub fn compile(module: &Module) -> Result<Self, NetlistError> {
        lis_netlist::validate(module)?;
        let lv = levelize(module)?;
        let slot = |n: lis_netlist::NetId| n.index() as u32;

        let mut instrs = Vec::new();
        let mut level_starts = vec![0usize];
        let mut consts = Vec::new();
        let mut roms = Vec::new();
        for l in 0..lv.depth() {
            for &node in lv.level(l) {
                match node {
                    CombNode::Cell(cid) => {
                        let cell = module.cell(cid);
                        // validate() does not check pin counts (Cell::new
                        // does, but the fields are public); fail as
                        // loudly as the interpreter would rather than
                        // silently reading slot 0 for a missing operand.
                        assert_eq!(
                            cell.inputs.len(),
                            cell.kind.arity(),
                            "cell {cid} ({}) expects {} inputs, got {}",
                            cell.kind,
                            cell.kind.arity(),
                            cell.inputs.len()
                        );
                        let pin = |i: usize| cell.inputs.get(i).copied().map(slot).unwrap_or(0);
                        let op = match cell.kind {
                            CellKind::And => OpCode::And,
                            CellKind::Or => OpCode::Or,
                            CellKind::Xor => OpCode::Xor,
                            CellKind::Nand => OpCode::Nand,
                            CellKind::Nor => OpCode::Nor,
                            CellKind::Xnor => OpCode::Xnor,
                            CellKind::Not => OpCode::Not,
                            CellKind::Buf => OpCode::Buf,
                            CellKind::Mux => OpCode::Mux,
                            CellKind::Const(v) => {
                                consts.push((slot(cell.output), v));
                                continue;
                            }
                            CellKind::Dff { .. } => {
                                unreachable!("levelization excludes sequential cells")
                            }
                        };
                        instrs.push(Instr {
                            op,
                            a: pin(0),
                            b: pin(1),
                            c: pin(2),
                            dest: slot(cell.output),
                        });
                    }
                    CombNode::Rom(rid) => {
                        let rom = module.rom(rid);
                        let idx = roms.len() as u32;
                        roms.push(CompiledRom {
                            addr: rom.addr.iter().copied().map(slot).collect(),
                            data: rom.data.iter().copied().map(slot).collect(),
                            contents: rom.contents.clone(),
                        });
                        instrs.push(Instr {
                            op: OpCode::Rom,
                            a: idx,
                            b: 0,
                            c: 0,
                            dest: 0,
                        });
                    }
                }
            }
            level_starts.push(instrs.len());
        }

        let dffs = module
            .cells
            .iter()
            .filter_map(|cell| match cell.kind {
                CellKind::Dff { reset_value } => Some(CompiledDff {
                    d: slot(cell.inputs[0]),
                    en: slot(cell.inputs[1]),
                    rst: slot(cell.inputs[2]),
                    q: slot(cell.output),
                    reset_value,
                }),
                _ => None,
            })
            .collect();

        let port_slots = |ports: &[lis_netlist::Port]| {
            ports
                .iter()
                .map(|p| (p.name.clone(), p.bits.iter().copied().map(slot).collect()))
                .collect()
        };

        Ok(NetlistProgram {
            slots: module.net_count(),
            instrs,
            level_starts,
            consts,
            dffs,
            roms,
            inputs: port_slots(&module.inputs),
            outputs: port_slots(&module.outputs),
        })
    }

    /// Number of combinational instructions per cycle.
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// Number of levels in the instruction stream.
    pub fn depth(&self) -> usize {
        self.level_starts.len().saturating_sub(1)
    }
}

/// The word a JIT engine evaluates over: `bool` carries one scalar
/// simulation, `u64` one bit per lane. Gate semantics are the plain
/// bitwise operators for both, which is what lets the scalar and packed
/// engines share a single run walk and flip-flop commit (`crate::jit`)
/// instead of maintaining two hand-synchronized copies.
pub(crate) trait SimWord:
    Copy
    + PartialEq
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + std::ops::Not<Output = Self>
{
    /// Broadcasts one bit to every lane of the word.
    fn splat(bit: bool) -> Self;
}

impl SimWord for bool {
    fn splat(bit: bool) -> bool {
        bit
    }
}

impl SimWord for u64 {
    fn splat(bit: bool) -> u64 {
        if bit {
            u64::MAX
        } else {
            0
        }
    }
}

/// Gathers a ROM address bit by bit via `bit_of` and returns the
/// addressed word: 0 beyond the populated contents, and 0 when any set
/// address bit lies past bit 63 (such an address can never land inside
/// a `Vec`-backed table).
pub(crate) fn rom_word(rom: &CompiledRom, mut bit_of: impl FnMut(u32) -> bool) -> u64 {
    let mut addr = 0u64;
    let mut high = false;
    for (i, &a) in rom.addr.iter().enumerate() {
        if bit_of(a) {
            if i < 64 {
                addr |= 1 << i;
            } else {
                high = true;
            }
        }
    }
    if high {
        0
    } else {
        usize::try_from(addr)
            .ok()
            .and_then(|a| rom.contents.get(a))
            .copied()
            .unwrap_or(0)
    }
}

/// Performs one packed (64-lane) ROM read through the `get`/`set` slot
/// accessors: gathers a per-lane address and scatters the per-lane word
/// back onto the data slots.
///
/// Fast path: wrapper controllers almost always drive every lane to the
/// *same* ROM address (the slice table is indexed by a shared schedule
/// counter), which makes each address slot all-zeros or all-ones. In
/// that case one table lookup serves all 64 lanes and the per-lane
/// gather/scatter loop is skipped entirely.
pub(crate) fn packed_rom_gather(
    rom: &CompiledRom,
    get: impl Fn(u32) -> u64,
    mut set: impl FnMut(u32, u64),
) {
    let shared_addr = rom.addr.iter().all(|&a| {
        let w = get(a);
        w == 0 || w == u64::MAX
    });
    if shared_addr {
        let word = rom_word(rom, |a| get(a) == u64::MAX);
        for (i, &d) in rom.data.iter().enumerate() {
            set(d, u64::splat((word >> i) & 1 == 1));
        }
        return;
    }
    let mut out = [0u64; 64];
    for lane in 0..LANES {
        let word = rom_word(rom, |a| (get(a) >> lane) & 1 == 1);
        for (i, slot) in out.iter_mut().enumerate().take(rom.data.len()) {
            *slot |= ((word >> i) & 1) << lane;
        }
    }
    for (i, &d) in rom.data.iter().enumerate() {
        set(d, out[i]);
    }
}

/// A pre-resolved reference to a module port, produced by
/// [`JitNetlistSim::input_handle`](crate::JitNetlistSim::input_handle) /
/// [`JitNetlistSim::output_handle`](crate::JitNetlistSim::output_handle)
/// (and the [`JitPackedNetlistSim`](crate::JitPackedNetlistSim)
/// equivalents). Using a handle skips the name lookup on every cycle —
/// the fast path for harnesses that drive the same ports millions of
/// times.
///
/// A handle is only meaningful on executors compiled from the same
/// module; indexing with a foreign handle panics or reads the wrong
/// port.
#[derive(Debug, Clone, Copy)]
pub struct PortHandle {
    pub(crate) index: usize,
    pub(crate) output: bool,
}

#[cfg(test)]
mod tests {
    //! The lowered program only runs through the JIT engines, so these
    //! tests drive it there: [`JitNetlistSim`] for scalar stimulus,
    //! [`JitPackedNetlistSim`] for per-lane stimulus (including both
    //! paths of [`packed_rom_gather`]), with the interpreter as oracle.
    use super::*;
    use crate::{JitNetlistSim, JitPackedNetlistSim, NetlistExec, NetlistSim};
    use lis_netlist::ModuleBuilder;

    fn adder_module() -> Module {
        let mut b = ModuleBuilder::new("add4");
        let x = b.input("x", 4);
        let y = b.input("y", 4);
        let (sum, cout) = b.add(&x, &y);
        b.output("sum", &sum);
        b.output_bit("cout", cout);
        b.finish().unwrap()
    }

    fn rom_module(contents: Vec<u64>) -> Module {
        let mut b = ModuleBuilder::new("romtest");
        let addr = b.input("addr", 3);
        let data = b.rom("r", &addr, 8, contents);
        b.output("data", &data);
        b.finish().unwrap()
    }

    #[test]
    fn compiled_adder_is_exhaustively_correct() {
        // All 256 operand pairs, 64 per packed eval.
        let mut sim = JitPackedNetlistSim::new(adder_module()).unwrap();
        for base in (0..256u64).step_by(LANES) {
            for lane in 0..LANES {
                let xy = base + lane as u64;
                sim.set_input_lane(lane, "x", xy & 0xF).unwrap();
                sim.set_input_lane(lane, "y", xy >> 4).unwrap();
            }
            sim.eval();
            for lane in 0..LANES {
                let xy = base + lane as u64;
                let (x, y) = (xy & 0xF, xy >> 4);
                assert_eq!(sim.get_output_lane(lane, "sum").unwrap(), (x + y) & 0xF);
                assert_eq!(sim.get_output_lane(lane, "cout").unwrap(), (x + y) >> 4);
            }
        }
    }

    #[test]
    fn compiled_counter_matches_interpreter() {
        let mut b = ModuleBuilder::new("cnt");
        let en = b.input("en", 1).bit(0);
        let rst = b.input("rst", 1).bit(0);
        let count = b.counter_mod(4, en, rst, 10);
        b.output("count", &count);
        let m = b.finish().unwrap();
        let mut interp = NetlistSim::new(m.clone()).unwrap();
        let mut jit = JitNetlistSim::new(m).unwrap();
        for cycle in 0..40u64 {
            let en = u64::from(cycle % 3 != 0);
            let rst = u64::from(cycle == 25);
            interp.set_input("en", en).unwrap();
            interp.set_input("rst", rst).unwrap();
            jit.set_input("en", en).unwrap();
            jit.set_input("rst", rst).unwrap();
            interp.eval();
            jit.eval();
            assert_eq!(
                interp.get_output("count").unwrap(),
                jit.get_output("count").unwrap(),
                "cycle {cycle}"
            );
            interp.step();
            jit.step();
        }
    }

    #[test]
    fn compiled_rom_reads_match_contents() {
        let mut sim = JitNetlistSim::new(rom_module(vec![10, 20, 30, 40, 50])).unwrap();
        for (a, expect) in [(0, 10), (1, 20), (4, 50), (6, 0)] {
            sim.set_input("addr", a).unwrap();
            sim.eval();
            assert_eq!(sim.get_output("data").unwrap(), expect);
        }
    }

    #[test]
    fn packed_lanes_are_independent() {
        let mut sim = JitPackedNetlistSim::new(adder_module()).unwrap();
        for lane in 0..LANES {
            sim.set_input_lane(lane, "x", lane as u64 & 0xF).unwrap();
            sim.set_input_lane(lane, "y", (lane as u64 >> 2) & 0xF)
                .unwrap();
        }
        sim.eval();
        for lane in 0..LANES {
            let x = lane as u64 & 0xF;
            let y = (lane as u64 >> 2) & 0xF;
            assert_eq!(
                sim.get_output_lane(lane, "sum").unwrap(),
                (x + y) & 0xF,
                "lane {lane}"
            );
            assert_eq!(sim.get_output_lane(lane, "cout").unwrap(), (x + y) >> 4);
        }
    }

    #[test]
    fn packed_dff_state_is_per_lane() {
        let mut b = ModuleBuilder::new("cnt");
        let en = b.input("en", 1).bit(0);
        let rst = b.input("rst", 1).bit(0);
        let count = b.counter_mod(4, en, rst, 16);
        b.output("count", &count);
        let m = b.finish().unwrap();
        let mut sim = JitPackedNetlistSim::new(m).unwrap();
        let en_h = sim.input_handle("en").unwrap();
        sim.set_input_all("rst", 0).unwrap();
        // Even lanes count every cycle, odd lanes never.
        let even = 0x5555_5555_5555_5555u64;
        sim.set_input_bit_lanes(en_h, 0, even);
        for _ in 0..5 {
            sim.step();
        }
        sim.eval();
        assert_eq!(sim.get_output_lane(0, "count").unwrap(), 5);
        assert_eq!(sim.get_output_lane(1, "count").unwrap(), 0);
        assert_eq!(sim.get_output_lane(2, "count").unwrap(), 5);
        // Reset restores every lane.
        sim.reset_state();
        sim.eval();
        assert_eq!(sim.get_output_lane(0, "count").unwrap(), 0);
    }

    #[test]
    fn packed_rom_gathers_per_lane_addresses() {
        let m = rom_module(vec![7, 14, 21, 28, 35, 42, 49, 56]);
        let mut sim = JitPackedNetlistSim::new(m).unwrap();
        for lane in 0..LANES {
            sim.set_input_lane(lane, "addr", (lane % 8) as u64).unwrap();
        }
        sim.eval();
        for lane in 0..LANES {
            assert_eq!(
                sim.get_output_lane(lane, "data").unwrap(),
                7 * ((lane % 8) as u64 + 1),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn packed_rom_shared_address_fast_path_matches_general() {
        // All lanes share one address -> the gather takes the single-
        // lookup fast path; mixed per-lane addresses take the general
        // per-lane path. Both must agree with the interpreter. Five
        // words in an 8-word address space also covers reads past the
        // populated contents on both paths.
        let m = rom_module(vec![7, 14, 21, 28, 35]);
        let mut oracle = NetlistSim::new(m.clone()).unwrap();
        let mut packed = JitPackedNetlistSim::new(m).unwrap();
        let mut expect = |a: u64| {
            oracle.set_input("addr", a).unwrap();
            oracle.eval();
            oracle.get_output("data").unwrap()
        };
        for a in 0..8u64 {
            // Shared-address: every lane drives the same address.
            packed.set_input_all("addr", a).unwrap();
            packed.eval();
            let want = expect(a);
            for lane in 0..LANES {
                assert_eq!(
                    packed.get_output_lane(lane, "data").unwrap(),
                    want,
                    "shared addr {a} lane {lane}"
                );
            }
        }
        // Mixed addresses in the same program exercise the general
        // path and must still match the interpreter lane-by-lane.
        for lane in 0..LANES {
            packed
                .set_input_lane(lane, "addr", (lane % 7) as u64)
                .unwrap();
        }
        packed.eval();
        for lane in 0..LANES {
            assert_eq!(
                packed.get_output_lane(lane, "data").unwrap(),
                expect((lane % 7) as u64),
                "mixed addr lane {lane}"
            );
        }
    }

    #[test]
    fn program_reports_levelized_shape() {
        let m = adder_module();
        let prog = NetlistProgram::compile(&m).unwrap();
        // A 4-bit ripple adder has a deep carry chain.
        assert!(prog.depth() >= 4);
        assert_eq!(prog.instr_count(), m.cell_count() - 1); // minus const
    }

    #[test]
    fn netlist_exec_broadcast_surface_on_packed() {
        let mut sim = JitPackedNetlistSim::new(adder_module()).unwrap();
        NetlistExec::set_input(&mut sim, "x", 6).unwrap();
        NetlistExec::set_input(&mut sim, "y", 7).unwrap();
        NetlistExec::eval(&mut sim);
        assert_eq!(NetlistExec::get_output(&sim, "sum").unwrap(), 13);
        assert_eq!(sim.get_output_lane(63, "sum").unwrap(), 13);
    }
}
