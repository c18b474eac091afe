//! The lane-batched gate-level patient process: one
//! [`JitPackedNetlistSim`] executes up to [`LANES`] independent scenario
//! lanes of the *same* shell — controller and port FIFOs, as assembled
//! by [`crate::assemble_full_wrapper`] — with a single bitwise
//! instruction stream shared by every lane. Each lane keeps its own
//! behavioural pearl and schedule position, so lane `k` is
//! bit-identical to a solo [`crate::FullNetlistPatientProcess`] driven
//! by the same traffic.
//!
//! The harness speaks [`PackedLisChannel`]s: the channel's bit-planes
//! are exactly the shell's lane-words, so tokens move between the
//! packed plumbing and the packed netlist as whole 64-lane words — no
//! per-lane scatter/gather at the shell boundary. This is the engine
//! behind scenario fleets: a fleet batch pays for the expensive
//! gate-level shells *and* the channel plumbing once per node, not once
//! per node × scenario.
//!
//! Pearl values cross the shell boundary as bit planes too: the
//! `pearl_out` registers are kept as per-port planes, updated by XOR of
//! the changed bits whenever a lane's pearl clocks or a lane is loaded,
//! and each `pearl_in` port is read back with one 64×64 bit-matrix
//! transpose.

use crate::fifo_netlist::assemble_full_wrapper;
use lis_netlist::Module;
use lis_proto::{PackedLisChannel, Pearl, PortValues, ViolationCounter};
use lis_schedule::IoSchedule;
use lis_sim::{
    Activity, Component, JitPackedNetlistSim, PortHandle, Ports, SignalView, System, LANES,
};

/// Transposes a 64×64 bit matrix in place: afterwards bit `c` of
/// `m[r]` is what bit `r` of `m[c]` was. Turns 64 bit planes into 64
/// per-lane words and back.
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_FFFF_FFFF_u64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            // Swap the high `j` columns of row k with the low `j`
            // columns of row k + j, inside every j-aligned block.
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// A patient process whose gate-level shell executes up to [`LANES`]
/// scenario lanes in one packed netlist, wired to packed channels.
///
/// All lanes share one JIT-lowered shell program; per-lane state is the
/// packed flip-flop words plus one pearl, schedule position and
/// deferred `pearl_out` register set per lane. Unused lanes (when fewer
/// than [`LANES`] scenarios are batched) are held in reset so they stay
/// quiescent and never disturb [`Activity`] reporting.
pub struct PackedFullNetlistPatientProcess {
    name: String,
    /// One pearl per lane; all share interface and schedule shape.
    pearls: Vec<Box<dyn Pearl>>,
    shell: JitPackedNetlistSim,
    h_rst: PortHandle,
    h_enable: PortHandle,
    h_in_data: Vec<PortHandle>,
    h_in_void: Vec<PortHandle>,
    h_in_stop: Vec<PortHandle>,
    h_pearl_in: Vec<PortHandle>,
    h_pearl_out: Vec<PortHandle>,
    h_out_stop: Vec<PortHandle>,
    h_out_data: Vec<PortHandle>,
    h_out_void: Vec<PortHandle>,
    in_widths: Vec<usize>,
    out_widths: Vec<usize>,
    /// The schedule every lane follows: one controller ROM serves all
    /// lanes, so the constructor demands identical schedules.
    schedule: IoSchedule,
    /// Schedule position per lane (lanes diverge under different
    /// back-pressure).
    schedule_steps: Vec<usize>,
    /// One packed channel per pearl input port.
    in_channels: Vec<PackedLisChannel>,
    /// One packed channel per pearl output port.
    out_channels: Vec<PackedLisChannel>,
    /// Pearl outputs presented on `pearl_out*`, per lane.
    pearl_out: Vec<Vec<u64>>,
    /// `pearl_out` as bit planes, per port: bit `k` of
    /// `pearl_out_planes[o][b]` is bit `b` of `pearl_out[k][o]`.
    pearl_out_planes: Vec<[u64; LANES]>,
    /// `pearl_out_planes` changed since they were last driven.
    pearl_out_dirty: bool,
    /// Per-lane `pearl_in` values, per port (transpose scratch).
    pearl_in: Vec<[u64; LANES]>,
    /// Input and output frames reused across pearl clocks.
    pearl_inputs: PortValues,
    pearl_outputs: PortValues,
    /// Lanes whose pearl has been clocked this cycle (same one-shot
    /// latch as the scalar harness, one bit per lane).
    clocked_mask: u64,
    /// Bit set for every populated lane; the complement is held in
    /// reset.
    active_mask: u64,
    /// Per-lane violation counters (reserved for shell-level checks,
    /// mirroring the scalar harness).
    violations: Vec<ViolationCounter>,
}

impl std::fmt::Debug for PackedFullNetlistPatientProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedFullNetlistPatientProcess")
            .field("name", &self.name)
            .field("shell", &self.shell.module().name)
            .field("lanes", &self.pearls.len())
            .finish()
    }
}

impl PackedFullNetlistPatientProcess {
    /// Builds the shared shell for `pearls` (one behavioural pearl per
    /// lane) and wires it to one packed channel per port.
    ///
    /// # Panics
    ///
    /// Panics if there are zero or more than [`LANES`] pearls, if the
    /// pearls disagree on interface shape, if the channel or
    /// violation-counter counts mismatch, or if the assembled shell
    /// fails validation.
    pub fn new(
        name: impl Into<String>,
        pearls: Vec<Box<dyn Pearl>>,
        controller: Module,
        in_channels: Vec<PackedLisChannel>,
        out_channels: Vec<PackedLisChannel>,
        violations: Vec<ViolationCounter>,
    ) -> Self {
        let lanes = pearls.len();
        assert!(
            (1..=LANES).contains(&lanes),
            "a packed harness batches 1..={LANES} lanes, got {lanes}"
        );
        assert_eq!(violations.len(), lanes, "one violation counter per lane");
        let iface = pearls[0].interface();
        let in_widths: Vec<usize> = iface.inputs().map(|p| p.width as usize).collect();
        let out_widths: Vec<usize> = iface.outputs().map(|p| p.width as usize).collect();
        assert!(
            in_widths.iter().chain(&out_widths).all(|&w| w <= 64),
            "pearl ports carry at most 64 bits"
        );
        let schedule = pearls[0].schedule().clone();
        for pearl in &pearls[1..] {
            let iw: Vec<usize> = pearl
                .interface()
                .inputs()
                .map(|p| p.width as usize)
                .collect();
            let ow: Vec<usize> = pearl
                .interface()
                .outputs()
                .map(|p| p.width as usize)
                .collect();
            assert_eq!(
                iw, in_widths,
                "all lanes must share the pearl input interface"
            );
            assert_eq!(
                ow, out_widths,
                "all lanes must share the pearl output interface"
            );
            assert!(
                *pearl.schedule() == schedule,
                "all lanes must share one schedule: one controller ROM serves every lane"
            );
        }
        assert_eq!(in_channels.len(), in_widths.len(), "one channel per input");
        assert_eq!(
            out_channels.len(),
            out_widths.len(),
            "one channel per output"
        );
        for (ch, &w) in in_channels.iter().zip(&in_widths) {
            assert_eq!(ch.width as usize, w, "input channel width");
        }
        for (ch, &w) in out_channels.iter().zip(&out_widths) {
            assert_eq!(ch.width as usize, w, "output channel width");
        }
        let full = assemble_full_wrapper(&controller, &in_widths, &out_widths)
            .expect("full wrapper must assemble");
        let n_out = out_widths.len();
        let shell = JitPackedNetlistSim::new(full).expect("full wrapper must validate");
        let in_h = |name: String| shell.input_handle(&name).expect("shell port");
        let out_h = |name: String| shell.output_handle(&name).expect("shell port");
        let h_rst = in_h("rst".into());
        let h_enable = out_h("enable".into());
        let h_in_data = (0..in_widths.len())
            .map(|i| in_h(format!("in{i}_data")))
            .collect();
        let h_in_void = (0..in_widths.len())
            .map(|i| in_h(format!("in{i}_void")))
            .collect();
        let h_in_stop = (0..in_widths.len())
            .map(|i| out_h(format!("in{i}_stop")))
            .collect();
        let h_pearl_in = (0..in_widths.len())
            .map(|i| out_h(format!("pearl_in{i}")))
            .collect();
        let h_pearl_out = (0..n_out).map(|o| in_h(format!("pearl_out{o}"))).collect();
        let h_out_stop = (0..n_out).map(|o| in_h(format!("out{o}_stop"))).collect();
        let h_out_data = (0..n_out).map(|o| out_h(format!("out{o}_data"))).collect();
        let h_out_void = (0..n_out).map(|o| out_h(format!("out{o}_void"))).collect();
        let active_mask = if lanes == LANES {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        PackedFullNetlistPatientProcess {
            name: name.into(),
            pearls,
            shell,
            h_rst,
            h_enable,
            h_in_data,
            h_in_void,
            h_in_stop,
            h_pearl_in,
            h_pearl_out,
            h_out_stop,
            h_out_data,
            h_out_void,
            pearl_in: vec![[0; LANES]; in_widths.len()],
            pearl_inputs: PortValues::empty(in_widths.len()),
            pearl_outputs: PortValues::empty(n_out),
            in_widths,
            out_widths,
            schedule,
            schedule_steps: vec![0; lanes],
            in_channels,
            out_channels,
            pearl_out: vec![vec![0; n_out]; lanes],
            pearl_out_planes: vec![[0; LANES]; n_out],
            pearl_out_dirty: true,
            clocked_mask: 0,
            active_mask,
            violations,
        }
    }

    /// Number of populated lanes.
    pub fn lanes(&self) -> usize {
        self.pearls.len()
    }

    /// Sets lane `lane`'s `pearl_out` register for `port`, flipping
    /// just the plane bits that change.
    fn set_pearl_out(&mut self, lane: usize, port: usize, value: u64) {
        let mut diff = self.pearl_out[lane][port] ^ value;
        self.pearl_out[lane][port] = value;
        self.pearl_out_dirty |= diff != 0;
        let planes = &mut self.pearl_out_planes[port];
        while diff != 0 {
            planes[diff.trailing_zeros() as usize] ^= 1 << lane;
            diff &= diff - 1;
        }
    }

    /// Rebuilds every `pearl_out` plane from the per-lane registers.
    fn rebuild_pearl_out_planes(&mut self) {
        for (o, planes) in self.pearl_out_planes.iter_mut().enumerate() {
            *planes = [0; LANES];
            for (lane, regs) in self.pearl_out.iter().enumerate() {
                planes[lane] = regs[o];
            }
            transpose64(planes);
        }
        self.pearl_out_dirty = true;
    }

    fn drive_shell_inputs(&mut self, sigs: &SignalView<'_>) {
        // Unpopulated lanes stay under reset forever: their flip-flops
        // never move, so they cannot pollute `step_changed`.
        self.shell
            .set_input_bit_lanes(self.h_rst, 0, !self.active_mask);
        for (i, ch) in self.in_channels.iter().enumerate() {
            // The channel's bit-planes ARE the shell's lane-words.
            for (bit, &plane) in ch.data.iter().enumerate() {
                self.shell
                    .set_input_bit_lanes(self.h_in_data[i], bit, sigs.get(plane));
            }
            let void = ch.read_void(sigs) | !self.active_mask;
            self.shell.set_input_bit_lanes(self.h_in_void[i], 0, void);
        }
        for (o, ch) in self.out_channels.iter().enumerate() {
            // Idle lanes see permanent back-pressure as well as reset.
            let stop = ch.read_stop(sigs) | !self.active_mask;
            self.shell.set_input_bit_lanes(self.h_out_stop[o], 0, stop);
        }
        if self.pearl_out_dirty {
            self.pearl_out_dirty = false;
            for (o, &width) in self.out_widths.iter().enumerate() {
                for (bit, &plane) in self.pearl_out_planes[o][..width].iter().enumerate() {
                    self.shell
                        .set_input_bit_lanes(self.h_pearl_out[o], bit, plane);
                }
            }
        }
    }

    /// Clocks each lane's pearl at most once per cycle, exactly when
    /// that lane's shell raises `enable` — the packed twin of the
    /// scalar harness's one-shot latch. Lanes the shell has not enabled
    /// stay pending and are re-examined on the next settle sweep.
    fn maybe_clock_pearls(&mut self) {
        let pending = !self.clocked_mask & self.active_mask;
        if pending == 0 {
            return;
        }
        self.shell.eval();
        let enabled = self.shell.get_output_bit_lanes(self.h_enable, 0) & pending;
        // Per-lane `pearl_in` values come from one transpose per port,
        // made the first time an enabled lane reads that port.
        let mut transposed = 0u64;
        let period = self.schedule.period();
        let mut lanes = enabled;
        while lanes != 0 {
            let lane = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let step = self.schedule_steps[lane];
            let io = self.schedule.steps()[step];
            self.pearl_inputs.clear();
            for port in io.reads.iter() {
                if transposed >> port & 1 == 0 {
                    transposed |= 1 << port;
                    let planes = &mut self.pearl_in[port];
                    let (live, rest) = planes.split_at_mut(self.in_widths[port]);
                    for (bit, plane) in live.iter_mut().enumerate() {
                        *plane = self.shell.get_output_bit_lanes(self.h_pearl_in[port], bit);
                    }
                    rest.fill(0);
                    transpose64(planes);
                }
                self.pearl_inputs.set(port, self.pearl_in[port][lane]);
            }
            self.pearls[lane].clock_into(&self.pearl_inputs, &mut self.pearl_outputs);
            for port in 0..self.pearl_outputs.len() {
                if let Some(value) = self.pearl_outputs.get(port) {
                    self.set_pearl_out(lane, port, value);
                }
            }
            self.schedule_steps[lane] = if step + 1 == period { 0 } else { step + 1 };
        }
        self.clocked_mask |= enabled;
    }
}

impl Component for PackedFullNetlistPatientProcess {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        let mut p = Ports::none();
        for ch in &self.in_channels {
            p = p.merge(ch.consumer_ports()).merge(ch.downstream_reads());
        }
        for ch in &self.out_channels {
            p = p.merge(ch.producer_ports()).merge(ch.stop_reads());
        }
        p
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        self.drive_shell_inputs(sigs);
        self.maybe_clock_pearls();
        self.shell.eval();
        for (i, h) in self.h_in_stop.iter().enumerate() {
            let stops = self.shell.get_output_bit_lanes(*h, 0) | !self.active_mask;
            self.in_channels[i].write_stop(sigs, stops);
        }
        for (o, h) in self.h_out_data.iter().enumerate() {
            let voids = self.shell.get_output_bit_lanes(self.h_out_void[o], 0) | !self.active_mask;
            let ch = &self.out_channels[o];
            // Void lanes drive zeroed data, exactly as the scalar
            // harness's `Token::Void.to_wires()` does.
            for (bit, &plane) in ch.data.iter().enumerate() {
                let word = self.shell.get_output_bit_lanes(*h, bit) & !voids;
                sigs.set(plane, word);
            }
            sigs.set(ch.void, voids);
        }
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        self.drive_shell_inputs(sigs);
        self.maybe_clock_pearls();
        let ff_changed = self.shell.step_changed();
        let pearl_clocked = self.clocked_mask != 0;
        self.clocked_mask = 0;
        let _ = &self.violations; // reserved, as in the scalar harness
                                  // Quiescence is a whole-batch property: the shared shell sleeps
                                  // only when *no* lane's flip-flops moved and no pearl clocked.
                                  // Individual idle lanes still produce bit-identical streams —
                                  // re-evaluating them on unchanged signals changes nothing.
        Activity::from_changed(ff_changed || pearl_clocked)
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.lanes() as u64);
        let dffs = self.shell.dff_state();
        out.push(dffs.len() as u64);
        out.extend(dffs.iter().copied());
        for lane in 0..self.lanes() {
            out.push(self.schedule_steps[lane] as u64);
            out.extend(self.pearl_out[lane].iter().copied());
            let mut pearl = Vec::new();
            self.pearls[lane].save_state(&mut pearl);
            out.push(pearl.len() as u64);
            out.extend(pearl);
        }
    }

    fn load_state(&mut self, data: &[u64]) {
        assert_eq!(data[0] as usize, self.lanes(), "checkpoint lane count");
        let n_dffs = data[1] as usize;
        self.shell.set_dff_state(&data[2..2 + n_dffs]);
        let mut at = 2 + n_dffs;
        let n_out = self.out_widths.len();
        for lane in 0..self.lanes() {
            self.schedule_steps[lane] = data[at] as usize % self.schedule.period();
            self.pearl_out[lane].copy_from_slice(&data[at + 1..at + 1 + n_out]);
            let n_pearl = data[at + 1 + n_out] as usize;
            self.pearls[lane].load_state(&data[at + 2 + n_out..at + 2 + n_out + n_pearl]);
            at += 2 + n_out + n_pearl;
        }
        self.rebuild_pearl_out_planes();
        self.clocked_mask = 0;
    }

    fn save_lane_state(&self, lane: usize, out: &mut Vec<u64>) {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        // Bit `lane` of every flip-flop plane, packed 64 per word.
        let dffs = self.shell.dff_state();
        let mut packed = vec![0u64; dffs.len().div_ceil(64)];
        for (i, &plane) in dffs.iter().enumerate() {
            packed[i / 64] |= ((plane >> lane) & 1) << (i % 64);
        }
        out.extend(packed);
        out.push(self.schedule_steps[lane] as u64);
        out.extend(self.pearl_out[lane].iter().copied());
        let mut pearl = Vec::new();
        self.pearls[lane].save_state(&mut pearl);
        out.push(pearl.len() as u64);
        out.extend(pearl);
    }

    fn load_lane_state(&mut self, lane: usize, data: &[u64]) {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        let mut dffs = self.shell.dff_state().to_vec();
        let bit = 1u64 << lane;
        for (i, plane) in dffs.iter_mut().enumerate() {
            if data[i / 64] >> (i % 64) & 1 != 0 {
                *plane |= bit;
            } else {
                *plane &= !bit;
            }
        }
        let mut at = dffs.len().div_ceil(64);
        self.shell.set_dff_state(&dffs);
        self.schedule_steps[lane] = data[at] as usize % self.schedule.period();
        for (port, &value) in data[at + 1..at + 1 + self.out_widths.len()]
            .iter()
            .enumerate()
        {
            self.set_pearl_out(lane, port, value);
        }
        at += 1 + self.out_widths.len();
        let n_pearl = data[at] as usize;
        self.pearls[lane].load_state(&data[at + 1..at + 1 + n_pearl]);
        self.clocked_mask &= !bit;
    }
}

/// Wires a lane-batched gate-level patient process into `system`,
/// mirroring [`crate::wrap_pearl_full_netlist`] with one *packed*
/// channel per pearl port (named `{name}_{port}`).
///
/// Returns the `(input, output)` packed channel sets, indexed by port.
///
/// # Panics
///
/// Panics on the same conditions as
/// [`PackedFullNetlistPatientProcess::new`].
pub fn wrap_pearls_packed_full_netlist(
    system: &mut System,
    name: &str,
    pearls: Vec<Box<dyn Pearl>>,
    controller: Module,
    violations: &[ViolationCounter],
) -> (Vec<PackedLisChannel>, Vec<PackedLisChannel>) {
    let iface = pearls[0].interface();
    let ins: Vec<PackedLisChannel> = iface
        .inputs()
        .map(|p| PackedLisChannel::new(system, &format!("{name}_{}", p.name), p.width))
        .collect();
    let outs: Vec<PackedLisChannel> = iface
        .outputs()
        .map(|p| PackedLisChannel::new(system, &format!("{name}_{}", p.name), p.width))
        .collect();
    let pp = PackedFullNetlistPatientProcess::new(
        name,
        pearls,
        controller,
        ins.clone(),
        outs.clone(),
        violations.to_vec(),
    );
    system.add_component(pp);
    (ins, outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_netlist_harness::wrap_pearl_full_netlist;
    use crate::kind::WrapperKind;
    use lis_proto::{
        AccumulatorPearl, PackedTokenSink, PackedTokenSource, StallPattern, TokenSink, TokenSource,
    };

    /// Runs `lanes` scenarios (different stall seeds per lane) through
    /// one packed harness and returns each lane's sink stream and
    /// violation count.
    fn run_packed(lanes: usize, cycles: u64) -> Vec<(Vec<u64>, u64)> {
        let schedule = AccumulatorPearl::new("acc", 2, 1, 4).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let mut sys = System::new();
        let pearls: Vec<Box<dyn Pearl>> = (0..lanes)
            .map(|_| Box::new(AccumulatorPearl::new("acc", 2, 1, 4)) as Box<dyn Pearl>)
            .collect();
        let violations: Vec<ViolationCounter> =
            (0..lanes).map(|_| ViolationCounter::new()).collect();
        let (ins, outs) =
            wrap_pearls_packed_full_netlist(&mut sys, "pp", pearls, controller, &violations);
        sys.add_component(PackedTokenSource::new(
            "s0",
            ins[0].clone(),
            (0..lanes)
                .map(|lane| {
                    let (s0, _, _) = lane_stalls(lane);
                    (
                        (1..=12u64).map(|v| v * 7).collect(),
                        StallPattern::from(s0),
                        3 + lane as u64,
                    )
                })
                .collect(),
        ));
        sys.add_component(PackedTokenSource::new(
            "s1",
            ins[1].clone(),
            (0..lanes)
                .map(|lane| {
                    let (_, s1, _) = lane_stalls(lane);
                    (
                        (1..=12u64).collect(),
                        StallPattern::from(s1),
                        40 + lane as u64,
                    )
                })
                .collect(),
        ));
        let sink = PackedTokenSink::new(
            "k",
            outs[0].clone(),
            (0..lanes)
                .map(|lane| {
                    let (_, _, k) = lane_stalls(lane);
                    (StallPattern::from(k), 80 + lane as u64)
                })
                .collect(),
        );
        let received: Vec<_> = (0..lanes).map(|l| sink.received(l)).collect();
        sys.add_component(sink);
        sys.run(cycles).unwrap();
        received
            .iter()
            .zip(&violations)
            .map(|(got, v)| (got.lock().unwrap().clone(), v.count()))
            .collect()
    }

    /// One solo scalar-harness run with lane `lane`'s exact traffic.
    fn run_solo(lane: usize, cycles: u64) -> (Vec<u64>, u64) {
        let schedule = AccumulatorPearl::new("acc", 2, 1, 4).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let pearl = AccumulatorPearl::new("acc", 2, 1, 4);
        let (ins, outs) =
            wrap_pearl_full_netlist(&mut sys, "pp", Box::new(pearl), controller, &violations);
        let (s0, s1, k) = lane_stalls(lane);
        sys.add_component(
            TokenSource::new("s0", ins[0], (1..=12).map(|v| v * 7))
                .with_stalls(s0, 3 + lane as u64),
        );
        sys.add_component(TokenSource::new("s1", ins[1], 1..=12).with_stalls(s1, 40 + lane as u64));
        let sink = TokenSink::new("k", outs[0]).with_stalls(k, 80 + lane as u64);
        let got = sink.received();
        sys.add_component(sink);
        sys.run(cycles).unwrap();
        let r = got.lock().unwrap().clone();
        (r, violations.count())
    }

    /// Per-lane stall probabilities: lane 0 smooth, others irregular.
    fn lane_stalls(lane: usize) -> (f64, f64, f64) {
        match lane % 4 {
            0 => (0.0, 0.0, 0.0),
            1 => (0.3, 0.1, 0.25),
            2 => (0.5, 0.4, 0.0),
            _ => (0.1, 0.2, 0.45),
        }
    }

    #[test]
    fn packed_lanes_match_solo_scalar_runs() {
        let lanes = 6;
        let packed = run_packed(lanes, 1500);
        for (lane, (got, violations)) in packed.iter().enumerate() {
            let (solo, solo_violations) = run_solo(lane, 1500);
            assert!(!solo.is_empty(), "lane {lane} must produce tokens");
            assert_eq!(got, &solo, "lane {lane} diverges from its solo twin");
            assert_eq!(*violations, solo_violations, "lane {lane} violations");
        }
    }

    #[test]
    fn full_lane_count_is_supported() {
        // All 64 lanes at once, short run: every lane must still produce
        // the smooth-lane prefix it would produce solo.
        let packed = run_packed(LANES, 400);
        let solo: Vec<_> = (0..4).map(|lane| run_solo(lane, 400)).collect();
        for (lane, (got, _)) in packed.iter().enumerate() {
            let (want, _) = &solo[lane % 4];
            assert_eq!(got, want, "lane {lane}");
        }
    }

    #[test]
    fn packed_checkpoint_round_trips() {
        let schedule = AccumulatorPearl::new("acc", 2, 1, 4).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let build = |sys: &mut System| {
            let lanes = 3;
            let pearls: Vec<Box<dyn Pearl>> = (0..lanes)
                .map(|_| Box::new(AccumulatorPearl::new("acc", 2, 1, 4)) as Box<dyn Pearl>)
                .collect();
            let violations: Vec<ViolationCounter> =
                (0..lanes).map(|_| ViolationCounter::new()).collect();
            let (ins, outs) =
                wrap_pearls_packed_full_netlist(sys, "pp", pearls, controller.clone(), &violations);
            sys.add_component(PackedTokenSource::new(
                "s0",
                ins[0].clone(),
                (0..lanes)
                    .map(|lane| {
                        (
                            (1..=30u64).map(|v| v * 7).collect(),
                            StallPattern::from(0.2),
                            3 + lane as u64,
                        )
                    })
                    .collect(),
            ));
            sys.add_component(PackedTokenSource::new(
                "s1",
                ins[1].clone(),
                (0..lanes)
                    .map(|lane| {
                        (
                            (1..=30u64).collect(),
                            StallPattern::from(0.1),
                            40 + lane as u64,
                        )
                    })
                    .collect(),
            ));
            let sink = PackedTokenSink::new(
                "k",
                outs[0].clone(),
                (0..lanes).map(|_| (StallPattern::None, 0)).collect(),
            );
            let received: Vec<_> = (0..lanes).map(|l| sink.received(l)).collect();
            sys.add_component(sink);
            received
        };
        // Uninterrupted reference.
        let mut sys = System::new();
        let received = build(&mut sys);
        sys.run(600).unwrap();
        let want: Vec<Vec<u64>> = received.iter().map(|r| r.lock().unwrap().clone()).collect();
        // Interrupted twin: checkpoint at 250, restore into a fresh build.
        let mut sys_a = System::new();
        build(&mut sys_a);
        sys_a.run(250).unwrap();
        let snap = sys_a.checkpoint();
        let mut sys_b = System::new();
        let received_b = build(&mut sys_b);
        sys_b.restore(&snap);
        sys_b.run(350).unwrap();
        let got: Vec<Vec<u64>> = received_b
            .iter()
            .map(|r| r.lock().unwrap().clone())
            .collect();
        assert_eq!(got, want, "restored packed run diverges");
    }

    #[test]
    fn transpose64_swaps_rows_and_columns() {
        let mut m = [0u64; 64];
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for row in &mut m {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *row = x;
        }
        let orig = m;
        transpose64(&mut m);
        for (r, row) in m.iter().enumerate() {
            for (c, col) in orig.iter().enumerate() {
                assert_eq!(row >> c & 1, col >> r & 1, "bit ({r}, {c})");
            }
        }
    }

    /// Forwards every [`Component`] call to a shared harness, so a test
    /// can inspect the harness between kernel cycles.
    struct Shared {
        name: String,
        inner: std::sync::Arc<std::sync::Mutex<PackedFullNetlistPatientProcess>>,
    }

    impl Shared {
        fn get(&self) -> std::sync::MutexGuard<'_, PackedFullNetlistPatientProcess> {
            self.inner.lock().expect("harness lock")
        }
    }

    impl Component for Shared {
        fn name(&self) -> &str {
            &self.name
        }
        fn ports(&self) -> Ports {
            self.get().ports()
        }
        fn eval(&mut self, sigs: &mut SignalView<'_>) {
            self.get().eval(sigs);
        }
        fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
            self.get().tick(sigs)
        }
        fn save_state(&self, out: &mut Vec<u64>) {
            self.get().save_state(out);
        }
        fn load_state(&mut self, data: &[u64]) {
            self.get().load_state(data);
        }
        fn save_lane_state(&self, lane: usize, out: &mut Vec<u64>) {
            self.get().save_lane_state(lane, out);
        }
        fn load_lane_state(&mut self, lane: usize, data: &[u64]) {
            self.get().load_lane_state(lane, data);
        }
    }

    /// The maintained `pearl_out` planes equal a from-scratch bit-by-bit
    /// transpose of the per-lane registers.
    fn assert_planes_current(pp: &PackedFullNetlistPatientProcess, when: &str) {
        for (o, planes) in pp.pearl_out_planes.iter().enumerate() {
            for (bit, &plane) in planes.iter().enumerate() {
                let want = pp
                    .pearl_out
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (lane, regs)| w | (regs[o] >> bit & 1) << lane);
                assert_eq!(plane, want, "{when}: port {o} bit {bit}");
            }
        }
    }

    /// After any mix of pearl clocks, per-lane save/load and a whole
    /// checkpoint restore, the planes driven onto `pearl_out*` are
    /// exactly the transpose of the per-lane `pearl_out` registers.
    #[test]
    fn pearl_out_planes_track_registers() {
        use lis_proto::{PackedSeqSink, PackedSeqSource, StallControl};
        let schedule = AccumulatorPearl::new("acc", 1, 1, 0).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let mut sys = System::new();
        let pearls: Vec<Box<dyn Pearl>> = (0..LANES)
            .map(|_| Box::new(AccumulatorPearl::new("acc", 1, 1, 0)) as Box<dyn Pearl>)
            .collect();
        let violations: Vec<ViolationCounter> =
            (0..LANES).map(|_| ViolationCounter::new()).collect();
        let ins = vec![PackedLisChannel::new(&mut sys, "pp_in0", 32)];
        let outs = vec![PackedLisChannel::new(&mut sys, "pp_out0", 32)];
        let pp = PackedFullNetlistPatientProcess::new(
            "pp",
            pearls,
            controller,
            ins.clone(),
            outs.clone(),
            violations.clone(),
        );
        let shared = std::sync::Arc::new(std::sync::Mutex::new(pp));
        sys.add_component(Shared {
            name: "pp".into(),
            inner: shared.clone(),
        });
        sys.add_component(PackedSeqSource::new(
            "src",
            ins[0].clone(),
            StallControl::Scripted(vec![]),
            64,
            u64::MAX,
        ));
        // Lane-dependent back-pressure makes the lanes' registers differ.
        sys.add_component(PackedSeqSink::new(
            "snk",
            outs[0].clone(),
            StallControl::Scripted(vec![0xF0F0_FF00_0F0F_00FF; 48]),
            64,
            u64::MAX,
            &violations,
        ));
        let check = |when: &str| assert_planes_current(&shared.lock().unwrap(), when);
        for cycle in 0..30 {
            sys.run(1).unwrap();
            check(&format!("cycle {cycle}"));
        }
        let snap = sys.checkpoint();
        sys.run(10).unwrap();
        let lanes: Vec<Vec<u64>> = (0..LANES).map(|k| sys.save_lane(k)).collect();
        assert!(
            lanes.iter().any(|l| *l != lanes[0]),
            "the lanes must diverge for the check to mean anything"
        );
        for (k, words) in lanes.iter().enumerate() {
            sys.load_lane((k * 17 + 5) % LANES, words);
            check(&format!("lane load {k}"));
        }
        sys.restore(&snap);
        check("checkpoint restore");
        for cycle in 0..20 {
            sys.run(1).unwrap();
            check(&format!("cycle {cycle} after restore"));
        }
    }

    /// Per-lane save/load across a whole packed gate-level system — the
    /// shape the bounded explorer drives. Lanes are first forced apart
    /// with lane-dependent sink stalls; then every lane's state is
    /// extracted and written straight back, which must be an exact
    /// no-op on the architectural state.
    #[test]
    fn packed_system_lane_states_round_trip() {
        use lis_proto::{PackedSeqSink, PackedSeqSource, StallControl};
        let schedule = AccumulatorPearl::new("acc", 1, 1, 0).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let mut sys = System::new();
        let pearls: Vec<Box<dyn Pearl>> = (0..LANES)
            .map(|_| Box::new(AccumulatorPearl::new("acc", 1, 1, 0)) as Box<dyn Pearl>)
            .collect();
        let violations: Vec<ViolationCounter> =
            (0..LANES).map(|_| ViolationCounter::new()).collect();
        let (ins, outs) =
            wrap_pearls_packed_full_netlist(&mut sys, "pp", pearls, controller, &violations);
        sys.add_component(PackedSeqSource::new(
            "src",
            ins[0].clone(),
            StallControl::Scripted(vec![]),
            64,
            u64::MAX,
        ));
        // The upper 32 lanes are back-pressured for the whole run, so
        // at save time the lane populations are genuinely different
        // (short bursts would be absorbed by the port queues).
        sys.add_component(PackedSeqSink::new(
            "snk",
            outs[0].clone(),
            StallControl::Scripted(vec![0xFFFF_FFFF_0000_0000; 64]),
            64,
            u64::MAX,
            &violations,
        ));
        sys.run(40).unwrap();
        let lanes: Vec<Vec<u64>> = (0..LANES).map(|k| sys.save_lane(k)).collect();
        assert!(
            lanes.iter().skip(1).any(|l| *l != lanes[0]),
            "stall skew must actually diverge the lanes"
        );
        let before = sys.checkpoint();
        for (k, words) in lanes.iter().enumerate() {
            sys.load_lane(k, words);
        }
        let after = sys.checkpoint();
        assert_eq!(
            before.component_states, after.component_states,
            "lane extract + reinject must be an architectural no-op"
        );
        assert_eq!(before.signal_values, after.signal_values);
    }
}
