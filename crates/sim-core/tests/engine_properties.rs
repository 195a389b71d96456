//! Property tests for the DES kernel's ordering guarantees.

use dvc_sim_core::{EventHandle, Sim, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// Events fire in nondecreasing time order, and ties fire in scheduling
    /// order — for arbitrary schedules.
    #[test]
    fn events_fire_sorted_with_stable_ties(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut sim = Sim::new(Vec::<(u64, usize)>::new(), 1);
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime(t), move |sim| sim.world.push((t, i)));
        }
        sim.run_to_completion(10_000);
        let log = &sim.world;
        prop_assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie broke FIFO: {w:?}");
            }
        }
    }

    /// Cancelling an arbitrary subset suppresses exactly that subset.
    #[test]
    fn cancellation_is_exact(
        times in prop::collection::vec(0u64..1000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut sim = Sim::new(Vec::<usize>::new(), 1);
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| sim.schedule_at(SimTime(t), move |sim| sim.world.push(i)))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, h) in handles.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                sim.cancel(*h);
            } else {
                expected.push(i);
            }
        }
        sim.run_to_completion(10_000);
        let mut got = sim.world.clone();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Handlers scheduling follow-on events never violate causality: a
    /// follow-on scheduled with +d fires at parent time + d.
    #[test]
    fn chained_events_respect_offsets(offsets in prop::collection::vec(1u64..500, 1..50)) {
        struct W {
            offsets: Vec<u64>,
            idx: usize,
            fire_times: Vec<u64>,
        }
        fn step(sim: &mut Sim<W>) {
            let now = sim.now().nanos();
            sim.world.fire_times.push(now);
            let i = sim.world.idx;
            if i < sim.world.offsets.len() {
                let d = sim.world.offsets[i];
                sim.world.idx += 1;
                sim.schedule_at(SimTime(now + d), step);
            }
        }
        let n = offsets.len();
        let mut sim = Sim::new(
            W { offsets: offsets.clone(), idx: 0, fire_times: vec![] },
            1,
        );
        sim.schedule_at(SimTime(0), step);
        sim.run_to_completion(100_000);
        prop_assert_eq!(sim.world.fire_times.len(), n + 1);
        let mut expect = 0u64;
        prop_assert_eq!(sim.world.fire_times[0], 0);
        for (i, d) in offsets.iter().enumerate() {
            expect += d;
            prop_assert_eq!(sim.world.fire_times[i + 1], expect);
        }
    }
}

/// A reference event queue: one ordered map over `(time, seq)` whose value
/// says which event it is and whether it is still live.
#[derive(Default)]
struct Reference {
    pending: BTreeMap<(u64, u64), (usize, bool)>,
    now: u64,
    next_seq: u64,
    fired: Vec<(u64, usize)>,
    noop_pops: u64,
    peak: usize,
}

impl Reference {
    fn schedule(&mut self, at: u64, id: usize) -> (u64, u64) {
        let key = (at.max(self.now), self.next_seq);
        self.next_seq += 1;
        self.pending.insert(key, (id, true));
        self.peak = self.peak.max(self.pending.len());
        key
    }

    fn cancel(&mut self, key: (u64, u64)) {
        if let Some(e) = self.pending.get_mut(&key) {
            e.1 = false;
        }
    }

    fn step(&mut self) -> bool {
        let Some(((t, _), (id, live))) = self.pending.pop_first() else {
            return false;
        };
        self.now = t;
        if live {
            self.fired.push((t, id));
        } else {
            self.noop_pops += 1;
        }
        true
    }

    /// [`Sim::run`] with no event budget.
    fn run(&mut self, horizon: u64) {
        while let Some((&(t, _), _)) = self.pending.first_key_value() {
            if t >= horizon {
                self.now = self.now.max(horizon);
                return;
            }
            self.step();
        }
    }
}

/// A delay of magnitude class `mag` (0..5) around `arg`: tiny, a few
/// dozen ns, around 2^20, around 2^40 and near 2^62, so pushes land in every
/// bucket of the radix queue and pops redistribute across all of them.
fn delay(mag: u8, arg: u64) -> u64 {
    match mag {
        0 => arg,
        1 => arg * 9 + 1,
        2 => (1 << 20) + arg * 4099,
        3 => (1 << 40) - arg * 3 + 1,
        _ => (1 << 62) + (arg << 33) + arg,
    }
}

proptest! {
    /// The engine replays random schedule / cancel / step / horizon-run
    /// sequences exactly like a `(time, seq)`-ordered map: same firing
    /// order and instants, same tombstone pops, same depth and high-water
    /// mark. Op kinds: 0 zero-delay push (joins the entries already due at
    /// the clock's instant), 1 push `delay(mag, arg)` ns ahead, 2 push `arg`
    /// ns in the past (clamped to now), 3 cancel an earlier handle (live,
    /// cancelled or fired, its slot possibly reused), 4 one step, 5 run to a
    /// horizon `delay(mag, arg)` ns ahead, 6 push `arg + 2` events at one
    /// instant `delay(mag, arg)` ns ahead, 7 run to a horizon `arg` ns
    /// *behind* the clock (it must not rewind). Times saturate at
    /// `u64::MAX`, which is itself a valid instant.
    #[test]
    fn queue_matches_reference_order(
        ops in prop::collection::vec((0u8..8, 0u8..5, 0u64..8), 1..400),
    ) {
        type W = Vec<(u64, usize)>;
        let mut sim = Sim::new(W::new(), 1);
        let mut model = Reference::default();
        let mut issued: Vec<(EventHandle, (u64, u64))> = Vec::new();
        let fire = |id: usize| {
            move |s: &mut Sim<W>| {
                let t = s.now().nanos();
                s.world.push((t, id));
            }
        };
        for &(kind, mag, arg) in &ops {
            let now = sim.now().nanos();
            let ahead = now.saturating_add(delay(mag, arg));
            let mut pushes: Vec<(EventHandle, u64)> = Vec::new();
            match kind {
                0 => pushes.push((sim.schedule_in(SimDuration::ZERO, fire(issued.len())), now)),
                1 => pushes.push((sim.schedule_at(SimTime(ahead), fire(issued.len())), ahead)),
                2 => {
                    let at = now.saturating_sub(arg);
                    pushes.push((sim.schedule_at(SimTime(at), fire(issued.len())), at));
                }
                3 => {
                    if let Some(&(h, key)) = issued.get((arg as usize * 7919) % issued.len().max(1)) {
                        sim.cancel(h);
                        model.cancel(key);
                    }
                }
                4 => prop_assert_eq!(sim.step(), model.step()),
                5 => {
                    sim.run(SimTime(ahead), u64::MAX);
                    model.run(ahead);
                }
                6 => {
                    for k in 0..arg as usize + 2 {
                        let id = issued.len() + k;
                        pushes.push((sim.schedule_at(SimTime(ahead), fire(id)), ahead));
                    }
                }
                _ => {
                    let horizon = now.saturating_sub(arg);
                    sim.run(SimTime(horizon), u64::MAX);
                    model.run(horizon);
                }
            }
            for (h, at) in pushes {
                let id = issued.len();
                issued.push((h, model.schedule(at, id)));
            }
            prop_assert_eq!(sim.now().nanos(), model.now);
            prop_assert_eq!(sim.events_pending(), model.pending.len());
            prop_assert_eq!(&sim.world, &model.fired);
        }
        // Step rather than run: a run's horizon, even `SimTime::NEVER`,
        // leaves the events due at `u64::MAX` queued.
        while sim.step() {}
        while model.step() {}
        prop_assert_eq!(sim.now().nanos(), model.now);
        prop_assert_eq!(&sim.world, &model.fired);
        let st = sim.stats();
        prop_assert_eq!(st.scheduled, model.next_seq);
        prop_assert_eq!(st.executed, model.fired.len() as u64);
        prop_assert_eq!(st.noop_pops, model.noop_pops);
        prop_assert_eq!(st.peak_queue_depth, model.peak as u64);
        prop_assert_eq!(sim.events_pending(), 0);
    }
}
