//! Property suite for the plan-granularity seam: for *any* randomly
//! generated wave schedule, a wave-granular offset plan never lets two
//! buffers that are live in the same wave share a byte — even when their
//! event-time lifetimes are disjoint — and the wave plan's footprint
//! dominates the event plan's, with the measured capacity delta being the
//! honest price of concurrency.
//!
//! Schedules are synthesized directly as alloc/free streams (no graphs):
//! each wave births a handful of buffers, and each buffer dies at the end
//! of its birth wave or a few waves later. Same-wave birth-and-death pairs
//! are the adversarial case — event granularity happily stacks them.

use gist_memory::{
    check_no_overlap_waves, coarsen_lifetimes, observed_inventory, peak_dynamic, Arena,
    PlanGranularity,
};
use gist_obs::{Event, MemoryAccountant};
use gist_testkit::prop::{vec_of, Strategy};
use gist_testkit::{Rng, Runner};

/// One buffer: (bytes, extra waves it stays live past its birth wave).
type Buf = (usize, usize);
/// One schedule: per wave, the buffers born in it.
type Schedule = Vec<Vec<Buf>>;

fn schedules() -> impl Strategy<Value = Schedule> {
    vec_of(vec_of((1usize..5000, 0usize..3), 0..5), 1..8)
}

fn regressions_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/wave_plan_properties.testkit-regressions")
}

/// One buffer's `(name, birth wave, death wave)`.
type Life = (String, usize, usize);

/// Lowers a schedule to an event stream plus its wave groups (inclusive
/// tick ranges) and every buffer's [`Life`].
fn lower(schedule: &Schedule) -> (Vec<Event>, Vec<(usize, usize)>, Vec<Life>) {
    let last = schedule.len() - 1;
    let bufs: Vec<(String, usize, usize, usize)> = schedule
        .iter()
        .enumerate()
        .flat_map(|(w, born)| {
            born.iter().enumerate().map(move |(i, &(bytes, extra))| {
                (format!("w{w}b{i}"), w, (w + extra).min(last), bytes)
            })
        })
        .collect();
    let mut events = Vec::new();
    let mut groups = Vec::new();
    let mut tick = 0usize;
    for w in 0..schedule.len() {
        let start = tick;
        for (name, birth, _, bytes) in &bufs {
            if *birth == w {
                events.push(Event::Alloc { name: name.clone(), bytes: *bytes as u64 });
                tick += 1;
            }
        }
        for (name, _, death, bytes) in &bufs {
            if *death == w {
                events.push(Event::Free { name: name.clone(), bytes: *bytes as u64 });
                tick += 1;
            }
        }
        if tick > start {
            groups.push((start, tick - 1));
        }
    }
    (events, groups, bufs.into_iter().map(|(n, b, d, _)| (n, b, d)).collect())
}

#[test]
fn wave_plans_never_overlap_same_wave_buffers() {
    Runner::new("wave_plans_never_overlap_same_wave_buffers")
        .cases(64)
        .regressions_file(regressions_path())
        .run(&schedules(), |schedule| {
            let (events, groups, bufs) = lower(schedule);
            if events.is_empty() {
                return;
            }
            let wave = Arena::from_events_granular(&events, PlanGranularity::Wave, &groups)
                .expect("wave plan");

            // Independent pairwise check, from the schedule itself rather
            // than the planner's own coarsening: any two buffers whose
            // birth..death *wave* ranges intersect must occupy disjoint
            // byte ranges.
            for (i, (a, ab, ad)) in bufs.iter().enumerate() {
                for (b, bb, bd) in bufs.iter().skip(i + 1) {
                    if ab.max(bb) <= ad.min(bd) {
                        let (ao, al) = wave.region(a).expect("planned");
                        let (bo, bl) = wave.region(b).expect("planned");
                        assert!(
                            ao + al <= bo || bo + bl <= ao,
                            "{a} [{ao},+{al}) and {b} [{bo},+{bl}) share bytes while \
                             live in the same wave"
                        );
                    }
                }
            }

            // The library-level oracle agrees.
            let mut acc = MemoryAccountant::new();
            acc.fold_all(&events).expect("well-formed stream");
            check_no_overlap_waves(&acc, &groups, |name| wave.region(name))
                .expect("oracle: same-wave disjointness");

            // Footprint monotonicity: coarsening lifetimes can only grow
            // the peak, and the packed wave slab holds its own peak.
            let inv = observed_inventory(&acc);
            let event_peak = peak_dynamic(&inv, acc.num_ticks());
            let wave_items = coarsen_lifetimes(&inv, PlanGranularity::Wave, &groups);
            let wave_peak = peak_dynamic(&wave_items, acc.num_ticks());
            assert!(wave_peak >= event_peak, "wave peak {wave_peak} below event peak {event_peak}");
            assert!(
                wave.capacity_bytes() >= wave_peak,
                "slab {} below wave peak {wave_peak}",
                wave.capacity_bytes()
            );
            let event = Arena::from_events_granular(&events, PlanGranularity::Event, &groups)
                .expect("event plan");
            println!(
                "wave-granularity cost: peak {event_peak} -> {wave_peak} \
                 (+{}), slab {} -> {} ({} waves, {} buffers)",
                wave_peak - event_peak,
                event.capacity_bytes(),
                wave.capacity_bytes(),
                groups.len(),
                bufs.len(),
            );
        });
}

/// The persisted seeds must keep decoding to schedules that actually
/// exercise the adversarial case — at least one wave holding two or more
/// buffers, one of which dies inside that same wave. If the strategy
/// changes shape, this pin fails before the property silently weakens.
#[test]
fn regression_seeds_still_cover_same_wave_death() {
    let seeds = Runner::new("wave_plans_never_overlap_same_wave_buffers")
        .regressions_file(regressions_path())
        .regression_seeds();
    assert!(seeds.len() >= 2, "regression file must persist at least two seeds");
    let strat = schedules();
    for seed in seeds {
        let schedule = strat.generate(&mut Rng::seed_from_u64(seed));
        let adversarial = schedule.iter().enumerate().any(|(w, born)| {
            let live_in_w = schedule
                .iter()
                .take(w + 1)
                .enumerate()
                .flat_map(|(b, bs)| bs.iter().map(move |&(_, e)| (b, e)))
                .filter(|&(b, e)| b + e >= w)
                .count();
            live_in_w >= 2 && born.iter().any(|&(_, e)| e == 0)
        });
        assert!(
            adversarial,
            "seed 0x{seed:016x} no longer decodes to a same-wave-death schedule: {schedule:?}"
        );
    }
}
