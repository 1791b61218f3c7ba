//! Allocation regression tests for the serve hot path.
//!
//! Four allocation bugs are fixed: `Choice::sample` collected the branch
//! weights into a fresh `Vec` on every coin flip, `NUnbounded::transit`
//! built three temporary `Vec`s (maxnum scan, leader collection, agreement
//! check) on every read step, `ThreeBounded`'s end-of-phase computation
//! collected up to five small `Vec`s per phase, and `RandomScheduler`
//! collected the eligible processors into a `Vec` on every pick. This
//! binary pins the fixes — the serve-engine steady state, and `Runner::run`
//! under each sweep adversary allocating per run, not per step — with a
//! counting global allocator.
//!
//! The counting allocator is the one place in the workspace that needs
//! `unsafe` (the `GlobalAlloc` contract); it is confined to this test
//! binary, outside every `#![forbid(unsafe_code)]` library crate, and only
//! delegates to `std::alloc::System`.
//!
//! Everything runs inside a single `#[test]` so no sibling test thread can
//! pollute the allocation counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cil_core::n_unbounded::NUnbounded;
use cil_core::three_bounded::ThreeBounded;
use cil_core::two::TwoProcessor;
use cil_serve::{InstanceSlot, LATENCY_SAMPLE_EVERY};
use cil_sim::sweep::Trial;
use cil_sim::{
    Adversary, Alternator, BoxedAdversary, Choice, LaggardFirst, LeaderFirst, PackCodec, Protocol,
    RandomScheduler, Rng, RoundRobin, Runner, SplitMix64, Val, Xoshiro256StarStar,
};
use std::collections::BTreeMap;

/// Counts allocations; frees are uncounted (the steady-state assertions
/// care about *new* heap traffic only).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`, which upholds the `GlobalAlloc`
// contract; the added counter is a lock-free atomic increment.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed while running `f`.
fn allocations_during<R>(f: &mut impl FnMut() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// Asserts `f` runs without heap traffic. The counter is process-global
/// and the libtest harness may allocate on its own threads (output
/// bookkeeping) concurrently with the measured window, so transient noise
/// is retried away: a *genuine* hot-path allocation fires on every single
/// attempt and still fails, while an unlucky overlap with the harness
/// passes on a clean retry.
fn assert_alloc_free<R>(what: &str, mut f: impl FnMut() -> R) -> R {
    let mut min_allocs = u64::MAX;
    for _ in 0..5 {
        let (allocs, result) = allocations_during(&mut f);
        if allocs == 0 {
            return result;
        }
        min_allocs = min_allocs.min(allocs);
    }
    panic!("{what}: at least {min_allocs} allocations on a hot path in every attempt");
}

/// Runs `slot` through one full instance without touching stats
/// aggregation (which may legitimately allocate). The slot is armed as
/// `ServeEngine` arms it: timed with `begin` for the latency sample, with
/// `begin_untimed` otherwise.
fn run_instance<P: Protocol>(slot: &mut InstanceSlot<'_, P, PackCodec>, trial: Trial) -> u64
where
    P::Reg: cil_registers::Packable,
{
    if trial.index.is_multiple_of(LATENCY_SAMPLE_EVERY) {
        slot.begin(trial);
    } else {
        slot.begin_untimed(trial);
    }
    loop {
        if let Some(done) = slot.step_batch(1024) {
            return done.result.metric;
        }
    }
}

/// Asserts that allocations per `Runner::run` under the adversary that
/// `adversary` builds from a run's seed do not depend on the run's length:
/// seeds giving runs of different lengths must all allocate the same
/// (per-run buffers only) amount. Each count is the minimum over a few
/// attempts, which filters the harness's own traffic.
fn assert_run_allocations_constant<P: Protocol, A: Adversary<P>>(
    what: &str,
    protocol: &P,
    inputs: &[Val],
    adversary: impl Fn(u64) -> A,
) {
    let mut by_length = BTreeMap::new();
    for seed in 0..40 {
        let mut run = || {
            Runner::new(protocol, inputs, adversary(seed))
                .seed(seed)
                .run()
                .total_steps
        };
        let (allocs, steps) = (0..3)
            .map(|_| allocations_during(&mut run))
            .min()
            .expect("attempts");
        by_length.insert(steps, allocs);
    }
    assert!(
        by_length.len() > 1,
        "{what}: every seed ran the same length"
    );
    let first = by_length.values().next().copied();
    assert!(
        by_length.values().all(|a| Some(*a) == first),
        "{what}: allocations per run grow with its length (steps -> allocations): {by_length:?}"
    );
}

/// [`assert_run_allocations_constant`] under each adversary `cil sweep`
/// offers that keeps no per-pick tables: the random scheduler boxed as
/// `cil sweep` and the benchmark build it, and the laggard, leader,
/// alternator and round-robin schedulers.
fn assert_sweep_runs_allocation_constant<P>(what: &str, protocol: &P, inputs: &[Val])
where
    P: Protocol + 'static,
{
    assert_run_allocations_constant(&format!("{what}, random"), protocol, inputs, |seed| {
        Box::new(RandomScheduler::new(seed)) as BoxedAdversary<P>
    });
    assert_run_allocations_constant(&format!("{what}, laggard"), protocol, inputs, |_| {
        LaggardFirst::new()
    });
    assert_run_allocations_constant(&format!("{what}, leader"), protocol, inputs, |_| {
        LeaderFirst::new()
    });
    assert_run_allocations_constant(&format!("{what}, alternator"), protocol, inputs, |_| {
        Alternator::new()
    });
    assert_run_allocations_constant(&format!("{what}, round-robin"), protocol, inputs, |_| {
        RoundRobin::new()
    });
}

fn trial(root_seed: u64, index: u64) -> Trial {
    Trial {
        index,
        seed: SplitMix64::jump(root_seed, index).next_u64(),
    }
}

#[test]
fn hot_paths_do_not_allocate() {
    let mut rng = Xoshiro256StarStar::new(99);

    // 1. `Choice::sample` — the PR 9 bugfix: deterministic and coin choices
    //    (the two shapes every protocol step goes through) must not touch
    //    the heap, and neither must sampling a prebuilt many-way choice.
    let det = Choice::det(Val::A);
    let coin = Choice::coin(Val::A, Val::B);
    let many = Choice::uniform([Val(0), Val(1), Val(2), Val(3)]);
    assert_alloc_free("Choice::sample(det)", || {
        for _ in 0..10_000 {
            std::hint::black_box(det.sample(&mut rng));
        }
    });
    assert_alloc_free("Choice::sample(coin)", || {
        for _ in 0..10_000 {
            std::hint::black_box(coin.sample(&mut rng));
        }
    });
    assert_alloc_free("Choice::sample(uniform)", || {
        for _ in 0..10_000 {
            std::hint::black_box(many.sample(&mut rng));
        }
    });

    // 2. The serve steady state, two-processor protocol: instance 0 warms
    //    the slot (first `begin` fills the state vector), then every later
    //    instance, timed or not, must run begin-to-decision without a
    //    single allocation.
    let two = TwoProcessor::new();
    let inputs = [Val::A, Val::B];
    let mut slot = InstanceSlot::new(&two, &PackCodec, &inputs, 1_000_000);
    run_instance(&mut slot, trial(17, 0));
    assert_alloc_free("two-processor steady state", || {
        for index in 1..200 {
            std::hint::black_box(run_instance(&mut slot, trial(17, index)));
        }
    });

    // 3. The same for fig2 — this is the path through the `PhaseScan`
    //    rewrite of `NUnbounded::transit`, which previously built three
    //    temporary Vecs per read step.
    let fig2 = NUnbounded::three();
    let inputs3 = [Val::A, Val::B, Val::A];
    let mut slot3 = InstanceSlot::new(&fig2, &PackCodec, &inputs3, 1_000_000);
    run_instance(&mut slot3, trial(23, 0));
    assert_alloc_free("fig2 steady state", || {
        for index in 1..100 {
            std::hint::black_box(run_instance(&mut slot3, trial(23, index)));
        }
    });

    // 4. The same for fig3, whose end-of-phase computation now works on
    //    fixed-size arrays (two peers, three positions, at most three
    //    leader tags).
    let fig3 = ThreeBounded::new();
    let mut slot_fig3 = InstanceSlot::new(&fig3, &PackCodec, &inputs3, 1_000_000);
    run_instance(&mut slot_fig3, trial(29, 0));
    assert_alloc_free("fig3 steady state", || {
        for index in 1..100 {
            std::hint::black_box(run_instance(&mut slot_fig3, trial(29, index)));
        }
    });

    // 5. The simulator: `Runner::run` allocates its per-run buffers, and
    //    nothing per step, under every adversary of the sweep path.
    assert_sweep_runs_allocation_constant("two", &two, &inputs);
    assert_sweep_runs_allocation_constant("fig2", &fig2, &inputs3);
    assert_sweep_runs_allocation_constant("fig3", &fig3, &inputs3);
}
