//! Cross-validation between the model checker (`cil-mc`) and the simulator
//! (`cil-sim`): the exact analyses and the Monte-Carlo executor must tell
//! the same story about the same protocols.

use cil_core::deterministic::{DetRule, DetTwo};
use cil_core::two::TwoProcessor;
use cil_mc::config::{successors, Config};
use cil_mc::valence::{Valence, ValenceMap};
use cil_mc::{CompactExplorer, CompactMdp, CompactOptions, Objective};
use cil_sim::{FixedSchedule, RandomScheduler, Runner, StopWhen, Val};

#[test]
fn univalent_configurations_predict_simulation_outcomes() {
    // Take the copycat victim; for every reachable univalent-v config, any
    // continuation that decides must decide v. Validate by simulating from
    // schedules that lead into univalent configs.
    let p = DetTwo::new(DetRule::AlwaysAdopt);
    let inputs = [Val::A, Val::B];
    let map = ValenceMap::build(&p, &inputs, 1_000_000);

    // Walk a few concrete schedules, tracking configs alongside.
    for schedule in [
        vec![0usize, 0, 1, 1, 0, 1, 0, 1],
        vec![1, 1, 1, 0, 0, 0],
        vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    ] {
        let mut cfg = Config::initial(&p, &inputs);
        for (i, &pid) in schedule.iter().enumerate() {
            if !cfg.eligible(&p).contains(&pid) {
                break;
            }
            cfg = successors(&p, &cfg, pid).pop().unwrap().1;
            if let Valence::Univalent(v) = map.valence(&cfg) {
                // Simulate a full run continuing with this prefix.
                let out = Runner::new(&p, &inputs, FixedSchedule::new(schedule[..=i].to_vec()))
                    .max_steps(10_000)
                    .run();
                if let Some(d) = out.agreement() {
                    assert_eq!(d, v, "simulation contradicts valence analysis");
                }
            }
        }
    }
}

#[test]
fn mdp_value_matches_monte_carlo_under_its_own_policy() {
    // The unreduced build keys on raw configurations (no symmetry quotient,
    // no decided-state merging), so its policy is replayed without mapping
    // a choice back through a symmetry element.
    let p = TwoProcessor::new();
    let inputs = [Val::A, Val::B];
    let unreduced = CompactOptions {
        use_symmetry: false,
        merge_decided: false,
        ..CompactOptions::default()
    };
    let mdp = CompactMdp::build(&p, &inputs, &unreduced).unwrap();
    let solve = mdp.expected_steps(Objective::StepsOf(1), 1e-12, 100_000, 1);
    let runs = 30_000u64;
    let mut total = 0u64;
    for seed in 0..runs {
        let out = Runner::new(&p, &inputs, mdp.policy_adversary(&p, &solve))
            .seed(seed)
            .stop_when(StopWhen::PidDecided(1))
            .max_steps(100_000)
            .run();
        total += out.steps[1];
    }
    let mean = total as f64 / runs as f64;
    assert!(
        (mean - solve.value).abs() < 0.3,
        "MC mean {mean} vs exact optimum {}",
        solve.value
    );
}

#[test]
fn no_monte_carlo_run_escapes_the_enumerated_state_space() {
    // Every configuration visited by a simulation must be in the MDP's
    // closed enumeration (registers + states), for many seeds. The build
    // keys on raw configurations: no symmetry quotient, decided states stay
    // distinct instead of merging into one token, and a depth bound the
    // space never reaches puts the activation mask into the key.
    let p = TwoProcessor::new();
    let inputs = [Val::B, Val::A];
    let raw = CompactOptions {
        max_depth: Some(64),
        use_symmetry: false,
        merge_decided: false,
        ..CompactOptions::default()
    };
    let mdp = CompactMdp::build(&p, &inputs, &raw).unwrap();
    assert_eq!(mdp.stats().truncated, 0, "the depth bound cut the space");
    for seed in 0..500u64 {
        let out = Runner::new(&p, &inputs, RandomScheduler::new(seed))
            .seed(seed)
            .run();
        // Final configuration must be known to the solver, activation mask
        // included. Rebuild it:
        let cfg = Config::<TwoProcessor> {
            states: out.final_states.clone(),
            regs: out.final_regs.clone(),
            active: (u64::from(out.steps[0] > 0)) | (u64::from(out.steps[1] > 0) << 1),
        };
        assert!(
            mdp.find(&p, &cfg).is_some(),
            "seed {seed}: final config missing from enumeration"
        );
    }
}

#[test]
fn explorer_matches_brute_force_monte_carlo_on_safety() {
    // The explorer proves safety exhaustively; Monte Carlo must agree (it
    // can never find what exhaustion proved absent).
    let p = TwoProcessor::new();
    for inputs in [[Val::A, Val::B], [Val::B, Val::B]] {
        let report = CompactExplorer::new(&p, &inputs).run();
        assert!(report.safe() && report.complete);
        for seed in 0..2_000u64 {
            let out = Runner::new(&p, &inputs, RandomScheduler::new(seed))
                .seed(seed)
                .run();
            assert!(out.consistent() && out.nontrivial());
        }
    }
}

#[test]
fn deterministic_victims_never_decide_along_the_theorem4_schedule() {
    // Feed the mechanized Theorem 4 schedule back into the *simulator* and
    // confirm nobody decides — mc and sim agree about the adversary.
    for rule in DetRule::ALL {
        let p = DetTwo::new(rule);
        let inputs = [Val::A, Val::B];
        let demo = cil_mc::construct_infinite_schedule(&p, &inputs, 5_000, 1_000_000)
            .expect("Theorem 4 construction runs");
        let out = Runner::new(&p, &inputs, FixedSchedule::new(demo.schedule.clone()))
            .max_steps(5_000)
            .run();
        assert!(
            out.decisions.iter().all(Option::is_none),
            "{rule}: the adversarial schedule let someone decide"
        );
        assert_eq!(out.total_steps, 5_000);
    }
}
