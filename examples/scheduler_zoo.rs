//! Runs `Ak` and `Bk` under every scheduler in the zoo — synchronous,
//! round-robin, seeded-random, and three adversarial policies — and shows
//! the model's **confluence**: the elected leader, message count, and
//! time-unit cost are identical under every fair schedule; only the
//! interleaving differs.
//!
//! ```text
//! cargo run --example scheduler_zoo
//! ```

use homonym_rings::prelude::*;
use homonym_rings::ring::generate::random_a_inter_kk;
use homonym_rings::sim::Scheduler;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schedulers(victim: usize) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SyncSched),
        Box::new(RoundRobinSched::default()),
        Box::new(RandomSched::new(123)),
        Box::new(RandomSched::new(31337)),
        Box::new(AdversarialSched { strategy: Adversary::LowestFirst }),
        Box::new(AdversarialSched { strategy: Adversary::HighestFirst }),
        Box::new(AdversarialSched { strategy: Adversary::Starve(victim) }),
    ]
}

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let ring = random_a_inter_kk(10, 3, 4, &mut rng).expect("a nonempty ring class");
    let k = ring.max_multiplicity().max(2);
    let victim = ring.true_leader().unwrap();
    println!("ring: {ring}   (k = {k}, true leader p{victim})");
    println!();

    for (name, run_algo) in [("Ak", true), ("Bk", false)] {
        let mut table = Table::new(["scheduler", "leader", "messages", "time", "steps"]);
        let mut baseline: Option<(Option<usize>, u64, u64)> = None;
        for mut sched in schedulers(victim) {
            let rep = if run_algo {
                run(&Ak::new(k), &ring, &mut sched, RunOptions::default())
            } else {
                // Bk re-run with the same scheduler state machine.
                let bk = Bk::new(k);
                let r = run(&bk, &ring, &mut sched, RunOptions::default());
                assert!(r.clean());
                table.row([
                    sched.name(),
                    format!("p{}", r.leader.unwrap()),
                    r.metrics.messages.to_string(),
                    r.metrics.time_units.to_string(),
                    r.metrics.steps.to_string(),
                ]);
                check(&mut baseline, &r);
                continue;
            };
            assert!(rep.clean(), "{:?}", rep.violations);
            table.row([
                sched.name(),
                format!("p{}", rep.leader.unwrap()),
                rep.metrics.messages.to_string(),
                rep.metrics.time_units.to_string(),
                rep.metrics.steps.to_string(),
            ]);
            check(&mut baseline, &rep);
        }
        println!("{name}:");
        println!("{table}");
    }
    println!("Leader, messages, and time are schedule-invariant (confluence). ✓");
}

fn check<M>(baseline: &mut Option<(Option<usize>, u64, u64)>, rep: &RunReport<M>) {
    let key = (rep.leader, rep.metrics.messages, rep.metrics.time_units);
    match baseline {
        None => *baseline = Some(key),
        Some(b) => assert_eq!(*b, key, "confluence violated"),
    }
}
