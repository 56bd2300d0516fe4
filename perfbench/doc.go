// Command perfbench is the end-to-end benchmark of the functional-faults
// checker. What a user of the repository pays is the time until a
// verdict, or until the reproduction tables are regenerated; perfbench
// measures that, checks every output against its known answer, and in a
// separate traced run splits the cost over the repository's layers.
//
// Run it from the root of the repository:
//
//	bash perfbench/run.sh --workload verify|sweep|tables --seed N --seconds S --trace 0|1
//
// run.sh builds this module (its own go.mod, which replaces module repro
// with the repository it sits in) into .bench_build and runs it there.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it give the
// host stamp, a summary with fail_frac and executions_per_s, and every
// metric by name with its unit. Spans, with the host stamp, go to
// .bench_build/perfbench-runs.
//
// # Workloads
//
// Each workload is a closed loop in one process with GOMAXPROCS = nproc:
// it runs one job at a time, starting jobs until --seconds have passed
// (and at least one). The seed draws the processes' inputs, n distinct
// values in [0, word.MaxValue]; the program receives only those.
//
//   - verify: explore.CheckWith on Figure 2 (core.NewFPlusOne(2)), n = 4,
//     objects 0 and 1 faulty with unbounded overriding faults, dedup on,
//     run.ReduceSafe, one worker, checkpointing into a fresh run directory.
//     Known answer: complete and VERIFIED (Theorem 5). Chosen because
//     dedup, the reducer, re-descent from the root and the checkpoint
//     write do most of its work; one worker keeps every count exact.
//   - sweep: explore.CheckWith on Figure 3 (core.NewStaged(2, 1)), n = 3,
//     every object faulty with t = 1, two workers, no dedup, reduction or
//     checkpoint, capped at a fixed slab of executions. Known answer: no
//     violation, and executions equal the slab (Theorem 6). Chosen as the
//     control: the simulator step, CAS plus fault decision and the
//     frontier do nearly all the work, so dedup, reducer and store changes
//     should not move it.
//   - tables: harness.RunOne over every harness.All() experiment at full
//     size with Options{Seed, Workers: 2, Metrics}. Known answer: every
//     RunOne returns nil and harness.experiments.failed is 0. Chosen
//     because it uses the engine as many short explorations, plus
//     randomized stress, PCT, the goroutine form and the real atomics of
//     E8, so per-check set-up costs show here.
//
// A job whose output is wrong or that errs counts as failed, never as a
// fast job: failed / attempted is the fail fraction.
//
// # Metrics
//
// End to end (--trace 0), each the median over the run's jobs unless
// noted:
//
//   - setup_s: from the start of a fresh process of this benchmark to its
//     first call into the workload's entry point, building inputs and run
//     directory included; the median over fifteen such processes.
//   - wall_s: from that call to the verified verdict, or to the last table.
//   - cpu_s: user plus system CPU time of the process during wall_s.
//   - peak_rss_mb: peak resident memory of the process over the run.
//
// Per layer (--trace 1): jobs alternate between untraced and traced. The
// traced ones wrap the protocol in a core.Protocol whose Compile returns a
// timing core.Stepper (timing.go); it counts every Step, Pending and CAS,
// times one call in 64 (less the cost of the clock reads), and allocates
// nothing per call. The engine's obs.Registry gives the explore, dedup
// and store counters. The benchmark times its own calls into CheckWith and
// RunOne; nothing is instrumented inside the program. A metric a workload
// does not exercise reads 0.
// Each layer metric should move this end-to-end metric:
//
//   - explore (executions, replays, useful_frac, self_ns_per_replay,
//     steals, donations, idle_frac): wall_s on verify; cpu_s and
//     executions_per_s on sweep.
//   - core (steps, steps_per_replay, step_self_ns): wall_s on verify,
//     where incremental DFS would cut steps; executions_per_s on sweep.
//   - object (cas_calls, cas_ns; cas_ns includes the fault policy and
//     budget, trace-event recording and the dedup fingerprint update,
//     which all run inside core.Env.CAS): executions_per_s on sweep,
//     wall_s on verify.
//   - reduce (prunes, pending_calls, pending_ns): wall_s on verify; all 0
//     on sweep.
//   - dedup (lookups, leaf_lookups, hits, states, hit_rate): wall_s and
//     peak_rss_mb on verify; all 0 on sweep and tables.
//   - store (saves, bytes, save_ms, write_ms): wall_s and peak_rss_mb on
//     verify only.
//   - harness (E1_s … E10_s, one span per RunOne; explore_executions):
//     wall_s on tables.
//   - executions_per_s: executions over wall_s of the untraced jobs. Read
//     it on sweep, where the slab is fixed; on verify a better reduction
//     lowers it on purpose.
//   - trace.overhead_frac: traced against untraced median wall_s.
//
// On tables the harness builds its protocols itself, so the core, object
// and reduce.pending metrics read 0 there, and idle_frac is taken over the
// whole regeneration.
//
// The ledger and the tracer are not measured: the ledger needs several
// processes, and scripts/bench.sh gates the tracer.
//
// # Surface
//
// perfbench uses only the part of the program's API that is meant to
// outlive the planned simplifications, so that it builds on both sides of
// them: explore.CheckWith and its Outcome, the run.With* options,
// harness.All, harness.RunOne and harness.Options{Seed, Workers, Metrics},
// the core.Protocol, core.Steppable, core.Stepper and core.Env interfaces
// with the core.NewFPlusOne and core.NewStaged constructors, fault.Unbounded,
// word.MaxValue, and obs.Registry. It does not use explore.Config,
// run.Config, run.ExecMode, explore.Check, sim.Arena or Options.Exec.
package main
