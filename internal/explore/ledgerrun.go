package explore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dedup"
	"repro/internal/fault"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/store"
)

// exportLowWater is the ledger-side starvation threshold: while fewer
// unclaimed tasks than this are on offer, claim holders export subtrees so
// joining processes find work quickly.
const exportLowWater = 4

// checkLedger is Check in distributed mode: a claim loop over the work
// ledger. Each claimed subtree runs as its own engineRun (full in-process
// worker pool, fresh violation bound, fresh frontier seeded with the
// claim), flanked by a renewal heartbeat (TTL/3) and an export pump that
// offers surplus frontier tasks to other processes. The claim's outcome is
// published exactly at the lease boundary: Release on success, Abandon on
// cancellation or cap exhaustion, silent discard when fenced — so merged
// counts stay exact whatever this process's fate.
//
// The returned Outcome describes THIS process's contribution (its
// executions, its best counterexample candidate); the global verdict is
// the ledger merge (FinalizeLedger), identical to a single-process run.
func (e *Engine) checkLedger(ctx context.Context, cfg Config) (*Outcome, error) {
	kind, cap, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	if cfg.FixedPolicy != nil {
		return nil, fmt.Errorf("explore: the ledger requires the checker's own fault policy, not FixedPolicy")
	}
	if e.Store != nil {
		return nil, fmt.Errorf("explore: Ledger and Store are mutually exclusive — published results are the ledger's durable state")
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reg := e.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	leaseSize := int64(e.LeaseSize)
	if leaseSize <= 0 {
		leaseSize = DefaultLeaseSize
	}
	m := newRunMetrics(reg, workers)
	reg.Gauge("explore.workers").Set(int64(workers))
	var set *dedup.Set
	if e.Dedup {
		set = dedup.NewSet(0)
		set.Register(reg)
	}
	e.Ledger.Instrument(reg, e.Events)

	pr := &ledgerProcess{
		eng: e, cfg: cfg, kind: kind,
		cap: cap, workers: workers, leaseSize: leaseSize,
		m: m, set: set, reg: reg, ev: e.Events, start: time.Now(),
	}
	pr.base.execs = m.execs.Load()
	pr.base.violations = m.violations.Load()
	pr.base.donations = m.donations.Load()
	pr.base.steals = m.steals.Load()
	// Stamp every span this process records with its fleet identity, so
	// exported spans from different OS processes correlate by (worker,
	// ledger epoch) alongside the per-claim (id, epoch) args.
	rec := e.Tracer.Recorder()
	rec.Annotate("worker", e.Ledger.Owner())
	rec.Annotate("ledger_epoch", e.Ledger.Epoch())
	stopProgress := pr.startProgress()
	defer stopProgress()
	stopSnapshots := pr.startSnapshots()
	defer stopSnapshots()
	pr.ev.Emit(obs.Info, "run.start", map[string]any{
		"workers": workers, "cap": cap, "dedup": e.Dedup,
		"ledger": true, "owner": e.Ledger.Owner(),
	})

	drained := false
	capped := false
	var runErr error
loop:
	for {
		if ctx.Err() != nil {
			break
		}
		if pr.budget() <= 0 {
			capped = true
			break
		}
		lease, err := e.Ledger.Claim(ctx)
		switch {
		case errors.Is(err, ledger.ErrDrained):
			drained = true
			break loop
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			break loop
		case err != nil:
			runErr = err
			break loop
		}
		co, err := pr.runClaim(ctx, lease)
		if err != nil {
			runErr = err
			break loop
		}
		if co.capped {
			capped = true
			break loop
		}
		if co.published {
			pr.fold(co)
		}
	}
	if runErr != nil {
		return nil, runErr
	}

	out := &Outcome{
		Executions:       int(m.execs.Load() - pr.base.execs),
		Violation:        pr.best,
		MaxProcSteps:     pr.maxSteps,
		MaxFaults:        pr.maxFaults,
		Workers:          workers,
		Elapsed:          time.Since(pr.start),
		ViolationLatency: pr.firstAt,
		Donations:        m.donations.Load() - pr.base.donations,
		Steals:           m.steals.Load() - pr.base.steals,
	}
	if set != nil {
		st := set.Stats()
		out.Dedup = &st
	}
	if err := ctx.Err(); err != nil {
		pr.ev.Emit(obs.Warn, "run.done", map[string]any{
			"executions": out.Executions, "complete": false, "cancelled": true,
			"ledger": true, "elapsed_ms": out.Elapsed.Milliseconds(),
		})
		return out, err
	}
	// Drained means GLOBALLY complete: no tasks, no leases, every subtree's
	// result published. Mirror Check's semantics for the violation case.
	out.Complete = drained && !capped && (pr.best == nil || e.Exhaustive)
	pr.ev.Emit(obs.Info, "run.done", map[string]any{
		"executions": out.Executions, "complete": out.Complete, "drained": drained,
		"capped": capped, "ledger": true, "elapsed_ms": out.Elapsed.Milliseconds(),
	})
	return out, nil
}

// ledgerProcess is the per-OS-process state of a distributed exploration:
// the process-scoped counter bases (claims come and go, the registry
// accumulates) and the fold of published claim outcomes.
type ledgerProcess struct {
	eng       *Engine
	cfg       Config
	kind      fault.Kind
	cap       int
	workers   int
	leaseSize int64
	m         *runMetrics
	set       *dedup.Set
	reg       *obs.Registry
	ev        *obs.Log
	start     time.Time
	base      struct{ execs, violations, donations, steals int64 }

	cur atomic.Pointer[engineRun] // the live claim's run, for progress
	// claim is the live claim as published in fleet snapshots. Updated
	// with immutable copies on acquire and on every renewal — the snapshot
	// publisher reads it from its own goroutine, so it must never alias
	// the Lease struct the heartbeat mutates in place.
	claim atomic.Pointer[obs.ClaimInfo]

	best      *Counterexample // best across PUBLISHED claims only
	firstAt   time.Duration
	maxSteps  int
	maxFaults int
}

// budget is the process's remaining execution allowance: its cap minus
// every execution it has run, across claims, published or discarded.
func (pr *ledgerProcess) budget() int64 {
	return int64(pr.cap) - (pr.m.execs.Load() - pr.base.execs)
}

// fold merges a published claim's outcome into the process aggregate.
func (pr *ledgerProcess) fold(co *claimOutcome) {
	if co.maxSteps > pr.maxSteps {
		pr.maxSteps = co.maxSteps
	}
	if co.maxFaults > pr.maxFaults {
		pr.maxFaults = co.maxFaults
	}
	if co.best != nil {
		if pr.best == nil || (!pr.eng.Exhaustive && lexLess(co.best.Path, pr.best.Path)) ||
			(pr.eng.Exhaustive && betterExhaustive(co.best, pr.best)) {
			pr.best = co.best
		}
		if pr.firstAt == 0 || (co.firstAt != 0 && co.firstAt < pr.firstAt) {
			pr.firstAt = co.firstAt
		}
	}
}

func betterExhaustive(cand, cur *Counterexample) bool {
	if len(cand.Schedule) != len(cur.Schedule) {
		return len(cand.Schedule) < len(cur.Schedule)
	}
	return lexLess(cand.Path, cur.Path)
}

// claimOutcome is the fate of one ledger claim.
type claimOutcome struct {
	published bool // Release succeeded; the claim's counts are in the ledger
	fenced    bool // superseded mid-claim; all work discarded
	abandoned bool // returned unfinished (cancellation / cap)
	capped    bool // the PROCESS budget ran out during this claim
	best      *Counterexample
	firstAt   time.Duration
	maxSteps  int
	maxFaults int
}

// runClaim enumerates one claimed subtree with the full worker pool. The
// lease is renewed at TTL/3 for the duration; losing it (ErrFenced) cancels
// the claim context and discards everything the claim tallied. Surplus
// frontier tasks are exported while the ledger runs dry. Exactly one of
// Release / Abandon / fenced-discard ends the lease.
func (pr *ledgerProcess) runClaim(ctx context.Context, lease *ledger.Lease) (*claimOutcome, error) {
	l := pr.eng.Ledger
	claimCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The claim's fleet-visible lifecycle: an immutable ClaimInfo for the
	// snapshot publisher (replaced wholesale on every renewal — the
	// heartbeat goroutine mutates the Lease in place, so the publisher
	// must never read it), claim.* events keyed by (claim id, epoch,
	// worker, ledger epoch), and one "claim" span per claim so a subtree's
	// crash → reap → re-enqueue at epoch+1 can be followed across the
	// processes' exported artifacts.
	acquired := time.Now()
	pr.claim.Store(&obs.ClaimInfo{
		ID: lease.ID, Epoch: lease.Epoch,
		StartedUnixNano:      acquired.UnixNano(),
		LeaseExpiresUnixNano: lease.ExpiresUnixNano,
	})
	defer pr.claim.Store((*obs.ClaimInfo)(nil))
	pr.ev.Emit(obs.Info, "claim.acquire", map[string]any{
		"claim": lease.ID, "epoch": lease.Epoch, "worker": l.Owner(),
		"ledger_epoch": l.Epoch(), "path_len": len(lease.Path), "floor": lease.Floor,
		"expires_unix_nano": lease.ExpiresUnixNano,
	})
	rec := pr.eng.Tracer.Recorder()
	spanStart := rec.Begin()

	r := &engineRun{
		cfg:         pr.cfg,
		kind:        pr.kind,
		cap:         pr.cap,
		stopOnFirst: !pr.eng.Exhaustive,
		// Overfill the local frontier by the ledger's low-water mark so
		// the export pump finds surplus subtrees to give away without
		// racing local workers for the last queued task.
		lowWater:  2*pr.workers + exportLowWater,
		leaseSize: pr.leaseSize,
		set:       pr.set,
		tr:        pr.eng.Tracer,
		start:     time.Now(),
		cancel:    cancel,
		m:         pr.m,
		ev:        pr.ev,
	}
	r.base.execs = pr.m.execs.Load()
	r.base.violations = pr.m.violations.Load()
	r.base.donations = pr.m.donations.Load()
	r.base.steals = pr.m.steals.Load()
	var dedupBase dedup.Stats
	if pr.set != nil {
		dedupBase = pr.set.Stats()
	}
	r.pool = newCapPool(pr.budget())
	root := task{path: append([]int(nil), lease.Path...), floor: lease.Floor}
	r.fr = newFrontier([]task{root}, pr.workers)
	r.m.depth.Observe(float64(len(root.path)))
	pr.cur.Store(r)
	defer pr.cur.Store((*engineRun)(nil))

	// settle seals the claim's observable lifecycle: one claim.release
	// event and one "claim" span, both carrying the disposition the lease
	// actually ended with (published | fenced | abandoned | error).
	settle := func(disposition string) {
		execs := pr.m.execs.Load() - r.base.execs
		pr.ev.Emit(obs.Info, "claim.release", map[string]any{
			"claim": lease.ID, "epoch": lease.Epoch, "worker": l.Owner(),
			"ledger_epoch": l.Epoch(), "disposition": disposition, "executions": execs,
		})
		rec.End("claim", "ledger", -1, -1, spanStart, map[string]any{
			"claim": lease.ID, "epoch": lease.Epoch,
			"disposition": disposition, "executions": execs,
		})
	}

	go func() {
		<-claimCtx.Done()
		r.fr.abort()
		r.pool.abort()
	}()

	// Renewal heartbeat: keep the lease alive at TTL/3; on fencing, stop
	// the claim immediately — its work can no longer be published.
	var fenced atomic.Bool
	hbStop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		period := l.TTL() / 3
		if period <= 0 {
			period = time.Second
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-claimCtx.Done():
				return
			case <-tick.C:
				if err := l.Renew(lease); err != nil {
					if errors.Is(err, ledger.ErrFenced) {
						fenced.Store(true)
						cancel()
						return
					}
					// Transient I/O: the lease may still be within TTL;
					// retry next tick rather than killing the claim.
					pr.ev.Emit(obs.Warn, "ledger.renew_error", map[string]any{
						"id": lease.ID, "err": err.Error(),
					})
					continue
				}
				// A fresh immutable copy for the snapshot publisher: the
				// renewed expiry is read here, in the renewing goroutine,
				// never from the publisher's.
				pr.claim.Store(&obs.ClaimInfo{
					ID: lease.ID, Epoch: lease.Epoch,
					StartedUnixNano:      acquired.UnixNano(),
					LeaseExpiresUnixNano: lease.ExpiresUnixNano,
				})
				pr.ev.Emit(obs.Debug, "claim.renew", map[string]any{
					"claim": lease.ID, "epoch": lease.Epoch, "worker": l.Owner(),
					"expires_unix_nano": lease.ExpiresUnixNano,
				})
			}
		}
	}()
	// Export pump: while the ledger offers fewer tasks than other processes
	// could claim, give away the oldest (largest) queued subtree. The pump
	// runs at a fraction of the TTL, matching the cadence at which idle
	// participants poll for work.
	hb.Add(1)
	go func() {
		defer hb.Done()
		pump := l.TTL() / 20
		if pump > 50*time.Millisecond {
			pump = 50 * time.Millisecond
		}
		if pump < 2*time.Millisecond {
			pump = 2 * time.Millisecond
		}
		tick := time.NewTicker(pump)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-claimCtx.Done():
				return
			case <-tick.C:
				if !l.Starving(exportLowWater) {
					continue
				}
				t, ok := r.fr.takeOldest()
				if !ok {
					continue
				}
				if ledger.TaskID(t.path, t.floor) == lease.ID {
					// The claim's own root task, still queued before any
					// worker popped it. Exporting it would fence this very
					// claim; keep it local.
					r.fr.settleExport(&t)
					continue
				}
				if err := l.Export(lease, t.path, t.floor); err != nil {
					r.fr.settleExport(&t)
				} else {
					r.fr.settleExport(nil)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < pr.workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(claimCtx, w)
		}(i)
	}
	wg.Wait()
	close(hbStop)
	hb.Wait()

	r.mu.Lock()
	runErr, best := r.err, r.best
	maxSteps, maxFaults, firstAt := r.maxSteps, r.maxFaults, r.firstAt
	r.mu.Unlock()
	co := &claimOutcome{
		best: best, firstAt: firstAt, maxSteps: maxSteps, maxFaults: maxFaults,
	}
	abandon := func() error {
		if err := l.Abandon(lease); err != nil {
			settle("error")
			return err
		}
		pr.ev.Emit(obs.Info, "claim.abandon", map[string]any{
			"claim": lease.ID, "epoch": lease.Epoch, "worker": l.Owner(),
		})
		settle("abandoned")
		return nil
	}
	switch {
	case runErr != nil:
		// Framework error: put the subtree back for someone else before
		// failing this process.
		l.Abandon(lease)
		settle("error")
		return nil, runErr
	case fenced.Load():
		// Renew already dropped the lease; every counter this claim moved
		// is excluded simply by never publishing.
		co.fenced = true
		settle("fenced")
		return co, nil
	case ctx.Err() != nil:
		if err := abandon(); err != nil {
			return nil, err
		}
		co.abandoned = true
		return co, nil
	case r.capped.Load():
		// The PROCESS budget ran out mid-claim: the subtree is not fully
		// enumerated, so its partial tally must not be published.
		if err := abandon(); err != nil {
			return nil, err
		}
		co.abandoned = true
		co.capped = true
		return co, nil
	}

	res := &ledger.Result{
		Executions:   pr.m.execs.Load() - r.base.execs,
		Violations:   pr.m.violations.Load() - r.base.violations,
		MaxProcSteps: maxSteps,
		MaxFaults:    maxFaults,
		ElapsedNS:    time.Since(r.start).Nanoseconds(),
	}
	if best != nil {
		res.HasBest = true
		res.BestPath = append([]int(nil), best.Path...)
		res.BestLen = len(best.Schedule)
	}
	if pr.set != nil {
		st := pr.set.Stats()
		res.DedupHits = st.Hits - dedupBase.Hits
	}
	switch err := l.Release(lease, res); {
	case errors.Is(err, ledger.ErrFenced):
		co.fenced = true
		co.best = nil
		settle("fenced")
		return co, nil
	case err != nil:
		settle("error")
		return nil, err
	}
	pr.ev.Emit(obs.Info, "claim.publish", map[string]any{
		"claim": lease.ID, "epoch": lease.Epoch, "worker": l.Owner(),
		"executions": res.Executions, "violations": res.Violations, "has_best": res.HasBest,
	})
	settle("published")
	co.published = true
	return co, nil
}

// startProgress reports process-cumulative throughput across claims (the
// per-claim engineRuns come and go; the ticker outlives them all).
func (pr *ledgerProcess) startProgress() func() {
	e := pr.eng
	if e.Progress == nil {
		return func() {}
	}
	every := e.ProgressEvery
	if every <= 0 {
		every = 2 * time.Second
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(every)
		defer tick.Stop()
		var lastExecs int64
		lastTime := pr.start
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				execs := pr.m.execs.Load() - pr.base.execs
				rate := float64(execs-lastExecs) / now.Sub(lastTime).Seconds()
				lastExecs, lastTime = execs, now
				p := Progress{
					Executions: execs,
					Rate:       rate,
					Violations: pr.m.violations.Load() - pr.base.violations,
					Elapsed:    time.Since(pr.start),
					Donations:  pr.m.donations.Load() - pr.base.donations,
					Steals:     pr.m.steals.Load() - pr.base.steals,
				}
				if cur := pr.cur.Load(); cur != nil {
					p.Frontier = cur.fr.pending()
				}
				if pr.set != nil {
					p.Dedup = pr.set.Stats()
				}
				if snap := pr.m.depth.Snapshot(); snap.Count > 0 {
					p.DepthP50 = snap.Quantile(0.5)
					p.DepthP99 = snap.Quantile(0.99)
				}
				e.Progress(p)
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// startSnapshots periodically publishes this worker's fleet snapshot —
// registry dump, heartbeat, current claim — into <run>/obs/ via the
// store's atomic write discipline, at the lease renewal cadence (TTL/3).
// A final snapshot on stop records the worker's finished state, so a
// cleanly exited worker shows its full contribution rather than a stale
// mid-run heartbeat. Publishing is best-effort: a failed write is a warn
// event, never a run failure.
func (pr *ledgerProcess) startSnapshots() func() {
	e := pr.eng
	if !e.FleetSnapshots || e.Ledger == nil {
		return func() {}
	}
	dir, err := store.ObsDir(e.Ledger.RunDir())
	if err != nil {
		pr.ev.Emit(obs.Warn, "fleet.snapshot_error", map[string]any{"err": err.Error()})
		return func() {}
	}
	name := store.WorkerSnapshotName(e.Ledger.Owner())
	period := e.Ledger.TTL() / 3
	if period <= 0 {
		period = time.Second
	}
	publish := func() {
		ws := &obs.WorkerSnapshot{
			Schema:            obs.WorkerSnapshotSchema,
			Worker:            e.Ledger.Owner(),
			PID:               os.Getpid(),
			LedgerEpoch:       e.Ledger.Epoch(),
			StartedUnixNano:   pr.start.UnixNano(),
			HeartbeatUnixNano: time.Now().UnixNano(),
			Claim:             pr.claim.Load(),
			Metrics:           pr.reg.Snapshot(),
		}
		data, err := ws.Encode()
		if err == nil {
			err = store.WriteFileAtomic(dir, name, data)
		}
		if err != nil {
			pr.ev.Emit(obs.Warn, "fleet.snapshot_error", map[string]any{"err": err.Error()})
		}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(period)
		defer tick.Stop()
		publish() // an immediately visible worker beats a TTL/3 blind spot
		for {
			select {
			case <-done:
				publish()
				return
			case <-tick.C:
				publish()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// FinalizeLedger deterministically merges every published result in the run
// directory's ledger into the global outcome — identical to a
// single-process run's verdict: summed executions (exact for covering
// sweeps with dedup off, "modulo dedup" otherwise), maxima folded by max,
// and the canonical counterexample reconstructed by replaying the merged
// mode-least violating path. It refuses (*ledger.IncompleteError) while
// unclaimed tasks or leases remain. Outcome.Workers reports the number of
// participant processes.
func FinalizeLedger(cfg Config, runDir string, exhaustive bool) (*Outcome, *ledger.Merged, error) {
	m, err := ledger.Merge(runDir, exhaustive)
	if err != nil {
		return nil, nil, err
	}
	out := &Outcome{
		Executions:   int(m.Executions),
		MaxProcSteps: m.MaxProcSteps,
		MaxFaults:    m.MaxFaults,
		Workers:      len(m.Participants),
		Elapsed:      time.Duration(m.ElapsedNS),
		Complete:     !m.Capped && (!m.HasBest || exhaustive),
	}
	if m.HasBest {
		ce, err := Replay(cfg, m.BestPath)
		if err != nil {
			return nil, nil, fmt.Errorf("explore: finalize: replaying merged counterexample: %w", err)
		}
		if ce.Verdict.OK() {
			return nil, nil, fmt.Errorf("explore: finalize: merged counterexample path %v no longer violates — the run directory does not match this configuration", m.BestPath)
		}
		out.Violation = ce
	}
	return out, m, nil
}
