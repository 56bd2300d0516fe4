package explore

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/store"
	"repro/internal/trace/export"
)

// TestEngineCancelMidLeaseWorkerSumCompiled is the large-slab variant of
// TestEngineCancelMidLeaseWorkerSum: cancellation strikes workers mid-lease
// on a million-execution cap of compiled replays, and the per-worker
// counters plus the restored count must still sum to the reported total.
// Run under -race via scripts/check.sh.
func TestEngineCancelMidLeaseWorkerSumCompiled(t *testing.T) {
	cfg := benchConfig()
	cfg.MaxExecutions = 1_000_000
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	out, err := (&Engine{Workers: 4, LeaseSize: 16, Metrics: reg}).Check(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Complete {
		t.Error("cancelled run reported complete")
	}
	s := reg.Snapshot()
	if got := s.Counters["explore.executions"]; got != int64(out.Executions) {
		t.Errorf("explore.executions = %d, Outcome.Executions = %d", got, out.Executions)
	}
	sum := sumWorkerCounters(s, ".executions") + s.Counters["explore.executions.restored"]
	if sum != int64(out.Executions) {
		t.Errorf("worker sum + restored = %d, want %d — a lease was lost or double-counted on cancellation", sum, out.Executions)
	}
}

// TestResumeManifestExecForm: every exploration runs the compiled form and
// its manifest says so. A run directory whose manifest records "compiled" —
// what every directory made with the default form holds — resumes to the
// same verdict; one recording "interpreted" was explored by the goroutine
// form, which no longer exists, and is refused with store.ErrMismatch.
func TestResumeManifestExecForm(t *testing.T) {
	fresh, err := CheckWith(context.Background(), violatingOpts(run.WithWorkers(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Violation == nil {
		t.Fatal("expected a violation")
	}

	dir := filepath.Join(t.TempDir(), "compiled")
	if _, err := CheckWith(context.Background(), violatingOpts(run.WithWorkers(2), run.WithCheckpoint(dir, 0))...); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Manifest().Exec; got != "compiled" {
		t.Fatalf("manifest exec = %q, want compiled", got)
	}
	st.Close()
	resumed, err := CheckWith(context.Background(), violatingOpts(run.WithWorkers(2), run.WithResume(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Violation == nil || !reflect.DeepEqual(resumed.Violation.Path, fresh.Violation.Path) {
		t.Fatalf("resumed verdict %+v, want the fresh counterexample %v", resumed.Violation, fresh.Violation.Path)
	}

	m, err := ManifestFor(ConfigFrom(run.NewSettings(violatingOpts()...)), false, false)
	if err != nil {
		t.Fatal(err)
	}
	m.Exec = "interpreted"
	old := filepath.Join(t.TempDir(), "interpreted")
	st, err = store.Create(old, m)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := CheckWith(context.Background(), violatingOpts(run.WithResume(old))...); !errors.Is(err, store.ErrMismatch) {
		t.Fatalf("resume of an interpreted run directory: err = %v, want store.ErrMismatch", err)
	}
}

// TestExplainIgnoresRecordedExec: a trace/v1 capture replays under
// -explain whatever execution form its meta names — "compiled",
// "interpreted" (older captures recorded the form that produced them), or
// none — because every replay runs the one compiled form.
func TestExplainIgnoresRecordedExec(t *testing.T) {
	dir := t.TempDir()
	if _, err := CheckWith(context.Background(), violatingOpts(run.WithTraceDir(dir, 0))...); err != nil {
		t.Fatal(err)
	}
	x, err := export.ReadFile(globOne(t, dir, "violation-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := x.Meta.Run["exec"]; ok {
		t.Fatalf("capture records exec=%q; the execution form is no longer a setting", v)
	}
	for _, exec := range []string{"compiled", "interpreted", ""} {
		if exec == "" {
			delete(x.Meta.Run, "exec")
		} else {
			x.Meta.Run["exec"] = exec
		}
		path := filepath.Join(t.TempDir(), "capture.jsonl")
		if err := export.WriteExecution(path, x); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := ExplainFile(&out, path); err != nil {
			t.Fatalf("exec=%q: %v", exec, err)
		}
		if !strings.Contains(out.String(), "replay        : verified") {
			t.Errorf("exec=%q: replay not verified:\n%s", exec, out.String())
		}
	}
}

// decideOnly hides a protocol's compiled form: only the core.Protocol
// methods of the embedded protocol are promoted.
type decideOnly struct{ core.Protocol }

// TestNonSteppableRefused: every simulated execution runs the compiled
// form, so the drivers refuse a protocol that does not implement
// core.Steppable, and say so.
func TestNonSteppableRefused(t *testing.T) {
	opts := []run.Option{
		run.WithProtocol(decideOnly{core.SingleCAS{}}),
		run.WithDistinctInputs(2),
		run.WithAllObjectsFaulty(fault.Unbounded),
	}
	_, checkErr := CheckWith(context.Background(), opts...)
	_, stressErr := StressWith(10, 1, opts...)
	_, consensusErr := run.ConsensusWith(opts...)
	for name, err := range map[string]error{"CheckWith": checkErr, "StressWith": stressErr, "ConsensusWith": consensusErr} {
		if err == nil || !strings.Contains(err.Error(), "core.Steppable") {
			t.Errorf("%s: err = %v, want a refusal naming core.Steppable", name, err)
		}
	}
}
