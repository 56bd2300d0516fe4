// Distributed-exploration CLI tests: several modelcheck processes cooperate
// through one -ledger run directory, one of them is SIGKILLed while holding
// a lease, and the merged verdict must match the single-process reference
// exactly — same execution count, same violation, same lex-least schedule.
package repro_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startWorker launches a modelcheck ledger participant in the background.
func startWorker(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), "modelcheck"), args...)
	out := &bytes.Buffer{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// waitWorker reaps a background participant; ledger workers exit 0 when their
// published claims hold no counterexample and 1 when they do — both are
// successful terminations.
func waitWorker(t *testing.T, name string, cmd *exec.Cmd) {
	t.Helper()
	err := cmd.Wait()
	if err == nil {
		return
	}
	if ee, ok := err.(*exec.ExitError); ok && (ee.ExitCode() == 0 || ee.ExitCode() == 1) {
		return
	}
	t.Fatalf("worker %s: %v\n%s", name, err, cmd.Stdout)
}

// waitForLease blocks until the ledger in the run directory holds a live
// lease — the victim has claimed its root subtree — and every extra file
// pattern under the directory matches, failing the test otherwise.
func waitForLease(t *testing.T, dir string, extra ...string) {
	t.Helper()
	patterns := append([]string{filepath.Join("ledger", "leases", "lease-*.json")}, extra...)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		ready := true
		for _, p := range patterns {
			if m, _ := filepath.Glob(filepath.Join(dir, p)); len(m) == 0 {
				ready = false
			}
		}
		if ready {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("the victim never claimed a subtree (waiting for %v)", patterns)
}

// requireKilledBy fails the test unless the reaped victim was ended by sig:
// a victim that exited on its own before the signal leaves a drained
// ledger, and the survivors would merge it without reclaiming anything.
func requireKilledBy(t *testing.T, waitErr error, sig syscall.Signal) {
	t.Helper()
	if ee, ok := waitErr.(*exec.ExitError); ok {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == sig {
			return
		}
	}
	t.Fatalf("the victim exited (%v) before the %v landed; its lease was never forfeited", waitErr, sig)
}

// ledgerArgs is a verified sweep of 302,844 executions: long enough that a
// signal sent once the victim holds its root lease lands while the lease
// is live, short enough for the survivors to finish in well under a second
// of exploration.
var ledgerArgs = []string{"-proto", "figure2", "-f", "3", "-n", "3", "-faulty", "3", "-unbounded", "-max", "1000000"}

// TestCLILedgerKilledWorkerVerifiedMatchesSingle: a three-process ledger run
// in which the first worker — the one that created the ledger and claimed the
// root subtree — is SIGKILLed mid-lease. The survivors must reclaim its
// forfeited subtree after TTL expiry and drive the sweep to the exact
// single-process verdict: VERIFIED with an identical execution count.
func TestCLILedgerKilledWorkerVerifiedMatchesSingle(t *testing.T) {
	ref, code := runCLI(t, "modelcheck", ledgerArgs...)
	if code != 0 || !strings.Contains(ref, "VERIFIED") {
		t.Fatalf("reference run: exit %d:\n%s", code, ref)
	}
	refExecs := cliExecutions(t, ref)

	dir := filepath.Join(t.TempDir(), "run")
	// The victim creates the ledger with one worker and is killed as soon
	// as its root lease exists, while most of the tree is unexplored.
	victim := startWorker(t, append(append([]string{}, ledgerArgs...),
		"-workers", "1", "-ledger", dir, "-worker-id", "victim",
		"-lease-ttl", "400ms")...)
	waitForLease(t, dir)
	victim.Process.Kill() //nolint:errcheck // the wait status below tells
	requireKilledBy(t, victim.Wait(), syscall.SIGKILL)

	a := startWorker(t, "-ledger", dir, "-worker-id", "survivor-a", "-max", "1000000")
	b := startWorker(t, "-ledger", dir, "-worker-id", "survivor-b", "-max", "1000000")
	waitWorker(t, "survivor-a", a)
	waitWorker(t, "survivor-b", b)

	out, code := runCLI(t, "modelcheck", "-ledger-finalize", dir)
	if code != 0 {
		t.Fatalf("finalize: exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "VERIFIED") || !strings.Contains(out, "(complete: true)") {
		t.Errorf("merged verdict must be a complete VERIFIED:\n%s", out)
	}
	if got := cliExecutions(t, out); got != refExecs {
		t.Errorf("merged executions = %d, single-process reference = %d", got, refExecs)
	}
}

// TestCLILedgerViolationCanonicalCounterexample: a two-process ledger run
// over a violating tree must finalize to the identical counterexample — same
// violation, same lex-least schedule — as the uninterrupted single-process
// search, whichever process happened to find it.
func TestCLILedgerViolationCanonicalCounterexample(t *testing.T) {
	args := []string{"-proto", "figure3", "-f", "1", "-t", "1", "-n", "3"}
	ref, code := runCLI(t, "modelcheck", args...)
	if code != 1 {
		t.Fatalf("reference search: exit %d, want 1:\n%s", code, ref)
	}
	wantSchedule := regexp.MustCompile(`schedule: \[[0-9 ]+\]`).FindString(ref)
	if wantSchedule == "" {
		t.Fatalf("reference output has no schedule line:\n%s", ref)
	}

	dir := filepath.Join(t.TempDir(), "run")
	// Both workers carry the full flags: two racing creators resolve to one
	// manifest either way, but a flagless joiner could race the creator and
	// lose with its defaults (flagless joining is covered by the
	// killed-worker test, where the manifest exists before the survivors).
	a := startWorker(t, append(append([]string{}, args...),
		"-ledger", dir, "-worker-id", "a")...)
	b := startWorker(t, append(append([]string{}, args...),
		"-ledger", dir, "-worker-id", "b")...)
	waitWorker(t, "a", a)
	waitWorker(t, "b", b)

	out, code := runCLI(t, "modelcheck", "-ledger-finalize", dir)
	if code != 1 {
		t.Fatalf("finalize: exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "VIOLATION (consistency)") {
		t.Errorf("merged verdict missing the violation:\n%s", out)
	}
	if !strings.Contains(out, wantSchedule) {
		t.Errorf("merged counterexample differs from the single-process one:\nwant %s\ngot:\n%s",
			wantSchedule, out)
	}
}

// TestCLILedgerFinalizeIncomplete: finalizing while a subtree is still
// pending (here: the only worker capped out and abandoned its claim) must
// refuse with the incompleteness report and exit 2.
func TestCLILedgerFinalizeIncomplete(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	out, code := runCLI(t, "modelcheck",
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "2",
		"-ledger", dir, "-worker-id", "capped", "-max", "2")
	if code != 0 {
		t.Fatalf("capped worker: exit %d:\n%s", code, out)
	}
	out, code = runCLI(t, "modelcheck", "-ledger-finalize", dir)
	if code != 2 || !strings.Contains(out, "incomplete") {
		t.Errorf("incomplete finalize: exit %d, want 2 with an incompleteness report:\n%s", code, out)
	}
}

// TestCLILedgerRefusesContradictionsAndCombos: a ledger run directory joins
// only with the settings it was created with, and the ledger flags are
// mutually exclusive with checkpoint/resume/finalize.
func TestCLILedgerRefusesContradictionsAndCombos(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	out, code := runCLI(t, "modelcheck",
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "2",
		"-ledger", dir, "-worker-id", "creator")
	if code != 0 {
		t.Fatalf("creator: exit %d:\n%s", code, out)
	}
	if out, code = runCLI(t, "modelcheck", "-ledger", dir, "-proto", "figure1"); code != 2 ||
		!strings.Contains(out, "contradicts") {
		t.Errorf("contradicting join: exit %d, want 2 with a contradiction message:\n%s", code, out)
	}
	if out, code = runCLI(t, "modelcheck", "-ledger", dir, "-checkpoint", dir); code != 2 {
		t.Errorf("-ledger with -checkpoint: exit %d, want 2:\n%s", code, out)
	}
	if out, code = runCLI(t, "modelcheck", "-ledger-finalize", dir, "-ledger", dir); code != 2 {
		t.Errorf("-ledger-finalize with -ledger: exit %d, want 2:\n%s", code, out)
	}
	if out, code = runCLI(t, "modelcheck", "-ledger-finalize", filepath.Join(t.TempDir(), "nope")); code != 2 {
		t.Errorf("finalize without a run: exit %d, want 2:\n%s", code, out)
	}
}
