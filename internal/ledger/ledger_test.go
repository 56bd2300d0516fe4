package ledger

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock lets tests move lease expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// newFakeClock starts at the real current time so that Merge and Status —
// which always inspect with the real clock — agree with the fake timeline
// until a test explicitly advances it.
func newFakeClock() *fakeClock { return &fakeClock{t: time.Now()} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func join(t *testing.T, dir, owner string, clk *fakeClock) *Ledger {
	t.Helper()
	l, _, err := Join(dir, owner, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if clk != nil {
		l.now = clk.now
	}
	l.poll = time.Millisecond
	return l
}

func TestJoinSeedsRootOnce(t *testing.T) {
	dir := t.TempDir()
	a, created, err := Join(dir, "a", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first join should create the ledger")
	}
	b, created, err := Join(dir, "b", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("second join must adopt, not create")
	}
	if a.Epoch() != b.Epoch() {
		t.Fatalf("epochs diverge: %d vs %d", a.Epoch(), b.Epoch())
	}
	if b.TTL() != time.Second {
		t.Fatalf("joiner TTL = %v, want the creator's 1s", b.TTL())
	}
	ents, err := os.ReadDir(filepath.Join(dir, "ledger", "tasks"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("tasks dir holds %d entries, want exactly the root task", len(ents))
	}
}

func TestClaimExclusiveAndDrain(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	ctx := context.Background()
	ls, err := a.Claim(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ls.ID != TaskID(nil, 0) || ls.Epoch != 0 {
		t.Fatalf("claimed %s@%d, want root@0", ls.ID, ls.Epoch)
	}

	// b sees a's live lease: no task to claim, not drained — times out.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := b.Claim(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("concurrent claim: err = %v, want deadline (blocked on live lease)", err)
	}

	if err := a.Release(ls, &Result{Executions: 42, ElapsedNS: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Claim(ctx); !errors.Is(err, ErrDrained) {
		t.Fatalf("claim after full coverage: err = %v, want ErrDrained", err)
	}

	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 42 || m.Results != 1 || len(m.Participants) != 1 || m.Participants[0] != "a" {
		t.Fatalf("merged = %+v", m)
	}
}

func TestRenewExtendsAndExpiryReclaims(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	ls, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(700 * time.Millisecond)
	if err := a.Renew(ls); err != nil {
		t.Fatal(err)
	}
	// Past the original expiry but within the renewed one: still held.
	clk.advance(700 * time.Millisecond)
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := b.Claim(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("renewed lease was not honored: %v", err)
	}

	// Let it expire: b reclaims the subtree at epoch 1.
	clk.advance(2 * time.Second)
	got, err := b.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != ls.ID || got.Epoch != ls.Epoch+1 {
		t.Fatalf("reclaimed %s@%d, want %s@%d", got.ID, got.Epoch, ls.ID, ls.Epoch+1)
	}

	// The dead claimant is fenced: renew and publish both refuse.
	if err := a.Renew(ls); !errors.Is(err, ErrFenced) {
		t.Fatalf("renew after reclaim: err = %v, want ErrFenced", err)
	}
	if err := a.Release(ls, &Result{Executions: 1}); !errors.Is(err, ErrFenced) {
		t.Fatalf("publish after reclaim: err = %v, want ErrFenced", err)
	}

	// Only b's result counts.
	if err := b.Release(got, &Result{Executions: 9}); err != nil {
		t.Fatal(err)
	}
	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 9 || m.Results != 1 {
		t.Fatalf("merged = %+v, want only the reclaimer's 9 executions", m)
	}
}

func TestExportAndLineageFencing(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	root, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// a carves a child subtree out of its claim and b runs it to completion.
	if err := a.Export(root, []int{1}, 0); err != nil {
		t.Fatal(err)
	}
	child, err := b.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if child.ID != TaskID([]int{1}, 0) {
		t.Fatalf("claimed %s, want the exported child", child.ID)
	}
	if len(child.Lineage) != 1 || child.Lineage[0].ID != root.ID || child.Lineage[0].Epoch != root.Epoch {
		t.Fatalf("child lineage = %+v, want [{root, 0}]", child.Lineage)
	}
	if err := b.Release(child, &Result{Executions: 10}); err != nil {
		t.Fatal(err)
	}

	// a dies mid-claim; its root lease expires and is reclaimed. The re-run
	// covers the WHOLE root subtree, so the child's published result must
	// be excluded by lineage supersession — not double-counted.
	clk.advance(3 * time.Second)
	reclaimed, err := b.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed.ID != root.ID || reclaimed.Epoch != root.Epoch+1 {
		t.Fatalf("reclaimed %s@%d, want root@1", reclaimed.ID, reclaimed.Epoch)
	}
	if err := b.Release(reclaimed, &Result{Executions: 100}); err != nil {
		t.Fatal(err)
	}

	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 100 {
		t.Fatalf("merged executions = %d, want 100 (child of dead lineage excluded)", m.Executions)
	}
	if m.Reclaims == 0 {
		t.Fatal("merge should report the excluded orphan result")
	}
}

// TestExportRefusesOwnClaim: exporting a claim's own (path, floor) would
// bump the task's epoch past the live lease — fencing the exporter — and
// leave a task whose lineage supersedes itself, which debris collection
// would then silently drop. The ledger must refuse it outright.
func TestExportRefusesOwnClaim(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)

	root, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Export(root, root.Path, root.Floor); err == nil {
		t.Fatal("self-export succeeded; want an error")
	}
	// The claim is untouched: still renewable and publishable.
	if err := a.Renew(root); err != nil {
		t.Fatalf("renew after refused self-export: %v", err)
	}
	if err := a.Release(root, &Result{Executions: 5}); err != nil {
		t.Fatalf("release after refused self-export: %v", err)
	}
	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 5 {
		t.Fatalf("merged executions = %d, want 5", m.Executions)
	}
}

func TestAbandonReenqueuesAtNextEpoch(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)

	ls, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Export(ls, []int{0}, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Abandon(ls); err != nil {
		t.Fatal(err)
	}

	// The abandoned task comes back at epoch+1 — fencing the exported
	// child, whose region the re-run covers.
	got, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != ls.ID || got.Epoch != ls.Epoch+1 {
		t.Fatalf("re-claimed %s@%d, want %s@%d", got.ID, got.Epoch, ls.ID, ls.Epoch+1)
	}
	if err := a.Release(got, &Result{Executions: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Claim(context.Background()); !errors.Is(err, ErrDrained) {
		t.Fatalf("err = %v, want ErrDrained (child task superseded by abandon bump)", err)
	}
	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 5 {
		t.Fatalf("merged executions = %d, want 5", m.Executions)
	}
}

func TestMergeRefusesWhileWorkRemains(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)

	// Unclaimed root task.
	var inc *IncompleteError
	if _, err := Merge(dir, false); !errors.As(err, &inc) || inc.Tasks != 1 {
		t.Fatalf("err = %v, want IncompleteError{Tasks: 1}", err)
	}

	// Live lease.
	ls, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(dir, false); !errors.As(err, &inc) || inc.LiveLeases != 1 {
		t.Fatalf("err = %v, want IncompleteError{LiveLeases: 1}", err)
	}

	// Expired, unreclaimed lease. Merge inspects with the real clock, so
	// move the lease's expiry into the real past via the fake clock delta.
	clk.advance(-2 * time.Hour)
	if err := a.Renew(ls); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(dir, false); !errors.As(err, &inc) || inc.ExpiredLeases != 1 {
		t.Fatalf("err = %v, want IncompleteError{ExpiredLeases: 1}", err)
	}
}

func TestMergeCounterexampleOrdering(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	root, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Export(root, []int{2}, 0); err != nil {
		t.Fatal(err)
	}
	child, err := b.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The child (deeper region, lex-greater path) finds a SHORTER schedule;
	// the root finds the lex-least path.
	if err := b.Release(child, &Result{
		Executions: 3, Violations: 1, HasBest: true, BestPath: []int{2, 0}, BestLen: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(root, &Result{
		Executions: 7, Violations: 2, HasBest: true, BestPath: []int{0, 1}, BestLen: 9,
	}); err != nil {
		t.Fatal(err)
	}

	lex, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !lex.HasBest || lex.BestPath[0] != 0 {
		t.Fatalf("default mode best = %+v, want lex-least [0 1]", lex.BestPath)
	}
	ex, err := Merge(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.HasBest || ex.BestLen != 4 {
		t.Fatalf("exhaustive mode best len = %d, want 4 (shortest schedule)", ex.BestLen)
	}
	if lex.Violations != 3 || lex.Executions != 10 {
		t.Fatalf("merged = %+v, want violations 3, executions 10", lex)
	}
}

func TestStatusReportsParticipantsAndLeases(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	root, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Export(root, []int{0}, 0); err != nil {
		t.Fatal(err)
	}
	child, err := b.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Release(child, &Result{Executions: 11}); err != nil {
		t.Fatal(err)
	}

	rs, err := Status(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Participants) != 2 {
		t.Fatalf("participants = %v, want a and b", rs.Participants)
	}
	// a still holds the root lease (expiry ~1s out on the real clock Status
	// inspects with).
	if rs.LeasesLive+rs.LeasesExpired != 1 {
		t.Fatalf("leases = %d live + %d expired, want 1 total", rs.LeasesLive, rs.LeasesExpired)
	}
	if rs.Results != 1 || rs.MergedExecutions != 11 {
		t.Fatalf("status = %+v, want 1 result / 11 merged executions", rs)
	}
	if rs.Drained {
		t.Fatal("status claims drained while a lease is held")
	}
}

// TestClaimRaceSingleWinner hammers one task with concurrent claimers from
// several handles: exactly one wins each round.
func TestClaimRaceSingleWinner(t *testing.T) {
	dir := t.TempDir()
	handles := make([]*Ledger, 8)
	for i := range handles {
		handles[i] = join(t, dir, string(rune('a'+i)), nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var mu sync.Mutex
	winners := 0
	var wg sync.WaitGroup
	for _, h := range handles {
		wg.Add(1)
		go func(l *Ledger) {
			defer wg.Done()
			ls, err := l.Claim(ctx)
			if err != nil {
				return // drained or timed out: someone else won
			}
			mu.Lock()
			winners++
			mu.Unlock()
			l.Release(ls, &Result{Executions: 1})
		}(h)
	}
	wg.Wait()
	if winners != 1 {
		t.Fatalf("%d claim winners, want exactly 1", winners)
	}
	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 1 {
		t.Fatalf("merged executions = %d, want 1", m.Executions)
	}
}

// TestClaimIgnoresTempDebris: a participant killed between writing a lease
// through its temp file and removing that temp leaves a complete, parseable
// "lease-<id>-e<epoch>.json.tmp…" behind. It is not a lease — nothing would ever
// remove it under the lease's own name — so the survivors must reclaim the
// subtree past it instead of spinning on a lease that cannot be reaped.
func TestClaimIgnoresTempDebris(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	ls, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	leases := filepath.Join(dir, "ledger", "leases")
	data, err := os.ReadFile(filepath.Join(leases, leaseName(ls.ID, ls.Epoch)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(leases, leaseName(ls.ID, ls.Epoch)+".tmp123"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	clk.advance(2 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := b.Claim(ctx)
	if err != nil {
		t.Fatalf("claim past the temp debris: %v", err)
	}
	if got.ID != ls.ID || got.Epoch != ls.Epoch+1 {
		t.Fatalf("reclaimed %s@%d, want %s@%d", got.ID, got.Epoch, ls.ID, ls.Epoch+1)
	}
}

// TestStaleReapCannotDoubleClaim: two survivors reap the same expired lease.
// One reaps and claims the re-enqueued subtree; the other acts on the
// listing it took before that. Its stale reap must neither take the live
// claim's lease away nor let it claim the same (subtree, epoch) a second
// time — two owners of one epoch would both export children under the same
// lineage, and the merge would count those regions twice.
func TestStaleReapCannotDoubleClaim(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	v := join(t, dir, "victim", clk)
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	dead, err := v.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)

	stale, err := b.scan()
	if err != nil {
		t.Fatal(err)
	}
	live, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if live.ID != dead.ID || live.Epoch != dead.Epoch+1 {
		t.Fatalf("a claimed %s@%d, want the reclaimed %s@%d", live.ID, live.Epoch, dead.ID, dead.Epoch+1)
	}
	if _, err := b.reap(stale); err != nil {
		t.Fatal(err)
	}

	if err := a.Renew(live); err != nil {
		t.Fatalf("the stale reap fenced the live claim: %v", err)
	}
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if got, err := b.Claim(short); err == nil {
		t.Fatalf("b claimed %s@%d while a holds %s@%d", got.ID, got.Epoch, live.ID, live.Epoch)
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
}

// TestClaimWaitsForRootSeed: the creator links the marker before it seeds
// the root task, so a joiner can find a marker and nothing else. That is a
// ledger being created, not a broken one: Claim waits for the seed, and
// reports an empty ledger only once a TTL has passed since creation.
func TestClaimWaitsForRootSeed(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	root := filepath.Join(dir, "ledger", "tasks", taskName(TaskID(nil, 0)))
	if err := os.Remove(root); err != nil {
		t.Fatal(err)
	}

	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := a.Claim(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("claim on a ledger still being seeded: err = %v, want to wait", err)
	}

	clk.advance(2 * time.Second)
	_, err := a.Claim(context.Background())
	if err == nil || !strings.Contains(err.Error(), "empty ledger") {
		t.Fatalf("claim a TTL after creation: err = %v, want an empty-ledger error", err)
	}
}
