// Package ledger turns a run directory into a multi-process work ledger:
// several OS processes cooperate on one exploration by claiming subtree
// tasks, publishing per-claim outcome records, and reclaiming the work of
// participants that died mid-claim. A deterministic merge folds every
// published record into the verdict a single-process run would have
// produced — same execution count (modulo state dedup), same lex-least
// counterexample — for any participant count and any interleaving of
// crashes.
//
// # Layout
//
// Under the run directory (which also holds the store manifest), the ledger
// occupies one subdirectory:
//
//	ledger/ledger.json          marker: ledger epoch, lease TTL
//	ledger/tasks/task-<id>.json unclaimed subtree tasks
//	ledger/leases/lease-<id>-e<epoch>.json
//	ledger/results/result-<id>-e<epoch>.json
//
// A task is a subtree of the execution tree — a choice-path prefix plus a
// backtracking floor, exactly the engine's frontier granule. Its id is a
// hash of (path, floor), so the same region always maps to the same file
// name regardless of which participant touches it.
//
// # Protocol
//
// Every commit is either a hard link of a fully-written, fsync'd temp file
// (claim, publish, re-enqueue, init — link fails atomically with ErrExist
// when someone else won) or an atomic rename (lease renewal, and a
// re-enqueue replacing a task file left at a lower epoch). A lease file is
// named by (id, epoch), so each epoch of a subtree is claimed at most once
// and an expired lease is removed by its exact name, never a successor's.
// A claimer re-reads the task after linking its lease and yields if the
// task moved on since its listing.
//
//	claim    read task@e → link lease@e(owner, expiry) → task still @e? → unlink task
//	renew    verify owner+epoch, fence-check, rename new expiry
//	release  link result-<id>-e<e> (exclusive) → unlink lease@e
//	abandon  enqueue task@e+1 (supersedes) → unlink lease@e
//	export   link task for a carved-out child subtree, lineage = parent+self
//	reclaim  expired lease@e: enqueue task@e+1 (preserving lineage) → unlink lease@e
//
// # Fencing
//
// The epoch in a task/lease/result is a per-subtree fencing token. A record
// at (id, e) is superseded when ANY record exists at (id, e') with e' > e.
// A reclaimed subtree restarts at e+1, so results the dead owner managed to
// publish at e — and, via the lineage refs every exported child carries,
// everything its children published — are excluded by the merge, and the
// e+1 re-run recounts the whole subtree exactly once. A live owner that
// lost its lease discovers the bump on its next renew or publish (the task
// file at a higher epoch, or ErrExist on its result link), discards the
// claim's work, and claims afresh; it never publishes fenced work.
package ledger

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

const (
	ledgerDir  = "ledger"
	markerFile = "ledger.json"
	tasksDir   = "tasks"
	leasesDir  = "leases"
	resultsDir = "results"
)

// DefaultTTL is the lease time-to-live when the creating participant does
// not choose one. Holders renew at TTL/3, so a ~5s TTL tolerates seconds of
// scheduler stall while bounding how long a dead worker's subtree stays
// unclaimable.
const DefaultTTL = 5 * time.Second

var (
	// ErrDrained reports that no tasks and no leases remain: the tree is
	// fully covered by published results and Claim has nothing to hand out.
	ErrDrained = errors.New("ledger: all work is claimed and published")
	// ErrFenced reports that the caller's lease was superseded (expired and
	// reclaimed, or its subtree re-enqueued at a higher epoch); the claim's
	// work must be discarded, not published.
	ErrFenced = errors.New("ledger: lease fenced by a higher epoch")
	// ErrNoLedger reports a run directory that holds no ledger marker.
	ErrNoLedger = errors.New("ledger: run directory holds no ledger")
)

// Ref names one (task, epoch) a record descends from.
type Ref struct {
	ID    string `json:"id"`
	Epoch int64  `json:"epoch"`
}

// Task is one unclaimed subtree: the engine's frontier granule (choice-path
// prefix + backtracking floor) plus its fencing epoch and the lineage of
// (id, epoch) claims it was exported under. A task whose lineage contains a
// superseded ref is itself dead: the re-run of the superseded ancestor
// re-covers this subtree.
type Task struct {
	ID      string `json:"id"`
	Epoch   int64  `json:"epoch"`
	Path    []int  `json:"path"`
	Floor   int    `json:"floor"`
	Lineage []Ref  `json:"lineage,omitempty"`
}

// Lease is a claimed task: who holds it and until when. Expiry is compared
// against the claimer fleet's wall clocks; the TTL must dominate clock skew.
type Lease struct {
	Task
	Owner           string `json:"owner"`
	LedgerEpoch     int64  `json:"ledger_epoch"`
	ExpiresUnixNano int64  `json:"expires_unix_nano"`
}

// Result is the published outcome of one claim: the executions enumerated
// in the claimed subtree MINUS any children exported to the ledger (their
// claims publish their own results), plus the claim's violation maxima and
// best counterexample candidate.
type Result struct {
	Task
	Owner        string `json:"owner"`
	Executions   int64  `json:"executions"`
	Violations   int64  `json:"violations"`
	MaxProcSteps int    `json:"max_proc_steps"`
	MaxFaults    int    `json:"max_faults"`
	Capped       bool   `json:"capped"`
	// HasBest marks a claim that found a violation; BestPath is then its
	// best (mode-least) violating choice path, BestLen its schedule length.
	HasBest  bool  `json:"has_best,omitempty"`
	BestPath []int `json:"best_path,omitempty"`
	BestLen  int   `json:"best_len,omitempty"`
	// Dedup digest: how many replays the claimer's state-dedup cache pruned
	// while running this claim (advisory; merged counts are "modulo dedup").
	DedupHits int64 `json:"dedup_hits,omitempty"`
	ElapsedNS int64 `json:"elapsed_ns"`
}

// marker is the ledger's identity record, created exactly once per run
// directory by whichever participant wins the init link.
type marker struct {
	LedgerEpoch int64  `json:"ledger_epoch"` // unix nanoseconds at init
	LeaseTTLNS  int64  `json:"lease_ttl_ns"`
	CreatedBy   string `json:"created_by"`
	CreatedAt   string `json:"created_at"`
}

// TaskID derives the stable file-name id of a subtree: FNV-64a over the
// backtracking floor and the choice path.
func TaskID(path []int, floor int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "f%d", floor)
	for _, c := range path {
		fmt.Fprintf(h, "|%d", c)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Ledger is one participant's handle on a run directory's work ledger.
type Ledger struct {
	dir   string // <run>/ledger
	owner string
	epoch int64 // ledger epoch from the marker
	ttl   time.Duration

	now  func() time.Time // test hook
	poll time.Duration    // Claim's idle re-scan interval

	events    *obs.Log
	claims    *obs.Counter
	reclaims  *obs.Counter
	publishes *obs.Counter
	exports   *obs.Counter
	abandons  *obs.Counter
	fenced    *obs.Counter
}

// Join opens the work ledger in runDir, creating it — directories, marker,
// and the root task covering the whole execution tree — when absent.
// Exactly one racing participant creates; everyone else adopts the winning
// marker's epoch and TTL (the ttl argument only matters to the creator; 0
// means DefaultTTL). The returned bool reports whether this call created
// the ledger.
func Join(runDir, owner string, ttl time.Duration) (*Ledger, bool, error) {
	if owner == "" {
		return nil, false, errors.New("ledger: empty owner id")
	}
	if strings.ContainsAny(owner, "/\x00") {
		return nil, false, fmt.Errorf("ledger: invalid owner id %q", owner)
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	dir := filepath.Join(runDir, ledgerDir)
	for _, d := range []string{dir, filepath.Join(dir, tasksDir), filepath.Join(dir, leasesDir), filepath.Join(dir, resultsDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, false, fmt.Errorf("ledger: %w", err)
		}
	}
	l := &Ledger{
		dir:   dir,
		owner: owner,
		ttl:   ttl,
		now:   time.Now,
		poll:  50 * time.Millisecond,
	}

	mk := marker{
		LedgerEpoch: time.Now().UnixNano(),
		LeaseTTLNS:  int64(ttl),
		CreatedBy:   owner,
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
	}
	data, err := json.MarshalIndent(&mk, "", "  ")
	if err != nil {
		return nil, false, fmt.Errorf("ledger: %w", err)
	}
	created := false
	switch err := store.CreateExclusive(dir, markerFile, data); {
	case err == nil:
		created = true
		// The creator seeds the root task: the whole tree, no lineage.
		root := Task{ID: TaskID(nil, 0), Epoch: 0, Path: []int{}, Floor: 0}
		if err := l.linkTask(root); err != nil && !errors.Is(err, fs.ErrExist) {
			return nil, false, err
		}
	case errors.Is(err, fs.ErrExist):
		// Lost the init race (or joining an existing ledger): adopt.
	default:
		return nil, false, err
	}
	got, err := readMarker(dir)
	if err != nil {
		return nil, false, err
	}
	l.epoch = got.LedgerEpoch
	l.ttl = time.Duration(got.LeaseTTLNS)
	// Idle claimers re-scan at a fraction of the TTL so short-TTL ledgers
	// (tests, fast local runs) hand work off promptly, while long-TTL
	// ledgers on shared filesystems stay polite.
	if p := l.ttl / 20; p < l.poll {
		l.poll = p
		if l.poll < time.Millisecond {
			l.poll = time.Millisecond
		}
	}
	return l, created, nil
}

func readMarker(dir string) (*marker, error) {
	data, err := os.ReadFile(filepath.Join(dir, markerFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNoLedger, filepath.Dir(dir))
		}
		return nil, fmt.Errorf("ledger: %w", err)
	}
	var mk marker
	if err := json.Unmarshal(data, &mk); err != nil {
		return nil, fmt.Errorf("ledger: corrupt marker: %w", err)
	}
	return &mk, nil
}

// Owner returns this participant's id.
func (l *Ledger) Owner() string { return l.owner }

// Epoch returns the ledger incarnation stamp from the marker.
func (l *Ledger) Epoch() int64 { return l.epoch }

// TTL returns the fleet-wide lease time-to-live.
func (l *Ledger) TTL() time.Duration { return l.ttl }

// RunDir returns the run directory this ledger lives under (the parent of
// the ledger/ subdirectory) — where cooperating subsystems such as the
// fleet snapshot publisher anchor their own files.
func (l *Ledger) RunDir() string { return filepath.Dir(l.dir) }

// Instrument attaches observability: claim/reclaim/publish/export/abandon/
// fenced counters, pending-task and live-lease gauges (computed from the
// directory on read), and ledger.* events. Either argument may be nil.
func (l *Ledger) Instrument(reg *obs.Registry, events *obs.Log) {
	l.events = events
	if reg == nil {
		return
	}
	l.claims = reg.Counter("ledger.claims")
	l.reclaims = reg.Counter("ledger.reclaims")
	l.publishes = reg.Counter("ledger.publishes")
	l.exports = reg.Counter("ledger.exports")
	l.abandons = reg.Counter("ledger.abandons")
	l.fenced = reg.Counter("ledger.fenced")
	reg.Func("ledger.tasks_pending", func() int64 { return int64(countDir(filepath.Join(l.dir, tasksDir))) })
	reg.Func("ledger.leases_held", func() int64 { return int64(countDir(filepath.Join(l.dir, leasesDir))) })
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

func countDir(dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if committed(e.Name()) {
			n++
		}
	}
	return n
}

func taskName(id string) string            { return "task-" + id + ".json" }
func leaseName(id string, e int64) string  { return fmt.Sprintf("lease-%s-e%d.json", id, e) }
func resultName(id string, e int64) string { return fmt.Sprintf("result-%s-e%d.json", id, e) }

// parseResultName extracts (id, epoch) from a result file name.
func parseResultName(name string) (string, int64, bool) { return parseEpochName("result-", name) }

// parseLeaseName extracts (id, epoch) from a lease file name.
func parseLeaseName(name string) (string, int64, bool) { return parseEpochName("lease-", name) }

// parseEpochName extracts (id, epoch) from a "<prefix><id>-e<epoch>.json"
// file name.
func parseEpochName(prefix, name string) (string, int64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return "", 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".json")
	if !ok {
		return "", 0, false
	}
	id, es, ok := strings.Cut(rest, "-e")
	if !ok {
		return "", 0, false
	}
	e, err := strconv.ParseInt(es, 10, 64)
	if err != nil {
		return "", 0, false
	}
	return id, e, true
}

// scanState is one consistent-enough directory listing: records may vanish
// or appear between the listing and a follow-up read (every reader copes),
// but within one state the supersession math is coherent.
type scanState struct {
	tasks map[string]Task
	// leases holds each subtree's highest-epoch lease; all holds every
	// lease record, lower-epoch leftovers included, for the reaper.
	leases  map[string]Lease
	all     []Lease
	results map[string][]int64 // id → epochs with a published result
}

func (l *Ledger) scan() (*scanState, error) {
	st := &scanState{
		tasks:   map[string]Task{},
		leases:  map[string]Lease{},
		results: map[string][]int64{},
	}
	tents, err := os.ReadDir(filepath.Join(l.dir, tasksDir))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	for _, e := range tents {
		if !committed(e.Name()) {
			continue
		}
		var t Task
		if readJSON(filepath.Join(l.dir, tasksDir, e.Name()), &t) && t.ID != "" {
			st.tasks[t.ID] = t
		}
	}
	lents, err := os.ReadDir(filepath.Join(l.dir, leasesDir))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	for _, e := range lents {
		if !committed(e.Name()) {
			continue
		}
		var ls Lease
		if readJSON(filepath.Join(l.dir, leasesDir, e.Name()), &ls) && ls.ID != "" {
			st.all = append(st.all, ls)
			if cur, ok := st.leases[ls.ID]; !ok || ls.Epoch > cur.Epoch {
				st.leases[ls.ID] = ls
			}
		}
	}
	rents, err := os.ReadDir(filepath.Join(l.dir, resultsDir))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	for _, e := range rents {
		if id, ep, ok := parseResultName(e.Name()); ok {
			st.results[id] = append(st.results[id], ep)
		}
	}
	return st, nil
}

// committed reports whether a directory entry is a linked record rather
// than the temp file it was written through: a participant killed between
// writing and linking (or before removing the temp) leaves a complete,
// parseable "<name>.json.tmp…" behind, which must never count as a task or
// a lease — nothing ever removes it under the record's own name.
func committed(name string) bool { return strings.HasSuffix(name, ".json") }

// readJSON loads path into v, tolerating concurrent deletion and torn
// listings: false means "treat as absent".
func readJSON(path string, v any) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	return json.Unmarshal(data, v) == nil
}

// maxEpoch returns the highest epoch any record (task, lease, result)
// holds for id, or -1 when id is unknown.
func (st *scanState) maxEpoch(id string) int64 {
	max := int64(-1)
	if t, ok := st.tasks[id]; ok && t.Epoch > max {
		max = t.Epoch
	}
	if ls, ok := st.leases[id]; ok && ls.Epoch > max {
		max = ls.Epoch
	}
	for _, e := range st.results[id] {
		if e > max {
			max = e
		}
	}
	return max
}

// superseded reports whether a record at (id, epoch) with the given lineage
// is dead: a higher epoch exists for the record itself or for any ancestor
// it was exported under.
func (st *scanState) superseded(id string, epoch int64, lineage []Ref) bool {
	if st.maxEpoch(id) > epoch {
		return true
	}
	for _, ref := range lineage {
		if st.maxEpoch(ref.ID) > ref.Epoch {
			return true
		}
	}
	return false
}

// resultAtOrAbove reports a published result for id at epoch ≥ e.
func (st *scanState) resultAtOrAbove(id string, e int64) bool {
	for _, re := range st.results[id] {
		if re >= e {
			return true
		}
	}
	return false
}

func (l *Ledger) linkTask(t Task) error {
	data, err := json.Marshal(&t)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return store.CreateExclusive(filepath.Join(l.dir, tasksDir), taskName(t.ID), data)
}

// linkLease claims (id, epoch) exclusively: the lease file name carries the
// epoch, so at most one participant ever holds a given epoch of a subtree,
// and removing an expired lease by name can never touch a successor's.
func (l *Ledger) linkLease(ls Lease) error {
	data, err := json.Marshal(&ls)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return store.CreateExclusive(filepath.Join(l.dir, leasesDir), leaseName(ls.ID, ls.Epoch), data)
}

// enqueue offers t, replacing a task file left at an epoch no higher than
// the one t supersedes (a claim that died before unlinking its task, or a
// task re-linked from a stale listing). A task already at t's epoch or
// above is left alone.
func (l *Ledger) enqueue(t Task) error {
	err := l.linkTask(t)
	if !errors.Is(err, fs.ErrExist) {
		return err
	}
	var cur Task
	if readJSON(filepath.Join(l.dir, tasksDir, taskName(t.ID)), &cur) && cur.Epoch >= t.Epoch {
		return nil
	}
	data, err := json.Marshal(&t)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return store.WriteFileAtomic(filepath.Join(l.dir, tasksDir), taskName(t.ID), data)
}

// dropOwnLease removes the caller's lease file, but only after re-verifying
// the on-disk record still names this owner at this epoch — never delete a
// successor's lease.
func (l *Ledger) dropOwnLease(ls *Lease) {
	path := filepath.Join(l.dir, leasesDir, leaseName(ls.ID, ls.Epoch))
	var cur Lease
	if !readJSON(path, &cur) {
		return
	}
	if cur.Owner == l.owner && cur.Epoch == ls.Epoch {
		os.Remove(path)
	}
}

// fencedNow re-checks the fence for a held lease against the directory: a
// task re-enqueued at a higher epoch, a lease on the same subtree held by
// someone else (a reclaimer claimed before we noticed losing ours), or a
// result published at a higher epoch all mean a reclaim superseded this
// claim.
func (l *Ledger) fencedNow(ls *Lease) bool {
	var t Task
	if readJSON(filepath.Join(l.dir, tasksDir, taskName(ls.ID)), &t) && t.Epoch > ls.Epoch {
		return true
	}
	var cur Lease
	if readJSON(filepath.Join(l.dir, leasesDir, leaseName(ls.ID, ls.Epoch)), &cur) && cur.Owner != l.owner {
		return true
	}
	lents, err := os.ReadDir(filepath.Join(l.dir, leasesDir))
	if err != nil {
		return false
	}
	for _, e := range lents {
		if id, ep, ok := parseLeaseName(e.Name()); ok && id == ls.ID && ep > ls.Epoch {
			return true
		}
	}
	rents, err := os.ReadDir(filepath.Join(l.dir, resultsDir))
	if err != nil {
		return false
	}
	for _, e := range rents {
		if id, ep, ok := parseResultName(e.Name()); ok && id == ls.ID && ep > ls.Epoch {
			return true
		}
	}
	return false
}

// Claim hands out one unclaimed, unsuperseded task, registering a lease
// that expires in TTL unless renewed. It reaps expired leases as it scans
// (re-enqueueing dead owners' subtrees at the next epoch), blocks polling
// while other participants still hold live leases (they may export
// subtasks), and returns ErrDrained when no tasks and no leases remain.
func (l *Ledger) Claim(ctx context.Context) (*Lease, error) {
	confirming := false
	for {
		st, err := l.scan()
		if err != nil {
			return nil, err
		}
		if n, err := l.reap(st); err != nil {
			return nil, err
		} else if n > 0 {
			continue // re-enqueued work: rescan
		}

		ids := make([]string, 0, len(st.tasks))
		for id := range st.tasks {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		live := 0
		for _, id := range ids {
			t := st.tasks[id]
			if st.resultAtOrAbove(id, t.Epoch) || st.superseded(id, t.Epoch, t.Lineage) {
				// Debris: already published, or a dead lineage. Remove so
				// the drain check converges.
				os.Remove(filepath.Join(l.dir, tasksDir, taskName(id)))
				continue
			}
			if ls, held := st.leases[id]; held && ls.Epoch >= t.Epoch {
				live++
				continue // claimed and not expired (reap ran first)
			}
			live++
			ls := Lease{
				Task:            t,
				Owner:           l.owner,
				LedgerEpoch:     l.epoch,
				ExpiresUnixNano: l.now().Add(l.ttl).UnixNano(),
			}
			if err := l.linkLease(ls); err != nil {
				if errors.Is(err, fs.ErrExist) {
					continue // lost the race for this task
				}
				return nil, err
			}
			var cur Task
			if !readJSON(filepath.Join(l.dir, tasksDir, taskName(id)), &cur) || cur.Epoch != t.Epoch {
				// The listing was stale: another claim took this epoch and
				// finished (or a reclaim bumped it) since the scan.
				l.dropOwnLease(&ls)
				continue
			}
			if err := os.Remove(filepath.Join(l.dir, tasksDir, taskName(id))); err != nil && !errors.Is(err, fs.ErrNotExist) {
				// The claim stands (lease is linked); a claim-debris task
				// file is cleaned up by later scans.
				l.emit(obs.Warn, "ledger.claim", map[string]any{"id": id, "unlink_err": err.Error()})
			}
			inc(l.claims)
			l.emit(obs.Info, "ledger.claim", map[string]any{
				"id": id, "epoch": t.Epoch, "owner": l.owner,
				"path_len": len(t.Path), "floor": t.Floor,
			})
			return &ls, nil
		}

		if live == 0 && len(st.leases) == 0 {
			// A scan lists tasks/ before leases/, and a reap moves a record
			// the other way (link task, then unlink lease), so one scan can
			// miss a reclaimed subtree in flight. Conclude only from two
			// consecutive scans that agree.
			if !confirming {
				confirming = true
				continue
			}
			if len(st.results) > 0 {
				return nil, ErrDrained
			}
			// The creator links the marker before it seeds the root task,
			// so a joiner can see the marker alone; only a ledger that is
			// still empty a TTL after its creation is broken.
			if l.now().UnixNano()-l.epoch > int64(l.ttl) {
				return nil, fmt.Errorf("ledger: empty ledger in %s (no tasks, leases, or results)", l.dir)
			}
		}
		confirming = false
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(l.poll):
		}
	}
}

// reap re-enqueues every expired lease at the next epoch so its subtree —
// and, through lineage supersession, everything its dead owner exported —
// is redone exactly once. A lease whose result already exists (the owner
// died between publish and lease removal), or that a higher epoch of its
// subtree already superseded, only needs its file dropped. Acting on a
// stale listing is harmless: the lease file named by (id, epoch) is removed
// by exact name, and a re-enqueue never lowers a task's epoch.
func (l *Ledger) reap(st *scanState) (int, error) {
	now := l.now().UnixNano()
	n := 0
	for _, ls := range st.all {
		if ls.ExpiresUnixNano > now {
			continue
		}
		id := ls.ID
		if !st.resultAtOrAbove(id, ls.Epoch) && st.maxEpoch(id) <= ls.Epoch {
			bumped := Task{ID: id, Epoch: ls.Epoch + 1, Path: ls.Path, Floor: ls.Floor, Lineage: ls.Lineage}
			if err := l.enqueue(bumped); err != nil {
				return n, err
			}
			st.tasks[id] = bumped
		}
		os.Remove(filepath.Join(l.dir, leasesDir, leaseName(id, ls.Epoch)))
		if cur, ok := st.leases[id]; ok && cur.Epoch == ls.Epoch {
			delete(st.leases, id)
		}
		n++
		inc(l.reclaims)
		l.emit(obs.Warn, "ledger.reclaim", map[string]any{
			"id": id, "epoch": ls.Epoch, "dead_owner": ls.Owner, "by": l.owner,
		})
	}
	return n, nil
}

// Renew extends the caller's lease by TTL. ErrFenced means the lease was
// reclaimed or superseded: the caller must stop working on the claim and
// discard its partial results. On fencing, Renew drops the caller's own
// lease record (if still present) so the successor's claim can proceed.
func (l *Ledger) Renew(ls *Lease) error {
	path := filepath.Join(l.dir, leasesDir, leaseName(ls.ID, ls.Epoch))
	var cur Lease
	if !readJSON(path, &cur) || cur.Owner != l.owner || cur.Epoch != ls.Epoch {
		inc(l.fenced)
		return ErrFenced
	}
	if l.fencedNow(ls) {
		l.dropOwnLease(ls)
		inc(l.fenced)
		return ErrFenced
	}
	cur.ExpiresUnixNano = l.now().Add(l.ttl).UnixNano()
	data, err := json.Marshal(&cur)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := store.WriteFileAtomic(filepath.Join(l.dir, leasesDir), leaseName(ls.ID, ls.Epoch), data); err != nil {
		return err
	}
	// The rename may have resurrected a lease a reaper deleted between our
	// read and the rename; if a fence appeared meanwhile, undo and yield.
	if l.fencedNow(ls) {
		l.dropOwnLease(ls)
		inc(l.fenced)
		return ErrFenced
	}
	ls.ExpiresUnixNano = cur.ExpiresUnixNano
	return nil
}

// Release publishes the claim's outcome and drops the lease. The result
// link is exclusive per (id, epoch): if a fence raced ahead — the subtree
// was reclaimed and republished — Release returns ErrFenced and the
// caller's work is discarded, keeping merged counts exact.
func (l *Ledger) Release(ls *Lease, r *Result) error {
	if l.fencedNow(ls) {
		l.dropOwnLease(ls)
		inc(l.fenced)
		return ErrFenced
	}
	r.Task = ls.Task
	r.Owner = l.owner
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := store.CreateExclusive(filepath.Join(l.dir, resultsDir), resultName(ls.ID, ls.Epoch), data); err != nil {
		if errors.Is(err, fs.ErrExist) {
			l.dropOwnLease(ls)
			inc(l.fenced)
			return ErrFenced
		}
		return err
	}
	l.dropOwnLease(ls)
	inc(l.publishes)
	l.emit(obs.Info, "ledger.publish", map[string]any{
		"id": ls.ID, "epoch": ls.Epoch, "owner": l.owner,
		"executions": r.Executions, "violations": r.Violations, "has_best": r.HasBest,
	})
	return nil
}

// Abandon returns a claim to the ledger unfinished (execution cap hit,
// graceful shutdown): the task is re-enqueued at the next epoch — fencing
// any children this claim exported, which must not double-count against
// the full re-run — and the lease is dropped. The claim's partial work is
// discarded.
func (l *Ledger) Abandon(ls *Lease) error {
	bumped := Task{ID: ls.ID, Epoch: ls.Epoch + 1, Path: ls.Path, Floor: ls.Floor, Lineage: ls.Lineage}
	if err := l.enqueue(bumped); err != nil {
		return err
	}
	l.dropOwnLease(ls)
	inc(l.abandons)
	l.emit(obs.Info, "ledger.abandon", map[string]any{"id": ls.ID, "epoch": ls.Epoch, "owner": l.owner})
	return nil
}

// Export offers a subtree carved from the caller's claim to other
// participants: a new task whose lineage extends the parent's by the
// parent claim itself, so a reclaim of the parent fences this child and
// every result it produces. The child's epoch exceeds every record a
// previous incarnation of the same subtree left behind, keeping its result
// file name fresh. fs.ErrExist means the subtree's task file is already
// present (a dead incarnation not yet collected) — the caller should keep
// the subtree local.
func (l *Ledger) Export(parent *Lease, path []int, floor int) error {
	id := TaskID(path, floor)
	if id == parent.ID {
		// Exporting the whole claim back would bump its own epoch, fencing
		// the live lease, and leave a task whose lineage supersedes itself
		// — the subtree would be silently dropped as debris. An export must
		// be a strict sub-region of the claim.
		return fmt.Errorf("ledger: export %s: refusing to export the claim's own task", id)
	}
	st, err := l.scan()
	if err != nil {
		return err
	}
	if _, exists := st.tasks[id]; exists {
		return fmt.Errorf("ledger: export %s: %w", id, fs.ErrExist)
	}
	t := Task{
		ID:      id,
		Epoch:   st.maxEpoch(id) + 1,
		Path:    append([]int(nil), path...),
		Floor:   floor,
		Lineage: append(append([]Ref(nil), parent.Lineage...), Ref{ID: parent.ID, Epoch: parent.Epoch}),
	}
	if err := l.linkTask(t); err != nil {
		return err
	}
	inc(l.exports)
	l.emit(obs.Info, "ledger.export", map[string]any{
		"id": id, "epoch": t.Epoch, "parent": parent.ID, "owner": l.owner,
		"path_len": len(path), "floor": floor,
	})
	return nil
}

// Starving reports whether fewer than lowWater unclaimed tasks are on
// offer — the signal for claim holders to export a subtree.
func (l *Ledger) Starving(lowWater int) bool {
	return countDir(filepath.Join(l.dir, tasksDir)) < lowWater
}

func (l *Ledger) emit(level obs.Level, typ string, fields map[string]any) {
	l.events.Emit(level, typ, fields)
}
