package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name       string
	Start, End time.Time
}

// spanRecord places a span in its run: spans of one job share Job, and a
// call's Parent is the job span that caused it.
type spanRecord struct {
	span
	Job    int
	Traced bool
	Parent string
}

// host identifies where and from what a result was measured.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func stampHost(commit string) host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// writeSpans writes the host stamp and then one JSON line per span, with
// times in nanoseconds from the first span's start.
func writeSpans(path string, h host, spans []spanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": h}); err != nil {
		f.Close()
		return err
	}
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].Start
	}
	for _, s := range spans {
		rec := map[string]any{
			"job": s.Job, "traced": s.Traced, "name": s.Name, "parent": s.Parent,
			"start_ns": s.Start.Sub(t0).Nanoseconds(), "end_ns": s.End.Sub(t0).Nanoseconds(),
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
