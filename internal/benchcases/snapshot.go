package benchcases

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// Headline lists the benchmark bodies that form the repository's
// performance contract, in snapshot order. `circuitsim bench -json`
// snapshots them into BENCH_<n>.json and `benchcheck` re-runs them and
// compares against the latest snapshot, so the committed numbers, the
// CI gate and the developers' local check all measure exactly this
// list.
var Headline = []struct {
	Name string
	Fn   func(b *testing.B)
}{
	{"clock_schedule", ClockSchedule},
	{"timer_rearm", TimerRearm},
	{"link_transit", LinkTransit},
	{"link_transit_train", LinkTransitTrain},
	{"link_inflight", LinkInflight},
	{"star_transit", StarTransit},
	{"onion_wrap", OnionWrap},
	{"onion_unwrap", OnionUnwrap},
	{"scheduler_enqueue_dequeue", SchedulerEnqueueDequeue},
	{"shard_handoff", ShardHandoff},
	{"single_transfer", SingleTransfer},
	{"sharded_churn_1shard", ShardedChurn1},
	{"sharded_churn_4shard", ShardedChurn4},
}

// Result is one benchmark's measurement in a snapshot. EventsPerOp is
// the clock events one op fires (sim.Clock.Processed), recorded by the
// benchmarks that report an "events/op" metric and absent otherwise
// (and in schema v1 snapshots).
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	EventsPerOp float64 `json:"events_per_op,omitempty"`
}

// Snapshot schemas: v2 added events_per_op. Both stay readable, so a
// v1 baseline still gates time and allocations.
const (
	schemaV1 = "circuitsim-bench/v1"
	schemaV2 = "circuitsim-bench/v2"
)

// Snapshot is the BENCH_<n>.json schema: enough environment to
// interpret the numbers, plus the headline benchmarks in fixed order.
type Snapshot struct {
	Schema     string   `json:"schema"`
	Date       string   `json:"date"`
	GoVersion  string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	Benchmarks []Result `json:"benchmarks"`
}

// Collect runs every headline benchmark once via testing.Benchmark and
// returns the populated snapshot.
func Collect() Snapshot {
	snap := Snapshot{
		Schema:    schemaV2,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	for _, hb := range Headline {
		r := testing.Benchmark(hb.Fn)
		snap.Benchmarks = append(snap.Benchmarks, Result{
			Name:        hb.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			EventsPerOp: r.Extra["events/op"],
		})
	}
	return snap
}

// LatestSnapshotPath returns the committed BENCH_<n>.json with the
// highest n in dir, or an error when none exists. Gaps in the
// numbering are fine — a deleted early snapshot must not hide the
// later baselines.
func LatestSnapshotPath(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", 0
	for _, path := range matches {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(path), "BENCH_%d.json", &n); err == nil && n > bestN {
			best, bestN = path, n
		}
	}
	if bestN == 0 {
		return "", fmt.Errorf("benchcases: no BENCH_<n>.json snapshot in %s", dir)
	}
	return best, nil
}

// SameEnvironment reports whether the snapshot was recorded on an
// environment comparable to the current one (OS, architecture, CPU
// count — a proxy for "same class of machine"). Wall-clock gates are
// only meaningful against a comparable baseline; allocation gates hold
// everywhere.
func (s Snapshot) SameEnvironment() bool {
	return s.GOOS == runtime.GOOS && s.GOARCH == runtime.GOARCH && s.CPUs == runtime.NumCPU()
}

// ReadSnapshot loads and validates a snapshot file.
func ReadSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("benchcases: %s: %w", path, err)
	}
	if snap.Schema != schemaV1 && snap.Schema != schemaV2 {
		return Snapshot{}, fmt.Errorf("benchcases: %s has schema %q, want %s or %s", path, snap.Schema, schemaV1, schemaV2)
	}
	return snap, nil
}

// zeroAllocGated names the benchmarks whose hot paths must stay
// allocation-free outright (the event free list, in-place timer
// rearm, pooled links/fabrics, the onion scratch buffers, the
// scheduler's free-listed circuit nodes and the shard boundary's
// reused FIFOs, slab and import slots) — everything headline except
// the whole-trial profiles.
var zeroAllocGated = map[string]bool{
	"clock_schedule": true, "timer_rearm": true, "link_transit": true,
	"link_transit_train": true, "link_inflight": true, "star_transit": true,
	"onion_wrap": true, "onion_unwrap": true,
	"scheduler_enqueue_dequeue": true, "shard_handoff": true,
}

// nsGated names the benchmarks whose ns/op is compared against the
// baseline. single_transfer and the sharded churn pair are excluded:
// their run-to-run variance (whole-simulation iterations, few samples)
// would make a percentage gate flaky, and their regressions surface
// through the gated layers beneath them anyway. shard_handoff is
// excluded because each op waits on a cross-goroutine wakeup, whose
// latency belongs to the OS scheduler rather than to the code.
var nsGated = map[string]bool{
	"clock_schedule": true, "timer_rearm": true, "link_transit": true,
	"link_transit_train": true, "star_transit": true,
	"onion_wrap": true, "onion_unwrap": true,
	"scheduler_enqueue_dequeue": true,
}

// Compare checks current against baseline and returns one finding per
// violated gate (empty = pass):
//
//   - every baseline benchmark must still be present (a rename must
//     not silently disarm the gate);
//   - the zero-alloc set must report exactly zero allocs/op, and the
//     remaining benchmarks must not grow allocs/op beyond 1% (noise
//     headroom for seed-averaged whole-workload profiles);
//   - a benchmark whose baseline records events/op must fire exactly
//     as many clock events per op: the count is deterministic, and a
//     change in it is a change in simulated behavior, not noise;
//   - ns/op on the gated set must not regress by more than
//     nsTolerance (e.g. 0.30 = +30%). A negative nsTolerance disables
//     the ns/op gate entirely — the caller's signal that the baseline
//     came from different hardware, where wall-clock comparison would
//     be noise (allocs/op stays gated: it is machine-independent).
func Compare(baseline, current Snapshot, nsTolerance float64) []string {
	var findings []string
	cur := make(map[string]Result, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		cur[r.Name] = r
	}
	for _, base := range baseline.Benchmarks {
		now, ok := cur[base.Name]
		if !ok {
			findings = append(findings, fmt.Sprintf("%s: present in baseline but not measured (renames must update the snapshot)", base.Name))
			continue
		}
		if zeroAllocGated[base.Name] {
			if now.AllocsPerOp != 0 {
				findings = append(findings, fmt.Sprintf("%s: %d allocs/op on a zero-alloc hot path", base.Name, now.AllocsPerOp))
			}
		} else if now.AllocsPerOp > base.AllocsPerOp+base.AllocsPerOp/100 {
			// Whole-workload benchmarks average allocations over
			// seed-varied iterations, so the count jitters by a few per
			// op with the iteration count; 1% headroom absorbs that
			// while still catching real regressions, which arrive in
			// thousands (the pooling work was a 9× reduction).
			findings = append(findings, fmt.Sprintf("%s: allocs/op rose %d → %d (>1%%)", base.Name, base.AllocsPerOp, now.AllocsPerOp))
		}
		if base.EventsPerOp > 0 && now.EventsPerOp != base.EventsPerOp {
			findings = append(findings, fmt.Sprintf("%s: events/op changed %g → %g", base.Name, base.EventsPerOp, now.EventsPerOp))
		}
		if nsTolerance >= 0 && nsGated[base.Name] && base.NsPerOp > 0 {
			ratio := now.NsPerOp / base.NsPerOp
			if ratio > 1+nsTolerance {
				findings = append(findings, fmt.Sprintf("%s: ns/op regressed %.1f → %.1f (%+.0f%%, tolerance %+.0f%%)",
					base.Name, base.NsPerOp, now.NsPerOp, (ratio-1)*100, nsTolerance*100))
			}
		}
	}
	// A zero-alloc benchmark added after the baseline snapshot is still
	// gated — the invariant must not wait for a fresh snapshot to arm
	// (the same disarm-by-omission the rename check guards against).
	known := make(map[string]bool, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		known[r.Name] = true
	}
	for _, now := range current.Benchmarks {
		if !known[now.Name] && zeroAllocGated[now.Name] && now.AllocsPerOp != 0 {
			findings = append(findings, fmt.Sprintf("%s: %d allocs/op on a zero-alloc hot path (new benchmark, not yet in the baseline)", now.Name, now.AllocsPerOp))
		}
	}
	return findings
}
