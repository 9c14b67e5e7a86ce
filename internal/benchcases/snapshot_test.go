package benchcases

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snap(results ...Result) Snapshot {
	return Snapshot{Schema: schemaV2, Benchmarks: results}
}

func TestComparePasses(t *testing.T) {
	base := snap(
		Result{Name: "clock_schedule", NsPerOp: 100, AllocsPerOp: 0},
		Result{Name: "single_transfer", NsPerOp: 1e6, AllocsPerOp: 500},
	)
	cur := snap(
		Result{Name: "clock_schedule", NsPerOp: 120, AllocsPerOp: 0}, // +20% < 30%
		Result{Name: "single_transfer", NsPerOp: 5e6, AllocsPerOp: 400},
	)
	if findings := Compare(base, cur, 0.30); len(findings) != 0 {
		t.Fatalf("unexpected findings: %v", findings)
	}
}

func TestCompareNsRegression(t *testing.T) {
	base := snap(Result{Name: "link_transit", NsPerOp: 100, AllocsPerOp: 0})
	cur := snap(Result{Name: "link_transit", NsPerOp: 140, AllocsPerOp: 0})
	findings := Compare(base, cur, 0.30)
	if len(findings) != 1 || !strings.Contains(findings[0], "ns/op regressed") {
		t.Fatalf("findings = %v", findings)
	}
	// single_transfer's ns/op is deliberately not gated.
	base = snap(Result{Name: "single_transfer", NsPerOp: 100, AllocsPerOp: 5})
	cur = snap(Result{Name: "single_transfer", NsPerOp: 900, AllocsPerOp: 5})
	if findings := Compare(base, cur, 0.30); len(findings) != 0 {
		t.Fatalf("single_transfer ns/op gated: %v", findings)
	}
	// A negative tolerance (baseline from different hardware) disables
	// the ns/op gate entirely; the alloc gates stay armed.
	base = snap(Result{Name: "link_transit", NsPerOp: 100, AllocsPerOp: 0})
	cur = snap(Result{Name: "link_transit", NsPerOp: 900, AllocsPerOp: 1})
	findings = Compare(base, cur, -1)
	if len(findings) != 1 || !strings.Contains(findings[0], "zero-alloc") {
		t.Fatalf("findings with disabled ns gate = %v", findings)
	}
}

func TestCompareAllocGates(t *testing.T) {
	// Any alloc on a zero-alloc hot path fails, whatever the baseline.
	base := snap(Result{Name: "timer_rearm", NsPerOp: 10, AllocsPerOp: 0})
	cur := snap(Result{Name: "timer_rearm", NsPerOp: 10, AllocsPerOp: 1})
	findings := Compare(base, cur, 0.30)
	if len(findings) != 1 || !strings.Contains(findings[0], "zero-alloc") {
		t.Fatalf("findings = %v", findings)
	}
	// Off the zero-alloc set, increases beyond the 1% noise headroom
	// fail; within it they pass.
	base = snap(Result{Name: "single_transfer", NsPerOp: 100, AllocsPerOp: 500})
	cur = snap(Result{Name: "single_transfer", NsPerOp: 100, AllocsPerOp: 506})
	findings = Compare(base, cur, 0.30)
	if len(findings) != 1 || !strings.Contains(findings[0], "allocs/op rose") {
		t.Fatalf("findings = %v", findings)
	}
	cur = snap(Result{Name: "single_transfer", NsPerOp: 100, AllocsPerOp: 505})
	if findings := Compare(base, cur, 0.30); len(findings) != 0 {
		t.Fatalf("1%% alloc headroom not applied: %v", findings)
	}
}

func TestCompareEventsPerOp(t *testing.T) {
	// A baseline that records events/op pins it exactly, in either
	// direction.
	base := snap(Result{Name: "single_transfer", NsPerOp: 100, AllocsPerOp: 5, EventsPerOp: 8072})
	for _, ev := range []float64{8071, 8073, 0} {
		cur := snap(Result{Name: "single_transfer", NsPerOp: 100, AllocsPerOp: 5, EventsPerOp: ev})
		findings := Compare(base, cur, 0.30)
		if len(findings) != 1 || !strings.Contains(findings[0], "events/op") {
			t.Fatalf("events/op %g: findings = %v", ev, findings)
		}
	}
	cur := snap(Result{Name: "single_transfer", NsPerOp: 100, AllocsPerOp: 5, EventsPerOp: 8072})
	if findings := Compare(base, cur, 0.30); len(findings) != 0 {
		t.Fatalf("equal events/op flagged: %v", findings)
	}
	// A baseline without the field (schema v1, or a benchmark that does
	// not count events) leaves it ungated.
	base = snap(Result{Name: "single_transfer", NsPerOp: 100, AllocsPerOp: 5})
	if findings := Compare(base, cur, 0.30); len(findings) != 0 {
		t.Fatalf("events/op gated without a baseline value: %v", findings)
	}
}

func TestCompareNewZeroAllocBenchmark(t *testing.T) {
	// A zero-alloc benchmark absent from the baseline is still gated.
	base := snap(Result{Name: "clock_schedule", NsPerOp: 100, AllocsPerOp: 0})
	cur := snap(
		Result{Name: "clock_schedule", NsPerOp: 100, AllocsPerOp: 0},
		Result{Name: "onion_wrap", NsPerOp: 700, AllocsPerOp: 2},
	)
	findings := Compare(base, cur, 0.30)
	if len(findings) != 1 || !strings.Contains(findings[0], "onion_wrap") {
		t.Fatalf("findings = %v", findings)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := snap(
		Result{Name: "clock_schedule", NsPerOp: 100},
		Result{Name: "link_transit", NsPerOp: 100},
	)
	cur := snap(Result{Name: "clock_schedule", NsPerOp: 100})
	findings := Compare(base, cur, 0.30)
	if len(findings) != 1 || !strings.Contains(findings[0], "link_transit") {
		t.Fatalf("findings = %v", findings)
	}
}

func TestLatestSnapshotPath(t *testing.T) {
	dir := t.TempDir()
	if _, err := LatestSnapshotPath(dir); err == nil {
		t.Fatal("empty dir accepted")
	}
	// A gap in the numbering (no BENCH_1) must not hide later
	// baselines, and BENCH_10 must beat BENCH_9 (numeric, not lexical).
	for _, n := range []string{"BENCH_2.json", "BENCH_9.json", "BENCH_10.json"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LatestSnapshotPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_10.json" {
		t.Fatalf("latest = %s", got)
	}
}

func TestReadSnapshot(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "BENCH_1.json")
	data, err := json.Marshal(snap(Result{Name: "clock_schedule", NsPerOp: 14}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 1 || s.Benchmarks[0].Name != "clock_schedule" {
		t.Fatalf("snapshot = %+v", s)
	}

	// Schema v1 snapshots predate events_per_op and stay readable.
	v1 := filepath.Join(dir, "BENCH_0.json")
	if err := os.WriteFile(v1, []byte(`{"schema":"circuitsim-bench/v1","benchmarks":[{"name":"link_transit","ns_per_op":120}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := ReadSnapshot(v1); err != nil || len(s.Benchmarks) != 1 || s.Benchmarks[0].EventsPerOp != 0 {
		t.Fatalf("v1 snapshot = %+v, %v", s, err)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bad); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadSnapshot(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestHeadlineCoversCommittedSnapshot pins the headline list to the
// repository's committed baseline: every benchmark the snapshot gates
// must still exist under the same name.
func TestHeadlineCoversCommittedSnapshot(t *testing.T) {
	path, err := LatestSnapshotPath("../..")
	if err != nil {
		t.Skipf("no committed snapshot: %v", err)
	}
	base, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(Headline))
	for _, hb := range Headline {
		have[hb.Name] = true
	}
	for _, r := range base.Benchmarks {
		if !have[r.Name] {
			t.Errorf("baseline %s gates %q, which Headline no longer measures", path, r.Name)
		}
	}
}
