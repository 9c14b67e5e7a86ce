// Command benchcheck is the benchmark-regression gate: it re-runs the
// headline benchmarks (the shared bodies in internal/benchcases) and
// compares them against the latest committed BENCH_<n>.json snapshot.
// It fails when allocs/op grows (the zero-alloc hot paths must report
// exactly zero), when events/op differs from a baseline that records
// it, on a ns/op regression beyond -tolerance on the
// per-layer microbenchmarks, or when a gated benchmark disappears — a
// rename must not silently disarm the gate. The ns/op gate only arms
// when the baseline was recorded on comparable hardware (same OS,
// architecture and CPU count); the allocation gates are
// machine-independent and always enforced.
//
// CI runs it on every PR ('go run ./cmd/benchcheck'); developers run
// the same command locally before committing performance-sensitive
// changes. After an intentional, understood change in the numbers,
// commit a fresh snapshot with 'circuitsim bench -json' — the
// trajectory of BENCH_<n>.json files is the performance history.
package main

import (
	"flag"
	"fmt"
	"os"

	"circuitstart/internal/benchcases"
	"circuitstart/internal/traceio"
)

func main() {
	dir := flag.String("dir", ".", "directory holding the BENCH_<n>.json snapshots")
	baseline := flag.String("baseline", "", "explicit baseline snapshot (default: latest BENCH_<n>.json in -dir)")
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional ns/op regression on the gated benchmarks")
	flag.Parse()

	if err := run(*dir, *baseline, *tolerance); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

func run(dir, baselinePath string, tolerance float64) error {
	if baselinePath == "" {
		var err error
		baselinePath, err = benchcases.LatestSnapshotPath(dir)
		if err != nil {
			return err
		}
	}
	base, err := benchcases.ReadSnapshot(baselinePath)
	if err != nil {
		return err
	}
	fmt.Printf("baseline %s (%s, %s/%s, %d CPUs)\n", baselinePath, base.Date, base.GOOS, base.GOARCH, base.CPUs)
	if !base.SameEnvironment() {
		// Wall-clock numbers from different hardware are noise, not a
		// baseline: gating on them would fail every PR on a slower
		// runner and mask regressions on a faster one. The alloc gates
		// are machine-independent and stay armed; the ns/op gate arms
		// whenever the latest snapshot was recorded on comparable
		// hardware.
		fmt.Println("note: baseline recorded on different hardware; ns/op gate skipped, alloc gates enforced")
		tolerance = -1
	}

	cur := benchcases.Collect()
	tbl := traceio.NewTable("benchmark", "base_ns_op", "ns_op", "delta", "base_allocs", "allocs", "base_events", "events")
	byName := make(map[string]benchcases.Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	for _, r := range cur.Benchmarks {
		b, ok := byName[r.Name]
		if !ok {
			tbl.AddRowf(r.Name, "-", r.NsPerOp, "new", "-", r.AllocsPerOp, "-", r.EventsPerOp)
			continue
		}
		delta := "-"
		if b.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.NsPerOp/b.NsPerOp-1)*100)
		}
		tbl.AddRowf(r.Name, b.NsPerOp, r.NsPerOp, delta, b.AllocsPerOp, r.AllocsPerOp, b.EventsPerOp, r.EventsPerOp)
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		return err
	}

	findings := benchcases.Compare(base, cur, tolerance)
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Println("FAIL:", f)
		}
		return fmt.Errorf("%d regression(s) against %s", len(findings), baselinePath)
	}
	fmt.Println("benchmarks within tolerance of the baseline")
	return nil
}
