package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"circuitstart/internal/benchcases"
	"circuitstart/internal/traceio"
)

// runBench measures the headline benchmarks (the shared bodies in
// internal/benchcases, so a snapshot measures exactly the code the
// benchcheck CI gate guards) and optionally snapshots them into
// BENCH_<n>.json.
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "snapshot the results into BENCH_<n>.json (next free n)")
	outPath := fs.String("out", "", "explicit snapshot path (implies -json)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	snap := benchcases.Collect()
	tbl := traceio.NewTable("benchmark", "ns_op", "B_op", "allocs_op", "events_op", "iters")
	for _, res := range snap.Benchmarks {
		tbl.AddRowf(res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.EventsPerOp, res.Iterations)
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		return err
	}

	if !*jsonOut && *outPath == "" {
		return nil
	}
	path := *outPath
	if path == "" {
		path = nextBenchPath(".")
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("snapshot written to %s\n", path)
	return nil
}

// nextBenchPath returns BENCH_<n>.json for the smallest n ≥ 1 not
// already present in dir, so successive snapshots form a trajectory.
func nextBenchPath(dir string) string {
	for n := 1; ; n++ {
		path := fmt.Sprintf("%s/BENCH_%d.json", dir, n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}
