package main

import (
	"bytes"
	"fmt"
	"time"

	"circuitstart/internal/scenario"
)

// trialRounds is the round structure fig1_cells and sharded_ring
// share: a round runs one trial of each arm of one input on
// scenario.Runner{Workers: 1}, timing each trial. The first run of each
// input is the reference every repetition of it must reproduce, and
// the source of the simulated outcomes.
type trialRounds struct {
	led    *ledger
	what   string
	inputs [][]scenario.Scenario // [input][arm], one arm and replication each
	first  [][]*scenario.Result  // [input][arm], first run
}

// staticChecks are the output invariants of a fault-free trial set:
// every transfer completes and no frame is misaddressed.
func staticChecks(res *scenario.Result) error {
	for _, a := range res.Arms {
		if a.Incomplete != 0 {
			return fmt.Errorf("arm %s: %d incomplete transfers without faults", a.Name, a.Incomplete)
		}
		if a.Net.UnknownDst != 0 || a.Net.Unroutable != 0 {
			return fmt.Errorf("arm %s: unknown_dst %d, unroutable %d", a.Name, a.Net.UnknownDst, a.Net.Unroutable)
		}
	}
	return nil
}

func (tr *trialRounds) numInputs() int { return len(tr.inputs) }

func (tr *trialRounds) round(k int) (roundSample, error) {
	if tr.first == nil {
		tr.first = make([][]*scenario.Result, len(tr.inputs))
	}
	s := roundSample{input: k}
	var text bytes.Buffer
	var results []*scenario.Result
	for i, sc := range tr.inputs[k] {
		t0 := time.Now()
		res, err := scenario.Runner{Workers: 1}.Run(sc)
		d := time.Since(t0)
		if err != nil {
			tr.led.record(tr.what+" trial", err)
			return s, err
		}
		err = staticChecks(res)
		if err == nil && tr.first[k] != nil {
			err = checkedOutcomes("repeated trial vs the input's first run",
				outcomesOf(&res.Arms[0]), outcomesOf(&tr.first[k][i].Arms[0]))
		}
		tr.led.record(tr.what+" trial", err)
		if err := res.WriteText(&text); err != nil {
			return s, err
		}
		if i == 0 {
			s.first = d
		}
		s.wall += d
		s.trials = append(s.trials, d)
		results = append(results, res)
	}
	if tr.first[k] == nil {
		tr.first[k] = results
	}
	s.digest = digestOf(text.Bytes())
	return s, nil
}

// endToEnd reports the simulated headline, pooled over every input's
// first run: the circuitstart arm's median TTLB, and the baseline
// arm's median over it (the paper's gain).
func (tr *trialRounds) endToEnd(r *report) {
	var cs, base []float64
	for _, in := range tr.first {
		for arm, res := range in {
			for _, o := range res.Arms[0].Circuits {
				if !o.Done {
					continue
				}
				if arm == 0 {
					cs = append(cs, o.TTLB.Seconds())
				} else {
					base = append(base, o.TTLB.Seconds())
				}
			}
		}
	}
	if m := median(cs); m > 0 {
		name := tr.inputs[0][1].Arms[0].Name
		r.set("ttlb_p50_s", m, len(cs), "simulated, circuitstart arm, every input pooled")
		r.set("ttlb_gain", median(base)/m, len(base), "simulated, "+name+" p50 / circuitstart p50")
	}
}

// scenarioCounts reports input 0's control-plane counters, which a
// speed-only change must not move.
func (tr *trialRounds) scenarioCounts(r *report) {
	var stalls, recov, retries, built int
	for _, res := range tr.first[0] {
		for _, a := range res.Arms {
			stalls += a.Resilience.Stalls
			recov += a.Resilience.Recoveries
			retries += a.Resilience.Retries
			built += a.Churn.Built
		}
	}
	r.set("scenario.stalls", float64(stalls), 1, "input 0, all arms")
	r.set("scenario.recoveries", float64(recov), 1, "")
	r.set("scenario.retries", float64(retries), 1, "")
	r.set("scenario.churn_built", float64(built), 1, "")
}

// perArmInputs splits a scenario into one single-arm, single-
// replication scenario per arm.
func perArmInputs(sc scenario.Scenario) []scenario.Scenario {
	var out []scenario.Scenario
	for _, arm := range sc.Arms {
		s := sc.Clone()
		s.Arms = []scenario.Arm{arm}
		s.Replications = 1
		out = append(out, s)
	}
	return out
}
