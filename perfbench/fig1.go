package main

import (
	"circuitstart/internal/experiments"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// fig1 is the fig1_cells workload: the paper's aggregate experiment
// (Fig. 1, lower panel: 50 circuits over 40 relays, 500 kB each,
// circuitstart vs backtap) on the static engine, untrained, on a star.
type fig1 struct {
	trialRounds
	plan   trialPlan // input 0, circuitstart, composed for the traced run
	layers trialLayers
}

func newFig1(cfg config, led *ledger) (bench, error) {
	b := &fig1{trialRounds: trialRounds{led: led, what: "fig1"}}
	for k := 0; k < inputCount(cfg, 6); k++ {
		p := experiments.DefaultCDFParams()
		p.Seed = inputSeed(cfg.seed, k)
		if cfg.short {
			p.Scenario.Circuits = 6
			p.Scenario.Relays = workload.DefaultRelayParams(10)
			p.Scenario.TransferSize = 100 * units.Kilobyte
		}
		// Materializing the population validates its parameters before
		// anything is timed.
		if _, err := workload.GenerateRelays(p.Seed, p.Scenario.Relays); err != nil {
			return nil, err
		}
		b.inputs = append(b.inputs, perArmInputs(p.ToScenario()))
	}
	plan, err := planFor(b.inputs[0][0], b.inputs[0][0].Arms[0])
	if err != nil {
		return nil, err
	}
	b.plan = plan
	return b, nil
}

func (b *fig1) close() {}

func (b *fig1) tracedRound() error {
	return runTracedTrials(&b.layers, b.plan, outcomesOf(&b.first[0][0].Arms[0]), b.led)
}

func (b *fig1) perLayer(r *report, base roundSample) {
	b.layers.report(r, float64(base.first)/1e6)
	b.scenarioCounts(r)
}

// runTracedTrials runs one traced trial, or two on the first call so
// the arena's first and steady-state allocation bills are both
// measured.
func runTracedTrials(tl *trialLayers, p trialPlan, want []outcome, led *ledger) error {
	n := 1
	if tl.trials == 0 {
		n = 2
	}
	for i := 0; i < n; i++ {
		if err := tl.run(p, want, led); err != nil {
			return err
		}
	}
	return nil
}
