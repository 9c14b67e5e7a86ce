package main

import (
	"fmt"
	"runtime"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/cell"
	"circuitstart/internal/onion"
)

// trialLayers accumulates the per-layer numbers of traced composed
// trials run back to back in one harness-owned arena.
type trialLayers struct {
	ar                         *arena.Arena
	trials                     int
	events                     uint64
	nsPerEvent, runSelfMS      []float64
	relayMS, endpointMS        []float64
	buildMS, circuitUS, wallMS []float64
	allocFirstMB               float64
	allocSteadyMB              []float64
	last                       layerCounts
}

// run executes one traced composed trial and checks its outcomes
// against want, the untraced Runner's outcomes for the same trial.
func (tl *trialLayers) run(p trialPlan, want []outcome, led *ledger) error {
	if tl.ar == nil {
		tl.ar = arena.New()
	} else {
		tl.ar.ResetTrial()
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t, err := runComposed(p, tl.ar)
	runtime.ReadMemStats(&b)
	if err != nil {
		return fmt.Errorf("traced trial: %w", err)
	}
	mb := float64(b.TotalAlloc-a.TotalAlloc) / 1e6
	if tl.trials == 0 {
		tl.allocFirstMB = mb
	} else {
		tl.allocSteadyMB = append(tl.allocSteadyMB, mb)
	}
	led.record("traced trial", checkedOutcomes("traced trial vs untraced Runner trial", t.outcomes, want))

	tl.trials++
	tl.events += t.events
	run := t.run.dur()
	handlers := t.fab.relays.self + t.fab.endpoints.self
	if t.events > 0 {
		tl.nsPerEvent = append(tl.nsPerEvent, float64(run)/float64(t.events))
	}
	tl.runSelfMS = append(tl.runSelfMS, float64(run-handlers)/1e6)
	tl.relayMS = append(tl.relayMS, float64(t.fab.relays.self)/1e6)
	tl.endpointMS = append(tl.endpointMS, float64(t.fab.endpoints.self)/1e6)
	tl.buildMS = append(tl.buildMS, float64(t.build.dur())/1e6)
	tl.circuitUS = append(tl.circuitUS, t.circuitUS...)
	tl.wallMS = append(tl.wallMS, float64(t.build.dur()+run)/1e6)
	tl.last = countNetwork(t.net, t.circuits)
	return nil
}

func checkedOutcomes(what string, got, want []outcome) error {
	if err := sameOutcomes(got, want); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// report fills the single-clock layers. untracedMS is the untraced
// wall time of the same trial, the base of the tracing overhead and of
// the computed onion share.
func (tl *trialLayers) report(r *report, untracedMS float64) {
	n := tl.trials
	r.set("sim.events", float64(tl.events), n, "clock events over all traced trials")
	if n > 0 {
		r.set("sim.events_per_trial", float64(tl.events)/float64(n), n, "")
	}
	r.set("sim.ns_per_event", median(tl.nsPerEvent), len(tl.nsPerEvent), "run span / Clock.Processed delta")
	r.set("sim.run_self_ms", median(tl.runSelfMS), len(tl.runSelfMS), "run span minus handler self time: clock, links, fabric")
	r.set("relay.deliver_self_ms", median(tl.relayMS), len(tl.relayMS), "per trial, Handler decorator")
	r.set("endpoint.deliver_self_ms", median(tl.endpointMS), len(tl.endpointMS), "per trial, Handler decorator")
	r.set("core.build_ms_per_trial", median(tl.buildMS), len(tl.buildMS), "workload.Build-equivalent span")
	r.set("core.circuit_build_us_p50", median(tl.circuitUS), len(tl.circuitUS), "BuildCircuit spans incl. onion handshakes")
	r.set("arena.alloc_first_trial_MB", tl.allocFirstMB, 1, "")
	r.set("arena.alloc_steady_trial_MB", median(tl.allocSteadyMB), len(tl.allocSteadyMB), "")
	reportCounts(r, tl.last)
	if untracedMS > 0 && len(tl.wallMS) > 0 {
		r.set("trace.overhead", median(tl.wallMS)/untracedMS, len(tl.wallMS), "traced trial wall / untraced trial wall")
		ns := onionNsPerCell()
		r.set("onion.ns_per_cell", ns, 1, "calibrated: WrapForward + 3 DecryptForward + VerifyForward")
		r.set("onion.share_computed", float64(tl.last.originCells)*ns/(untracedMS*1e6), 1, "computed: cells x ns_per_cell / untraced trial wall")
	}
}

// reportCounts fills the counters of one trial.
func reportCounts(r *report, lc layerCounts) {
	r.set("netem.frames", float64(lc.frames), 1, "frames delivered, all access links and trunks")
	r.set("netem.trains", float64(lc.trains), 1, "")
	if lc.trains > 0 {
		r.set("netem.mean_train_len", float64(lc.frames)/float64(lc.trains), 1, "")
	}
	if lc.enqueued > 0 {
		r.set("netem.queue_delay_ms_mean", float64(lc.queueDelay)/float64(lc.enqueued)/1e6, int(lc.enqueued), "")
	}
	r.set("netem.max_queue_len", float64(lc.maxQueue), 1, "")
	r.set("netem.drops_tail", float64(lc.tail), 1, "")
	r.set("netem.drops_loss", float64(lc.loss), 1, "")
	r.set("netem.drops_down", float64(lc.down), 1, "")
	r.set("netem.drops_sched", float64(lc.sched), 1, "")
	r.set("netem.unknown_dst", float64(lc.unknownDst), 1, "")
	r.set("netem.unroutable", float64(lc.unroutable), 1, "")
	r.set("relay.cells_forwarded", float64(lc.relayFwd), 1, "")
	r.set("relay.recognized", float64(lc.relayRecog), 1, "")
	r.set("transport.transmitted", float64(lc.transmitted), 1, "")
	r.set("transport.retransmitted", float64(lc.retransmitted), 1, "")
	r.set("transport.rtos", float64(lc.rtos), 1, "")
	r.set("transport.rounds", float64(lc.rounds), 1, "")
	if all := lc.transmitted + lc.retransmitted; all > 0 {
		r.set("transport.useful_ratio", float64(lc.transmitted)/float64(all), 1, "first transmissions / all transmissions")
	}
	r.set("onion.cells", float64(lc.originCells), 1, "cells onion-wrapped at an origin endpoint")
	r.set("sched.drops", float64(lc.schedDrops), 1, "")
	r.set("resource.admitted", float64(lc.res.Admitted), 1, "")
	r.set("resource.rejected", float64(lc.res.Rejected), 1, "")
	r.set("resource.killed", float64(lc.res.Killed), 1, "")
	r.set("resource.mem_hw_bytes", float64(lc.res.MemHighWater), 1, "")
}

// fixedRand is a deterministic byte source for key generation.
type fixedRand struct{ ctr byte }

func (r *fixedRand) Read(p []byte) (int, error) {
	for i := range p {
		r.ctr += 31
		p[i] = r.ctr ^ byte(i)
	}
	return len(p), nil
}

// onionNsPerCell times one cell's full forward onion path on a 3-hop
// circuit: the client wraps (seal + three layers), each relay peels its
// layer, the exit verifies. Median of several batches.
func onionNsPerCell() float64 {
	rnd := &fixedRand{}
	ids := make([]*onion.Identity, 3)
	for i := range ids {
		id, err := onion.NewIdentity(rnd)
		if err != nil {
			return 0
		}
		ids[i] = id
	}
	cc, hops, err := onion.BuildCircuit(rnd, ids)
	if err != nil {
		return 0
	}
	c := &cell.Cell{}
	if err := c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, make([]byte, cell.MaxRelayData)); err != nil {
		return 0
	}
	const batch = 2000
	var per []float64
	for rep := 0; rep < 7; rep++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			cc.WrapForward(c)
			for _, h := range hops {
				h.DecryptForward(c)
			}
			if !hops[len(hops)-1].VerifyForward(c) {
				return 0
			}
		}
		per = append(per, float64(time.Since(t0))/batch)
	}
	return median(per)
}
