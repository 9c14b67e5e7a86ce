package faults

import (
	"fmt"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// Network is the slice of the simulation the injector needs: the
// relays to degrade, the trunks to partition, and the clock owning each
// of them. On one clock every target answers with the same clock; on a
// sharded simulation a relay's access links live on the relay's shard
// and each trunk direction on the shard owning its source switch.
// core.Network and core.ShardedNetwork satisfy it; tests can stub it.
type Network interface {
	Relay(id netem.NodeID) *relay.Relay
	RelayClock(id netem.NodeID) *sim.Clock
	Trunk(a, b netem.SwitchID) *netem.Link
	TrunkClock(a, b netem.SwitchID) *sim.Clock
}

// Injector is an installed fault plan: every episode is compiled onto
// the clock owning its target, and the set of currently-faulted relays
// is tracked so recovery path selection can route around live failures.
type Injector struct {
	plan Plan
	// suspect refcounts relays currently inside a fault episode (down,
	// hung, or slowed); overlapping episodes on one relay nest. The map
	// is complete at install time and never written again: each counter
	// is written only by its relay's episodes, which all run on the
	// relay's clock, so a sharded trial has one writer per counter.
	suspect map[netem.NodeID]*int
}

// Install compiles the plan onto the network, each episode on the clock
// owning its target. Call it after the topology is built (relays
// attached, trunks wired) and before the clocks run; episodes whose
// start instant is not in the future take effect immediately. seed is
// the trial seed — each fault entry derives its own named RNG streams
// from it, so draws never cross between entries, and a faulted trial is
// byte-identical at every shard count.
//
// The plan must have passed Validate against this topology; Install
// panics on targets the topology does not have.
func Install(n Network, p Plan, seed int64) *Injector {
	inj := &Injector{plan: p, suspect: make(map[netem.NodeID]*int)}
	at := func(clk *sim.Clock, t sim.Time, fn func()) {
		if t.After(clk.Now()) {
			clk.At(t, fn)
			return
		}
		fn()
	}
	relayOf := func(id netem.NodeID) (*relay.Relay, *sim.Clock) {
		r, clk := n.Relay(id), n.RelayClock(id)
		if r == nil || clk == nil {
			panic(fmt.Sprintf("faults: plan targets unknown relay %q", id))
		}
		return r, clk
	}
	links := func(id netem.NodeID) (clk *sim.Clock, up, down *netem.Link) {
		r, clk := relayOf(id)
		port := r.Port()
		return clk, port.Uplink(), port.Downlink()
	}
	suspect := func(id netem.NodeID) *int {
		c := inj.suspect[id]
		if c == nil {
			c = new(int)
			inj.suspect[id] = c
		}
		return c
	}

	for i, b := range p.BurstLoss {
		clk, up, down := links(b.Relay)
		mUp := &netem.GilbertElliott{
			PGoodBad: b.PGoodBad, PBadGood: b.PBadGood,
			LossGood: b.LossGood, LossBad: b.LossBad,
			RNG: sim.NewRNG(seed, fmt.Sprintf("fault-burstloss/%d/up", i)),
		}
		mDown := &netem.GilbertElliott{
			PGoodBad: b.PGoodBad, PBadGood: b.PBadGood,
			LossGood: b.LossGood, LossBad: b.LossBad,
			RNG: sim.NewRNG(seed, fmt.Sprintf("fault-burstloss/%d/down", i)),
		}
		at(clk, b.From, func() {
			up.SetLossModel(mUp)
			down.SetLossModel(mDown)
		})
		if b.Until != 0 {
			at(clk, b.Until, func() {
				up.SetLossModel(nil)
				down.SetLossModel(nil)
			})
		}
	}

	for i, j := range p.Jitter {
		clk, up, down := links(j.Relay)
		mUp := &netem.UniformJitter{
			Amplitude: j.Amplitude, SpikeProb: j.SpikeProb, SpikeDelay: j.SpikeDelay,
			RNG: sim.NewRNG(seed, fmt.Sprintf("fault-jitter/%d/up", i)),
		}
		mDown := &netem.UniformJitter{
			Amplitude: j.Amplitude, SpikeProb: j.SpikeProb, SpikeDelay: j.SpikeDelay,
			RNG: sim.NewRNG(seed, fmt.Sprintf("fault-jitter/%d/down", i)),
		}
		at(clk, j.From, func() {
			up.SetJitter(mUp)
			down.SetJitter(mDown)
		})
		if j.Until != 0 {
			at(clk, j.Until, func() {
				up.SetJitter(nil)
				down.SetJitter(nil)
			})
		}
	}

	for _, f := range p.Flaps {
		clk, up, down := links(f.Relay)
		cnt := suspect(f.Relay)
		for i := 0; i <= f.Repeat; i++ {
			downAt := f.DownAt.Add(time.Duration(i) * f.Every)
			at(clk, downAt, func() {
				up.SetDown(true)
				down.SetDown(true)
				*cnt++
			})
			at(clk, downAt.Add(f.UpAfter), func() {
				up.SetDown(false)
				down.SetDown(false)
				*cnt--
			})
		}
	}

	for _, pt := range p.Partitions {
		// The two directions of a trunk may live on different shards;
		// each goes down on its owner's clock at the same instant.
		ab, ba := n.Trunk(pt.TrunkA, pt.TrunkB), n.Trunk(pt.TrunkB, pt.TrunkA)
		if ab == nil || ba == nil {
			panic(fmt.Sprintf("faults: plan partitions unknown trunk %q-%q", pt.TrunkA, pt.TrunkB))
		}
		clkAB, clkBA := n.TrunkClock(pt.TrunkA, pt.TrunkB), n.TrunkClock(pt.TrunkB, pt.TrunkA)
		at(clkAB, pt.At, func() { ab.SetDown(true) })
		at(clkBA, pt.At, func() { ba.SetDown(true) })
		if pt.HealAfter > 0 {
			at(clkAB, pt.At.Add(pt.HealAfter), func() { ab.SetDown(false) })
			at(clkBA, pt.At.Add(pt.HealAfter), func() { ba.SetDown(false) })
		}
	}

	for _, d := range p.Degrades {
		d := d
		cnt := suspect(d.Relay)
		switch d.Mode {
		case DegradeHang:
			r, clk := relayOf(d.Relay)
			at(clk, d.At, func() {
				r.Hang()
				*cnt++
			})
			if d.RecoverAfter > 0 {
				at(clk, d.At.Add(d.RecoverAfter), func() {
					r.Unhang()
					*cnt--
				})
			}
		case DegradeSlow:
			clk, up, down := links(d.Relay)
			at(clk, d.At, func() {
				up.SetRate(units.DataRate(float64(up.Config().Rate) * d.RateFactor))
				down.SetRate(units.DataRate(float64(down.Config().Rate) * d.RateFactor))
				*cnt++
			})
			if d.RecoverAfter > 0 {
				at(clk, d.At.Add(d.RecoverAfter), func() {
					// Divide the live rate rather than restoring a snapshot
					// so a LinkEvent rate change during the episode survives.
					up.SetRate(units.DataRate(float64(up.Config().Rate) / d.RateFactor))
					down.SetRate(units.DataRate(float64(down.Config().Rate) / d.RateFactor))
					*cnt--
				})
			}
		}
	}
	return inj
}

// Plan returns the installed plan (with Recovery defaults filled).
func (inj *Injector) Plan() Plan { return inj.plan }

// Suspected reports whether the relay is currently inside a fault
// episode the injector tracks (flapped down, hung, or slowed).
func (inj *Injector) Suspected(id netem.NodeID) bool {
	if inj == nil {
		return false
	}
	c := inj.suspect[id]
	return c != nil && *c > 0
}

// ExcludedWith merges the currently-suspected relays into base, the
// caller's own exclusion set, and returns the union. When nothing is
// suspected it returns base itself, untouched — the no-fault path does
// no extra work and observes later mutations of base as before.
func (inj *Injector) ExcludedWith(base map[netem.NodeID]bool) map[netem.NodeID]bool {
	if inj == nil {
		return base
	}
	n := 0
	for _, c := range inj.suspect {
		if *c > 0 {
			n++
		}
	}
	if n == 0 {
		return base
	}
	m := make(map[netem.NodeID]bool, len(base)+n)
	for id, bad := range base {
		if bad {
			m[id] = true
		}
	}
	for id, c := range inj.suspect {
		if *c > 0 {
			m[id] = true
		}
	}
	return m
}
