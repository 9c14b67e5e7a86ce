package scenario

import (
	"sort"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/resource"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// barrierPlane runs a trial on a core.ShardedNetwork. The data plane is
// the untouched cell pipeline, advanced in barrier-synchronous windows;
// every control action — circuit builds, transfer starts, teardowns,
// relay failures — runs at a barrier, where every shard clock is parked
// at the same instant. DESIGN.md ("Sharded execution") states the
// ordering rules that make its results byte-identical at any shard
// count.
type barrierPlane struct {
	e         *engine
	sn        *core.ShardedNetwork
	stride    time.Duration // barrier stride (0 = one window to the horizon)
	barrierAt sim.Time      // the barrier being run
	queues    [numQueues][]action
}

// action is a control action waiting for its barrier.
type action struct {
	at sim.Time
	fn func()
}

// newBarrierPlane pins sn's barrier stride to the partition-independent
// stride (GraphSpec.MinPositiveTrunkDelay; 0 runs one window).
func newBarrierPlane(e *engine, sn *core.ShardedNetwork, stride time.Duration) *barrierPlane {
	p := &barrierPlane{e: e, sn: sn}
	if stride > 0 {
		sn.SetWindow(stride)
		p.stride = stride
	}
	return p
}

func (p *barrierPlane) post(q queue, at sim.Time, fn func()) {
	p.queues[q] = append(p.queues[q], action{at: at, fn: fn})
}

func (p *barrierPlane) transfer(c *core.Circuit, at sim.Time, size units.DataSize, download bool, onDone func(time.Duration)) {
	c.ScheduleTransfer(at, size, download, onDone)
}

// completed leaves the download to the next barrier: it runs mid-window
// on the completing shard, which may touch nothing but d.
func (p *barrierPlane) completed(*download) {}

// settle is a no-op: the barrier plane stops when finished holds.
func (p *barrierPlane) settle(*download) {}

func (p *barrierPlane) now() sim.Time { return p.barrierAt }

// run stable-sorts what was posted before the trial by instant, so
// equal instants keep their posting (index or declared) order, and
// plays the windows.
func (p *barrierPlane) run(horizon sim.Time) {
	for _, q := range p.queues {
		sort.SliceStable(q, func(i, j int) bool { return q[i].at.Before(q[j].at) })
	}
	p.sn.RunWindows(horizon, p.barrier)
}

// netStats reports no resource counters: resource limits are rejected
// on shards.
func (p *barrierPlane) netStats() NetStats {
	return netStats(p.sn.Fabric(), resource.Stats{}, p.sn.SchedDrops())
}

// barrier is the control plane, run by RunWindows with every shard
// clock parked at now: completions of the last window in download-index
// order, then each queue in turn. Returning false stops the trial.
func (p *barrierPlane) barrier(now sim.Time) bool {
	p.barrierAt = now
	for _, d := range p.e.downloads {
		if d.done && !d.handled && !d.aborted {
			p.e.complete(d)
		}
	}
	next := p.nextBarrier(now)
	for q := range p.queues {
		limit := now.Add(1) // due actions: at or before now
		if queue(q) >= qArrival {
			limit = next // ahead actions: before the next barrier
		}
		p.drain(queue(q), limit)
	}
	return !p.finished()
}

// drain runs, in queue order, every action of q due before limit and
// keeps the rest. An action may post to its own queue.
func (p *barrierPlane) drain(q queue, limit sim.Time) {
	kept := 0
	for i := 0; i < len(p.queues[q]); i++ {
		a := p.queues[q][i]
		if !a.at.Before(limit) {
			p.queues[q][kept] = a
			kept++
			continue
		}
		a.fn()
	}
	clear(p.queues[q][kept:])
	p.queues[q] = p.queues[q][:kept]
}

// nextBarrier returns the instant of the barrier after now.
func (p *barrierPlane) nextBarrier(now sim.Time) sim.Time {
	if p.stride == 0 {
		return p.e.sc.Horizon
	}
	if n := now.Add(p.stride); n.Before(p.e.sc.Horizon) {
		return n
	}
	return p.e.sc.Horizon
}

// finished reports whether the trial can stop at this barrier: every
// download accounted, every linger applied, and no start or arrival
// pending. The decision reads only shard-count-invariant state, so the
// stop barrier — and with it every trailing trunk statistic — is
// invariant too.
func (p *barrierPlane) finished() bool {
	if p.e.sc.RunFullHorizon {
		return false
	}
	if len(p.queues[qLinger]) > 0 || len(p.queues[qArrival]) > 0 || len(p.queues[qStart]) > 0 {
		return false
	}
	for _, d := range p.e.downloads {
		if !d.aborted && !d.handled {
			return false
		}
	}
	return true
}
