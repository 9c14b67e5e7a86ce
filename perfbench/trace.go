package main

import (
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/sim"
)

// handlerTime accumulates the self time of one class of frame
// handlers (relays or endpoints) on one simulation goroutine.
type handlerTime struct {
	self   time.Duration
	calls  uint64 // Deliver calls
	trains uint64 // DeliverTrain calls
	frames uint64 // frames handed over by either call
}

// timedFabric decorates a netem.Fabric from outside the program: every
// node's Handler (and TrainHandler) is wrapped so each delivery is
// timed. The program itself carries no probes. A handler that, while
// running, makes another handler run has that nested time subtracted
// from its own, so the two classes add up to their union.
type timedFabric struct {
	netem.Fabric
	relays, endpoints handlerTime
	active            *timedHandler // innermost handler running, if any
}

func (f *timedFabric) Attach(id netem.NodeID, cfg netem.AccessConfig, h netem.Handler, rng *sim.RNG) *netem.Port {
	acc := &f.endpoints
	if _, ok := h.(*relay.Relay); ok {
		acc = &f.relays
	}
	th := &timedHandler{fab: f, inner: h, acc: acc}
	if inner, ok := h.(netem.TrainHandler); ok {
		return f.Fabric.Attach(id, cfg, &timedTrainHandler{timedHandler: th, train: inner}, rng)
	}
	return f.Fabric.Attach(id, cfg, th, rng)
}

// timedHandler wraps a plain Handler.
type timedHandler struct {
	fab    *timedFabric
	inner  netem.Handler
	acc    *handlerTime
	nested time.Duration // time spent in handlers called from this one
	parent *timedHandler
}

func (h *timedHandler) enter() time.Time {
	h.parent, h.fab.active = h.fab.active, h
	h.nested = 0
	return time.Now()
}

func (h *timedHandler) exit(t0 time.Time) {
	d := time.Since(t0)
	h.acc.self += d - h.nested
	h.fab.active = h.parent
	if h.parent != nil {
		h.parent.nested += d
	}
}

func (h *timedHandler) Deliver(f *netem.Frame) {
	t0 := h.enter()
	h.inner.Deliver(f)
	h.exit(t0)
	h.acc.calls++
	h.acc.frames++
}

// timedTrainHandler keeps batch delivery intact: a train reaches the
// wrapped node in one DeliverTrain call, never split into Deliver
// calls, so the decorator cannot change how the node processes it.
type timedTrainHandler struct {
	*timedHandler
	train netem.TrainHandler
}

func (h *timedTrainHandler) DeliverTrain(fs []*netem.Frame) {
	t0 := h.enter()
	h.train.DeliverTrain(fs)
	h.exit(t0)
	h.acc.trains++
	h.acc.frames += uint64(len(fs))
}
