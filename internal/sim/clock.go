// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate everything else in this repository runs on:
// network links, transport timers, and application workloads all schedule
// events on a single virtual clock. Simulated time is represented as
// time.Duration offsets from the simulation epoch, so a nanosecond of
// virtual time costs nothing to "wait" for.
//
// The design mirrors the event core of ns-3 (which the paper's nstor
// framework builds on): a priority queue of timestamped events, a strictly
// monotone clock, and stable FIFO ordering for events scheduled at the
// same instant. Events fire in the total order (at, origin, seq): instant,
// then the instant the scheduling call was made, then a per-clock
// sequence number. Determinism is a hard requirement — given the same
// seed, every experiment in this repository reproduces byte-identical
// traces.
//
// The scheduler is built for an allocation-free steady state and a small
// heap:
//
//   - The priority queue is an inlined 4-ary min-heap specialized to the
//     event type, with each event's sort key stored next to its pointer.
//     Fired and cancelled events are recycled through a per-clock free
//     list, and cancellation removes the event from the heap at once.
//   - A Stamp reserves an (origin, seq) key now for an event scheduled
//     later with AtStamp. A stream of events whose keys are nondecreasing
//     — a link's in-flight frames — then keeps only its head in the heap:
//     the minimum of all pending keys is always in the heap, so firing
//     order is exactly what scheduling every member up front would give.
//   - RunUntil fuses each event's pop with the first event its callback
//     schedules: the fired root stays in the heap as an inert placeholder
//     that the callback's first schedule overwrites and sifts down once.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured as an offset from the
// simulation epoch (t = 0). It is a distinct type so that virtual time
// cannot be accidentally mixed with wall-clock time.
type Time time.Duration

// Common Time constants re-exported for convenience.
const (
	Nanosecond  Time = Time(time.Nanosecond)
	Microsecond Time = Time(time.Microsecond)
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
)

// MaxTime is the largest representable instant. It is used as the
// default horizon for unbounded runs.
const MaxTime Time = Time(math.MaxInt64)

// Duration converts t to a time.Duration offset from the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the instant expressed in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Milliseconds returns the instant expressed in milliseconds, with
// sub-millisecond precision retained.
func (t Time) Milliseconds() float64 { return float64(t) / float64(time.Millisecond) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

func (t Time) String() string { return time.Duration(t).String() }

// event is a single scheduled callback. Events are owned by their Clock
// and recycled through its free list after firing or cancellation; a
// generation counter invalidates any Handle still pointing at a recycled
// event.
type event struct {
	at     Time
	origin Time   // virtual instant the scheduling call was made
	seq    uint64 // tie-breaker: FIFO for equal (at, origin)
	fn     func()
	idx    int32  // heap index, -1 when not queued
	gen    uint64 // bumped on recycle; Handles capture the value they saw
	clk    *Clock // owning clock, for Handle.Cancel
	nxt    *event // free-list link
}

// heapSlot is one heap entry: the event's sort key inlined next to its
// pointer. Keeping (at, origin, seq) in the heap's own backing array
// means the sift loops compare against contiguous memory instead of
// dereferencing a scattered *event per comparison — on transfer-heavy
// runs the heap is the single hottest structure and those misses
// dominated it.
type heapSlot struct {
	at     Time
	origin Time
	seq    uint64
	ev     *event
}

// slotLess orders entries by (at, origin, seq) — earliest instant
// first, then earliest scheduling instant, FIFO within both. For
// events scheduled by the clock's own execution the origin is the
// current time, so origin order and seq order always agree and the key
// degenerates to the classic (at, seq) FIFO — byte-identical to the
// pre-origin engine. The origin field exists for the sharded engine:
// a handoff imported at a barrier is scheduled with the origin it had
// on its source shard (its serialization end), which slots it among
// equal-instant events exactly where the single-clock engine would
// have put it.
func slotLess(a, b heapSlot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

// Clock is a discrete-event scheduler plus virtual clock. It is not safe
// for concurrent use: the entire simulation is single-threaded by design,
// which is what makes runs reproducible.
type Clock struct {
	now     Time
	queue   []heapSlot // 4-ary min-heap ordered by (at, origin, seq)
	seq     uint64
	free    *event // recycled events awaiting reuse
	running bool
	stopped bool
	// fired marks queue[0] as the inert slot of the event RunUntil is
	// executing: the callback's first heapPush overwrites it (pop-push
	// fusion), and RunUntil drops it if the callback schedules nothing.
	// Its key is the minimum of the heap, so no sift ever moves it.
	fired bool

	processed uint64
}

// NewClock returns a clock positioned at the epoch with an empty queue.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Processed returns the number of events executed so far. It is useful
// for progress accounting in long experiments and for asserting that a
// scenario actually did work.
func (c *Clock) Processed() uint64 { return c.processed }

// Pending returns the number of events currently scheduled. Cancelled
// events are removed from the queue immediately, so the count is exact —
// long transport runs that cancel many RTO timers do not inflate it.
// Inside a callback, the firing event no longer counts.
func (c *Clock) Pending() int {
	if c.fired {
		return len(c.queue) - 1
	}
	return len(c.queue)
}

// Next returns the instant of the earliest pending event and whether
// one exists. The sharded engine uses it as the horizon probe: a shard
// whose next event lies beyond the window end is idle for that window,
// and a trial whose shards are all idle (with empty boundary queues)
// has quiesced and may stop at the barrier.
func (c *Clock) Next() (Time, bool) {
	if !c.fired {
		if len(c.queue) == 0 {
			return 0, false
		}
		return c.queue[0].at, true
	}
	// Inside a callback, before it has scheduled anything: the earliest
	// pending event is one of the fired root's children.
	if len(c.queue) == 1 {
		return 0, false
	}
	min := 1
	for j := 2; j < len(c.queue) && j <= 4; j++ {
		if slotLess(c.queue[j], c.queue[min]) {
			min = j
		}
	}
	return c.queue[min].at, true
}

// Handle identifies a scheduled event and allows cancelling it. The zero
// Handle is inert: Cancel and Active return false.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from running, removing it from the queue
// immediately. Cancelling an event that has already fired or been
// cancelled is a no-op. Cancel reports whether the event was still
// pending.
func (h Handle) Cancel() bool {
	if !h.Active() {
		return false
	}
	c := h.ev.clk
	c.heapRemove(h.ev)
	c.release(h.ev)
	return true
}

// Active reports whether the event is still scheduled to run.
func (h Handle) Active() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.idx >= 0
}

// Reschedule moves the pending event to the absolute instant t, with
// cancel-and-reschedule ordering semantics (see Clock.reschedule). It
// reports whether the event was still pending; a fired or cancelled
// event is left alone.
func (h Handle) Reschedule(t Time) bool {
	if !h.Active() {
		return false
	}
	h.ev.clk.reschedule(h.ev, t)
	return true
}

// alloc takes an event from the free list, or grows the arena by one.
func (c *Clock) alloc() *event {
	ev := c.free
	if ev == nil {
		return &event{clk: c}
	}
	c.free = ev.nxt
	ev.nxt = nil
	return ev
}

// release recycles an event that has fired or been cancelled. Bumping
// the generation makes every outstanding Handle to it inert.
func (c *Clock) release(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.nxt = c.free
	c.free = ev
}

// At schedules fn to run at the absolute instant t. Scheduling in the
// past panics: that is always a logic error in a discrete-event model.
func (c *Clock) At(t Time, fn func()) Handle {
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v which is before now %v", t, c.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	return c.schedule(t, c.now, fn)
}

// AtOrigin schedules fn at the absolute instant t with an explicit
// origin for equal-instant ordering (see slotLess). origin must not
// exceed t. It exists for the sharded engine's barrier imports; all
// other callers want At, whose origin is the current instant.
func (c *Clock) AtOrigin(t, origin Time, fn func()) Handle {
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v which is before now %v", t, c.now))
	}
	if origin > t {
		panic(fmt.Sprintf("sim: event origin %v after its instant %v", origin, t))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	return c.schedule(t, origin, fn)
}

func (c *Clock) schedule(t, origin Time, fn func()) Handle {
	h := c.scheduleKey(t, origin, c.seq, fn)
	c.seq++
	return h
}

func (c *Clock) scheduleKey(t, origin Time, seq uint64, fn func()) Handle {
	ev := c.alloc()
	ev.at = t
	ev.origin = origin
	ev.seq = seq
	ev.fn = fn
	c.heapPush(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// Stamp is an ordering key reserved on a Clock: the (origin, seq) pair
// an event scheduled at this moment would get. The zero Stamp is a
// valid key (the first one a fresh clock issues).
type Stamp struct {
	origin Time
	seq    uint64
}

// Stamp reserves the ordering key At would assign at this instant,
// consuming the next sequence number exactly as At would. Scheduling
// the event later with AtStamp fires it exactly where At, called now,
// would have. This lets a stream of events with nondecreasing instants
// — a link's in-flight frames — keep only its head on the heap: every
// other member's reserved key sorts after the head's, so the earliest
// pending key is always in the heap.
func (c *Clock) Stamp() Stamp {
	s := Stamp{origin: c.now, seq: c.seq}
	c.seq++
	return s
}

// AtStamp schedules fn at the absolute instant t under a key reserved
// earlier with Stamp. It consumes no sequence number. Like At it panics
// on an instant before now or a nil fn, and like AtOrigin on a stamp
// whose origin lies after t. The caller must schedule a stamped event
// before any event with a larger key fires, which a stream guarantees
// by arming its next head when the previous one fires.
func (c *Clock) AtStamp(t Time, s Stamp, fn func()) Handle {
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v which is before now %v", t, c.now))
	}
	if s.origin > t {
		panic(fmt.Sprintf("sim: event origin %v after its instant %v", s.origin, t))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	return c.scheduleKey(t, s.origin, s.seq, fn)
}

// After schedules fn to run d after the current instant.
func (c *Clock) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return c.At(c.now.Add(d), fn)
}

// reschedule moves a pending event to the absolute instant t, consuming
// a fresh sequence number exactly as cancel-and-reschedule would, so
// FIFO ordering at equal timestamps is indistinguishable from the
// two-call pattern — without the allocation.
func (c *Clock) reschedule(ev *event, t Time) {
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v which is before now %v", t, c.now))
	}
	ev.at = t
	ev.origin = c.now
	ev.seq = c.seq
	c.seq++
	c.heapFix(ev)
}

// Stop aborts a running Run/RunUntil after the current event returns.
func (c *Clock) Stop() { c.stopped = true }

// Reset returns the clock to the epoch with an empty queue, recycling
// every still-pending event through the free list. Outstanding Handles
// and armed Timers become inert exactly as if each event had been
// cancelled. The free list itself is retained, which is the point:
// arena-style trial loops reuse one clock so the event arena built up
// in trial N serves trial N+1 without reallocating. Resetting a clock
// that is currently running panics.
func (c *Clock) Reset() {
	if c.running {
		panic("sim: Reset called while running")
	}
	for i, slot := range c.queue {
		slot.ev.idx = -1
		c.release(slot.ev)
		c.queue[i] = heapSlot{}
	}
	c.queue = c.queue[:0]
	c.now = 0
	c.seq = 0
	c.processed = 0
	c.stopped = false
}

// Run executes events until the queue is empty or Stop is called.
// It returns the time of the last executed event.
func (c *Clock) Run() Time { return c.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= horizon, advancing the
// clock as it goes. On return the clock is positioned at
// min(horizon, time of last event) — or at horizon exactly when the
// queue still holds later events, so that subsequent scheduling
// continues from the horizon.
func (c *Clock) RunUntil(horizon Time) Time {
	if c.running {
		panic("sim: RunUntil called re-entrantly")
	}
	c.running = true
	c.stopped = false
	defer c.endRun()

	for len(c.queue) > 0 && !c.stopped {
		at, ev := c.queue[0].at, c.queue[0].ev
		if at > horizon {
			c.now = horizon
			return c.now
		}
		// Pop-push fusion: the root stays in place as an inert slot
		// for the callback's first heapPush to overwrite, which saves
		// a full pop plus a separate sift-up per event that schedules
		// a successor — the common case for every link stage and timer.
		ev.idx = -1
		c.fired = true
		fn := ev.fn
		c.now = at
		c.processed++
		// Recycle before invoking: fn may schedule new events and is
		// allowed to reuse this very slot.
		c.release(ev)
		fn()
		c.dropFired()
	}
	if horizon != MaxTime && c.now < horizon {
		c.now = horizon
	}
	return c.now
}

// Step executes exactly one pending event and reports whether one was
// executed. It is primarily a testing aid.
func (c *Clock) Step() bool {
	if c.running {
		panic("sim: Step called while running")
	}
	if len(c.queue) == 0 {
		return false
	}
	next := c.queue[0]
	c.popRoot()
	next.ev.idx = -1
	fn := next.ev.fn
	c.now = next.at
	c.processed++
	c.release(next.ev)
	fn()
	return true
}

// --- inlined 4-ary min-heap ------------------------------------------
//
// Children of node i sit at 4i+1..4i+4; the parent of node i at
// (i-1)/4. Compared to container/heap this removes the interface
// dispatch per comparison and halves the tree depth.

func (c *Clock) heapPush(ev *event) {
	slot := heapSlot{at: ev.at, origin: ev.origin, seq: ev.seq, ev: ev}
	if c.fired {
		// The fired root is dead: overwriting it and sifting down pops
		// it and pushes ev in one pass, whatever ev's key.
		c.fired = false
		c.queue[0] = slot
		c.heapDown(0)
		return
	}
	ev.idx = int32(len(c.queue))
	c.queue = append(c.queue, slot)
	c.heapUp(int(ev.idx))
}

// dropFired removes the fired root if the callback left it in place.
func (c *Clock) dropFired() {
	if c.fired {
		c.fired = false
		c.popRoot()
	}
}

// endRun ends a RunUntil; a panicking callback leaves its fired root
// behind.
func (c *Clock) endRun() {
	c.dropFired()
	c.running = false
}

// popRoot removes queue[0] without touching its event.
func (c *Clock) popRoot() {
	n := len(c.queue) - 1
	last := c.queue[n]
	c.queue[n] = heapSlot{}
	c.queue = c.queue[:n]
	if n > 0 {
		c.queue[0] = last
		c.heapDown(0)
	}
}

// heapRemove deletes an arbitrary queued event.
func (c *Clock) heapRemove(ev *event) {
	i := int(ev.idx)
	n := len(c.queue) - 1
	last := c.queue[n]
	c.queue[n] = heapSlot{}
	c.queue = c.queue[:n]
	if i != n {
		c.queue[i] = last
		last.ev.idx = int32(i)
		c.heapDown(i)
		c.heapUp(int(last.ev.idx))
	}
	ev.idx = -1
}

// heapFix restores the heap invariant after ev's (at, seq) changed,
// refreshing the inlined sort key first.
func (c *Clock) heapFix(ev *event) {
	i := int(ev.idx)
	c.queue[i].at = ev.at
	c.queue[i].origin = ev.origin
	c.queue[i].seq = ev.seq
	c.heapDown(i)
	c.heapUp(int(ev.idx))
}

func (c *Clock) heapUp(i int) {
	slot := c.queue[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !slotLess(slot, c.queue[p]) {
			break
		}
		c.queue[i] = c.queue[p]
		c.queue[i].ev.idx = int32(i)
		i = p
	}
	c.queue[i] = slot
	slot.ev.idx = int32(i)
}

func (c *Clock) heapDown(i int) {
	n := len(c.queue)
	slot := c.queue[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if slotLess(c.queue[j], c.queue[min]) {
				min = j
			}
		}
		if !slotLess(c.queue[min], slot) {
			break
		}
		c.queue[i] = c.queue[min]
		c.queue[i].ev.idx = int32(i)
		i = min
	}
	c.queue[i] = slot
	slot.ev.idx = int32(i)
}
