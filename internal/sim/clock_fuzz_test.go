package sim

import (
	"fmt"
	"testing"
	"time"
)

// fuzzEngine is the surface FuzzClockOrder drives: the real Clock (via
// clockEngine) and refClock, a deliberately naive reference that keeps
// every pending event in a plain slice and fires the minimum by
// (at, origin, seq) each step.
type fuzzEngine interface {
	now() Time
	at(t Time, fn func()) int // returns a handle index
	stamp() Stamp
	atStamp(t Time, s Stamp, fn func())
	cancel(h int) bool
	handleCount() int
	arm(timer int, d time.Duration)
	stopTimer(timer int)
	pending() int
	next() (Time, bool)
	processed() uint64
	runUntil(h Time) Time
	halt()
}

// clockEngine adapts *Clock to fuzzEngine.
type clockEngine struct {
	c       *Clock
	handles []Handle
	timers  []*Timer
}

func newClockEngine(timerFns []func()) *clockEngine {
	e := &clockEngine{c: NewClock()}
	for _, fn := range timerFns {
		e.timers = append(e.timers, NewTimer(e.c, fn))
	}
	return e
}

func (e *clockEngine) now() Time { return e.c.Now() }
func (e *clockEngine) at(t Time, fn func()) int {
	e.handles = append(e.handles, e.c.At(t, fn))
	return len(e.handles) - 1
}
func (e *clockEngine) stamp() Stamp                       { return e.c.Stamp() }
func (e *clockEngine) atStamp(t Time, s Stamp, fn func()) { e.c.AtStamp(t, s, fn) }
func (e *clockEngine) cancel(h int) bool                  { return e.handles[h].Cancel() }
func (e *clockEngine) handleCount() int                   { return len(e.handles) }
func (e *clockEngine) arm(timer int, d time.Duration)     { e.timers[timer].Arm(d) }
func (e *clockEngine) stopTimer(timer int)                { e.timers[timer].Stop() }
func (e *clockEngine) pending() int                       { return e.c.Pending() }
func (e *clockEngine) next() (Time, bool)                 { return e.c.Next() }
func (e *clockEngine) processed() uint64                  { return e.c.Processed() }
func (e *clockEngine) runUntil(h Time) Time               { return e.c.RunUntil(h) }
func (e *clockEngine) halt()                              { e.c.Stop() }

type refEvent struct {
	at, origin Time
	seq        uint64
	fn         func()
	live       bool
}

func (a *refEvent) less(b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

// refClock is the reference scheduler: the same key assignment as
// Clock (At and Stamp consume a sequence number, a timer rearm takes a
// fresh one, AtStamp none), with a linear scan for the minimum.
type refClock struct {
	t       Time
	seq     uint64
	evs     []*refEvent
	handles []*refEvent
	timers  []*refEvent
	timerFn []func()
	fired   uint64
	stopped bool
}

func newRefClock(timerFns []func()) *refClock {
	return &refClock{timers: make([]*refEvent, len(timerFns)), timerFn: timerFns}
}

func (r *refClock) push(t, origin Time, seq uint64, fn func()) *refEvent {
	ev := &refEvent{at: t, origin: origin, seq: seq, fn: fn, live: true}
	r.evs = append(r.evs, ev)
	return ev
}

func (r *refClock) now() Time { return r.t }
func (r *refClock) at(t Time, fn func()) int {
	r.handles = append(r.handles, r.push(t, r.t, r.seq, fn))
	r.seq++
	return len(r.handles) - 1
}
func (r *refClock) stamp() Stamp {
	s := Stamp{origin: r.t, seq: r.seq}
	r.seq++
	return s
}
func (r *refClock) atStamp(t Time, s Stamp, fn func()) { r.push(t, s.origin, s.seq, fn) }
func (r *refClock) cancel(h int) bool {
	ev := r.handles[h]
	if !ev.live {
		return false
	}
	ev.live = false
	return true
}
func (r *refClock) handleCount() int { return len(r.handles) }
func (r *refClock) arm(timer int, d time.Duration) {
	t := r.t.Add(d)
	if ev := r.timers[timer]; ev != nil && ev.live {
		ev.at, ev.origin, ev.seq = t, r.t, r.seq
		r.seq++
		return
	}
	r.timers[timer] = r.push(t, r.t, r.seq, func() {
		r.timers[timer] = nil
		r.timerFn[timer]()
	})
	r.seq++
}
func (r *refClock) stopTimer(timer int) {
	if ev := r.timers[timer]; ev != nil {
		ev.live = false
	}
}
func (r *refClock) min() *refEvent {
	var best *refEvent
	for _, ev := range r.evs {
		if ev.live && (best == nil || ev.less(best)) {
			best = ev
		}
	}
	return best
}
func (r *refClock) pending() int {
	n := 0
	for _, ev := range r.evs {
		if ev.live {
			n++
		}
	}
	return n
}
func (r *refClock) next() (Time, bool) {
	if ev := r.min(); ev != nil {
		return ev.at, true
	}
	return 0, false
}
func (r *refClock) processed() uint64 { return r.fired }
func (r *refClock) runUntil(h Time) Time {
	r.stopped = false
	for !r.stopped {
		ev := r.min()
		if ev == nil {
			break
		}
		if ev.at > h {
			r.t = h
			return r.t
		}
		ev.live = false
		r.t = ev.at
		r.fired++
		ev.fn()
		// Drop dead events so the scan stays short.
		live := r.evs[:0]
		for _, e := range r.evs {
			if e.live {
				live = append(live, e)
			}
		}
		clear(r.evs[len(live):])
		r.evs = live
	}
	if h != MaxTime && r.t < h {
		r.t = h
	}
	return r.t
}
func (r *refClock) halt() { r.stopped = true }

// fuzzProgram interprets a byte string as a schedule of clock
// operations, run identically against any fuzzEngine. Callbacks read
// their own follow-up operations from the same byte cursor, so two
// engines consume the same bytes exactly as long as they fire events in
// the same order; the log records every firing, sampled Pending/Next
// values and Cancel results for comparison.
type fuzzProgram struct {
	data []byte
	pos  int
	e    fuzzEngine
	log  []string
	ids  int

	// stream models a link's in-flight FIFO: every member reserves its
	// key with Stamp when it enters, instants are nondecreasing, and
	// only the head is scheduled (with AtStamp) at any time.
	stream []streamEntry
	last   Time
	// reserved holds stamps awaiting an arbitrary later AtStamp.
	reserved []streamEntry
}

type streamEntry struct {
	at Time
	s  Stamp
	id int
}

func (p *fuzzProgram) more() bool { return p.pos < len(p.data) }

func (p *fuzzProgram) byte() byte {
	if !p.more() {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return b
}

// delay draws a tiny delay so many events tie on their instant and the
// order falls through to origin and seq.
func (p *fuzzProgram) delay() time.Duration { return time.Duration(p.byte() % 5) }

func (p *fuzzProgram) logf(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}

// event returns a callback that logs its firing and runs up to two
// follow-up operations.
func (p *fuzzProgram) event() func() {
	p.ids++
	id := p.ids
	return func() {
		p.logf("fire %d at %v pending %d", id, p.e.now(), p.e.pending())
		p.nested()
	}
}

func (p *fuzzProgram) nested() {
	for n := p.byte() % 3; n > 0 && p.more(); n-- {
		p.op()
	}
}

func (p *fuzzProgram) fireStream() {
	head := p.stream[0]
	p.stream = p.stream[1:]
	p.logf("stream %d at %v pending %d", head.id, p.e.now(), p.e.pending())
	if len(p.stream) > 0 {
		next := p.stream[0]
		p.e.atStamp(next.at, next.s, p.fireStream)
	}
	p.nested()
}

func (p *fuzzProgram) op() {
	if !p.more() {
		return
	}
	now := p.e.now()
	switch p.byte() % 10 {
	case 0, 1:
		p.e.at(now.Add(p.delay()), p.event())
	case 2:
		p.e.at(now.Add(p.delay()*1000), p.event())
	case 3, 4:
		at := now.Add(p.delay())
		if at < p.last {
			at = p.last
		}
		p.last = at
		p.ids++
		p.stream = append(p.stream, streamEntry{at: at, s: p.e.stamp(), id: p.ids})
		if len(p.stream) == 1 {
			p.e.atStamp(at, p.stream[0].s, p.fireStream)
		}
	case 5:
		if b := p.byte(); len(p.reserved) == 0 || b%2 == 0 {
			p.reserved = append(p.reserved, streamEntry{at: now.Add(time.Duration(b % 5)), s: p.e.stamp()})
		} else {
			r := p.reserved[0]
			p.reserved = p.reserved[1:]
			if r.at < now {
				r.at = now
			}
			p.e.atStamp(r.at, r.s, p.event())
		}
	case 6:
		if n := p.e.handleCount(); n > 0 {
			h := int(p.byte()) % n
			p.logf("cancel %d %v", h, p.e.cancel(h))
		}
	case 7:
		p.e.arm(int(p.byte()%2), p.delay())
	case 8:
		p.e.stopTimer(int(p.byte() % 2))
	case 9:
		next, ok := p.e.next()
		p.logf("sample pending %d next %v %v", p.e.pending(), next, ok)
		if p.byte()%4 == 0 {
			p.e.halt()
		}
	}
}

// runFuzzProgram runs data against e and returns the log.
func runFuzzProgram(data []byte, build func(timerFns []func()) fuzzEngine) []string {
	p := &fuzzProgram{data: data}
	timerFns := []func(){
		func() { p.logf("timer 0 at %v pending %d", p.e.now(), p.e.pending()); p.nested() },
		func() { p.logf("timer 1 at %v pending %d", p.e.now(), p.e.pending()); p.nested() },
	}
	p.e = build(timerFns)
	for n := p.byte() % 16; n > 0 && p.more(); n-- {
		p.op()
	}
	// Run in short horizons (exercising RunUntil's stop-at-horizon path
	// and Stop), then drain.
	for i := 0; p.e.pending() > 0 && p.more() && i < 64; i++ {
		h := p.e.now().Add(time.Duration(p.byte() % 8))
		p.logf("ran to %v", p.e.runUntil(h))
		for p.e.pending() > 0 && p.more() && p.byte()%3 == 0 {
			p.op()
		}
	}
	for i := 0; p.e.pending() > 0 && i < 64; i++ {
		p.logf("drained to %v", p.e.runUntil(MaxTime))
	}
	p.logf("processed %d pending %d", p.e.processed(), p.e.pending())
	return p.log
}

// FuzzClockOrder pins the clock's firing order — heap, stamps, pop-push
// fusion, cancellation, timer rearm, horizons and Stop — to a reference
// that sorts a plain slice by (at, origin, seq).
func FuzzClockOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{15, 0, 1, 3, 0, 3, 1, 4, 2, 5, 0, 5, 1, 7, 0, 1, 9, 1, 3, 4, 1, 1, 2, 2, 2, 2})
	f.Add([]byte{8, 3, 0, 3, 0, 3, 1, 3, 4, 4, 2, 6, 0, 6, 1, 2, 2, 1, 1, 0, 0, 0, 7, 1, 1, 2, 3})
	f.Add([]byte{12, 7, 0, 2, 7, 1, 3, 0, 1, 1, 6, 0, 6, 1, 8, 0, 9, 0, 9, 1, 5, 2, 5, 3, 5, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		got := runFuzzProgram(data, func(fns []func()) fuzzEngine { return newClockEngine(fns) })
		want := runFuzzProgram(data, func(fns []func()) fuzzEngine { return newRefClock(fns) })
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("step %d: clock %q, reference %q", i, g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("clock logged %d steps, reference %d", len(got), len(want))
		}
	})
}
