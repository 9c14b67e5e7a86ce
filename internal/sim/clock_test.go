package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtEpoch(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", c.Pending())
	}
}

func TestScheduleAndRunOrdering(t *testing.T) {
	c := NewClock()
	var order []int
	c.After(30*time.Millisecond, func() { order = append(order, 3) })
	c.After(10*time.Millisecond, func() { order = append(order, 1) })
	c.After(20*time.Millisecond, func() { order = append(order, 2) })
	end := c.Run()
	if want := Time(30 * time.Millisecond); end != want {
		t.Errorf("Run() returned %v, want %v", end, want)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	c := NewClock()
	var order []int
	at := Time(5 * time.Millisecond)
	for i := 0; i < 10; i++ {
		i := i
		c.At(at, func() { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	c := NewClock()
	var times []Time
	c.After(time.Millisecond, func() {
		times = append(times, c.Now())
		c.After(time.Millisecond, func() {
			times = append(times, c.Now())
		})
	})
	c.Run()
	if len(times) != 2 {
		t.Fatalf("got %d events, want 2", len(times))
	}
	if times[0] != Time(time.Millisecond) || times[1] != Time(2*time.Millisecond) {
		t.Errorf("times = %v, want [1ms 2ms]", times)
	}
}

func TestScheduleAtCurrentInstantDuringRun(t *testing.T) {
	c := NewClock()
	ran := false
	c.After(time.Millisecond, func() {
		c.After(0, func() { ran = true })
	})
	c.Run()
	if !ran {
		t.Error("zero-delay event scheduled during run did not execute")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	c := NewClock()
	var ran []int
	c.After(10*time.Millisecond, func() { ran = append(ran, 1) })
	c.After(20*time.Millisecond, func() { ran = append(ran, 2) })
	c.After(30*time.Millisecond, func() { ran = append(ran, 3) })

	end := c.RunUntil(Time(25 * time.Millisecond))
	if want := Time(25 * time.Millisecond); end != want {
		t.Errorf("RunUntil returned %v, want %v (clock parked at horizon)", end, want)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %v, want first two events only", ran)
	}
	// Continue to the end.
	c.Run()
	if len(ran) != 3 || ran[2] != 3 {
		t.Errorf("after resume ran = %v, want [1 2 3]", ran)
	}
}

func TestRunUntilAdvancesClockToHorizonWithEmptyQueue(t *testing.T) {
	c := NewClock()
	c.RunUntil(Time(time.Second))
	if c.Now() != Time(time.Second) {
		t.Errorf("Now() = %v, want 1s", c.Now())
	}
}

func TestCancel(t *testing.T) {
	c := NewClock()
	ran := false
	h := c.After(time.Millisecond, func() { ran = true })
	if !h.Active() {
		t.Fatal("handle should be active after scheduling")
	}
	if !h.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if h.Cancel() {
		t.Error("second Cancel should report false")
	}
	if h.Active() {
		t.Error("handle should be inactive after cancel")
	}
	c.Run()
	if ran {
		t.Error("cancelled event executed")
	}
}

func TestCancelDuringRun(t *testing.T) {
	c := NewClock()
	var h Handle
	ran := false
	c.After(time.Millisecond, func() { h.Cancel() })
	h = c.After(2*time.Millisecond, func() { ran = true })
	c.Run()
	if ran {
		t.Error("event cancelled mid-run still executed")
	}
}

func TestStop(t *testing.T) {
	c := NewClock()
	var count int
	for i := 1; i <= 5; i++ {
		c.After(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 2 {
				c.Stop()
			}
		})
	}
	c.Run()
	if count != 2 {
		t.Errorf("executed %d events after Stop, want 2", count)
	}
	if c.Pending() == 0 {
		t.Error("queue should retain unexecuted events after Stop")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := NewClock()
	c.After(time.Millisecond, func() {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Error("At() in the past did not panic")
		}
	}()
	c.At(0, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Error("After() with negative delay did not panic")
		}
	}()
	c.After(-time.Millisecond, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Error("At() with nil func did not panic")
		}
	}()
	c.At(0, nil)
}

func TestStep(t *testing.T) {
	c := NewClock()
	var ran []int
	c.After(time.Millisecond, func() { ran = append(ran, 1) })
	c.After(2*time.Millisecond, func() { ran = append(ran, 2) })
	if !c.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if len(ran) != 1 || c.Now() != Time(time.Millisecond) {
		t.Fatalf("after one step: ran=%v now=%v", ran, c.Now())
	}
	if !c.Step() {
		t.Fatal("second Step returned false")
	}
	if c.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestProcessedCount(t *testing.T) {
	c := NewClock()
	for i := 0; i < 7; i++ {
		c.After(time.Duration(i)*time.Millisecond, func() {})
	}
	h := c.After(time.Hour, func() {})
	h.Cancel()
	c.Run()
	if c.Processed() != 7 {
		t.Errorf("Processed() = %d, want 7 (cancelled events don't count)", c.Processed())
	}
}

// Property: for any set of delays, events execute in nondecreasing time
// order and the clock never goes backwards.
func TestPropertyMonotoneExecution(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) > 200 {
			delaysMs = delaysMs[:200]
		}
		c := NewClock()
		var seen []Time
		for _, d := range delaysMs {
			c.After(time.Duration(d)*time.Millisecond, func() {
				seen = append(seen, c.Now())
			})
		}
		c.Run()
		if len(seen) != len(delaysMs) {
			return false
		}
		if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
			return false
		}
		// The executed times must be a permutation of the scheduled ones.
		want := make([]Time, len(delaysMs))
		for i, d := range delaysMs {
			want[i] = Time(time.Duration(d) * time.Millisecond)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if seen[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving scheduling and cancellation never executes a
// cancelled event and always executes every non-cancelled one.
func TestPropertyCancellationExactness(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewClock()
		type rec struct {
			h         Handle
			cancelled bool
			ran       bool
		}
		recs := make([]*rec, 0, n)
		for i := 0; i < int(n); i++ {
			r := &rec{}
			r.h = c.After(time.Duration(rng.Intn(50))*time.Millisecond, func() { r.ran = true })
			recs = append(recs, r)
		}
		for _, r := range recs {
			if rng.Intn(3) == 0 {
				r.h.Cancel()
				r.cancelled = true
			}
		}
		c.Run()
		for _, r := range recs {
			if r.cancelled == r.ran {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(1500 * time.Millisecond)
	b := Time(500 * time.Millisecond)
	if got := a.Sub(b); got != time.Second {
		t.Errorf("Sub = %v, want 1s", got)
	}
	if got := b.Add(time.Second); got != a {
		t.Errorf("Add = %v, want %v", got, a)
	}
	if !b.Before(a) || a.Before(b) {
		t.Error("Before comparisons wrong")
	}
	if !a.After(b) || b.After(a) {
		t.Error("After comparisons wrong")
	}
	if got := a.Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
	if got := a.Milliseconds(); got != 1500 {
		t.Errorf("Milliseconds = %v, want 1500", got)
	}
	if a.String() != "1.5s" {
		t.Errorf("String = %q", a.String())
	}
}

func TestPendingCountsExactly(t *testing.T) {
	c := NewClock()
	handles := make([]Handle, 10)
	for i := range handles {
		handles[i] = c.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if got := c.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	// Cancelled events leave the queue immediately — a long run that
	// cancels many RTO timers must not inflate the pending count.
	for i := 0; i < 6; i++ {
		handles[i].Cancel()
	}
	if got := c.Pending(); got != 4 {
		t.Fatalf("Pending after 6 cancels = %d, want 4", got)
	}
	c.Run()
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
	if got := c.Processed(); got != 4 {
		t.Fatalf("Processed = %d, want 4", got)
	}
}

func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	c := NewClock()
	ran := 0
	h := c.After(time.Millisecond, func() { ran++ })
	c.Run()
	// The fired event has been recycled; a second schedule reuses its
	// slot. The stale handle must be inert against the new occupant.
	h2 := c.After(time.Millisecond, func() { ran += 10 })
	if h.Cancel() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if h.Active() {
		t.Fatal("stale handle reports active")
	}
	if !h2.Active() {
		t.Fatal("fresh handle reports inactive")
	}
	c.Run()
	if ran != 11 {
		t.Fatalf("ran = %d, want 11 (both events fired)", ran)
	}
}

func TestCancelledThenRescheduledOrdering(t *testing.T) {
	// Heavy cancel/reschedule churn at one instant must preserve FIFO of
	// the surviving events — the free list must not perturb (at, seq).
	c := NewClock()
	var order []int
	at := Time(time.Millisecond)
	for i := 0; i < 100; i++ {
		i := i
		h := c.At(at, func() { order = append(order, i) })
		if i%2 == 1 {
			h.Cancel()
		}
	}
	c.Run()
	if len(order) != 50 {
		t.Fatalf("ran %d events, want 50", len(order))
	}
	for j := 1; j < len(order); j++ {
		if order[j] <= order[j-1] {
			t.Fatalf("FIFO violated: %d after %d", order[j], order[j-1])
		}
	}
}

func TestStampOrdersLikeAt(t *testing.T) {
	// A key reserved with Stamp and scheduled later fires exactly where
	// At, called at the reservation, would have put it: after events
	// scheduled before the reservation, before those scheduled after,
	// even when they share its instant.
	c := NewClock()
	var order []string
	at := Time(5)
	c.At(at, func() { order = append(order, "before") })
	s := c.Stamp()
	c.At(at, func() { order = append(order, "after") })
	c.At(2, func() {
		c.AtStamp(at, s, func() { order = append(order, "stamped") })
		// A same-instant event scheduled now sorts after everything
		// scheduled at t = 0.
		c.At(at, func() { order = append(order, "late") })
	})
	c.Run()
	want := []string{"before", "stamped", "after", "late"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if c.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", c.Processed())
	}
}

func TestAtStampPanics(t *testing.T) {
	for name, call := range map[string]func(c *Clock, s Stamp){
		"past":   func(c *Clock, s Stamp) { c.AtStamp(c.Now()-1, s, func() {}) },
		"origin": func(c *Clock, s Stamp) { c.AtStamp(c.Now(), Stamp{origin: c.Now() + 1}, func() {}) },
		"nil":    func(c *Clock, s Stamp) { c.AtStamp(c.Now(), s, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			c := NewClock()
			c.RunUntil(10)
			s := c.Stamp()
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			call(c, s)
		})
	}
}

func TestStepWhileRunningPanics(t *testing.T) {
	c := NewClock()
	c.At(1, func() { c.Step() })
	defer func() {
		if recover() == nil {
			t.Error("Step inside a callback did not panic")
		}
	}()
	c.Run()
}

func TestPendingAndNextInsideCallback(t *testing.T) {
	// While a callback runs, its own event is no longer pending — before
	// and after it schedules a successor into the fired root's slot.
	c := NewClock()
	c.At(3, func() {})
	c.At(7, func() {})
	c.At(1, func() {
		if p := c.Pending(); p != 3 {
			t.Errorf("Pending before scheduling = %d, want 3", p)
		}
		if next, ok := c.Next(); !ok || next != 3 {
			t.Errorf("Next before scheduling = %v %v, want 3", next, ok)
		}
		c.At(2, func() {})
		if p := c.Pending(); p != 4 {
			t.Errorf("Pending after scheduling = %d, want 4", p)
		}
		if next, ok := c.Next(); !ok || next != 2 {
			t.Errorf("Next after scheduling = %v %v, want 2", next, ok)
		}
	})
	c.At(9, func() {
		if next, ok := c.Next(); ok {
			t.Errorf("Next in the last callback = %v, want none", next)
		}
	})
	c.Run()
	if c.Processed() != 5 || c.Pending() != 0 {
		t.Fatalf("Processed = %d, Pending = %d", c.Processed(), c.Pending())
	}
}

func TestFusedRootUnderStop(t *testing.T) {
	// Stop from a callback that schedules nothing, then from one that
	// schedules: either way the fired root must leave the heap and the
	// rest must resume in order.
	c := NewClock()
	var order []int
	for i := 1; i <= 6; i++ {
		i := i
		c.At(Time(i), func() {
			order = append(order, i)
			switch i {
			case 2:
				c.Stop()
			case 4:
				c.At(Time(5), func() { order = append(order, 50) })
				c.Stop()
			}
		})
	}
	c.Run()
	if c.Pending() != 4 || c.Now() != 2 {
		t.Fatalf("after first Stop: Pending = %d, Now = %v", c.Pending(), c.Now())
	}
	c.Run()
	if c.Pending() != 3 || c.Now() != 4 {
		t.Fatalf("after second Stop: Pending = %d, Now = %v", c.Pending(), c.Now())
	}
	c.Run()
	if want := "[1 2 3 4 5 50 6]"; fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestFusedRootAtHorizon(t *testing.T) {
	// RunUntil ends between a callback that scheduled nothing and the
	// next event: the horizon stop must see the true next event, not
	// the dropped root.
	c := NewClock()
	fired := 0
	c.At(1, func() { fired++ })
	c.At(5, func() { fired++ })
	if end := c.RunUntil(3); end != 3 || fired != 1 || c.Pending() != 1 {
		t.Fatalf("RunUntil(3) = %v, fired %d, Pending %d", end, fired, c.Pending())
	}
	if next, ok := c.Next(); !ok || next != 5 {
		t.Fatalf("Next = %v %v, want 5", next, ok)
	}
	// A callback whose successor lies beyond the horizon.
	c.At(4, func() { fired++; c.At(8, func() { fired++ }) })
	if end := c.RunUntil(7); end != 7 || fired != 3 || c.Pending() != 1 {
		t.Fatalf("RunUntil(7) = %v, fired %d, Pending %d", end, fired, c.Pending())
	}
	c.Run()
	if fired != 4 || c.Processed() != 4 {
		t.Fatalf("fired %d, Processed %d", fired, c.Processed())
	}
}

func TestFusedRootCallbackCancelsEverything(t *testing.T) {
	// A callback that cancels every other pending event leaves the
	// fired root alone in the heap; the event it then schedules takes
	// that slot, and a second wave of cancels must not disturb it.
	c := NewClock()
	handles := make([]Handle, 40)
	fired := 0
	for i := range handles {
		handles[i] = c.At(Time(10+i), func() { fired++ })
	}
	c.At(1, func() {
		for i, h := range handles {
			if i%2 == 0 && !h.Cancel() {
				t.Errorf("cancel %d failed", i)
			}
		}
		if p := c.Pending(); p != 20 {
			t.Errorf("Pending after half = %d, want 20", p)
		}
		for _, h := range handles {
			h.Cancel()
		}
		if p := c.Pending(); p != 0 {
			t.Errorf("Pending after all = %d, want 0", p)
		}
		c.At(2, func() { fired += 100 })
		if p := c.Pending(); p != 1 {
			t.Errorf("Pending after rescheduling = %d, want 1", p)
		}
	})
	c.Run()
	if fired != 100 || c.Processed() != 2 || c.Pending() != 0 {
		t.Fatalf("fired %d, Processed %d, Pending %d", fired, c.Processed(), c.Pending())
	}
}

func TestFusedRootSurvivesPanic(t *testing.T) {
	// A panicking callback leaves its fired root behind; RunUntil's
	// defer must drop it so the clock stays usable.
	c := NewClock()
	ran := false
	c.At(1, func() { panic("boom") })
	c.At(2, func() { ran = true })
	func() {
		defer func() { _ = recover() }()
		c.Run()
	}()
	if c.Pending() != 1 {
		t.Fatalf("Pending after panic = %d, want 1", c.Pending())
	}
	c.Run()
	if !ran || c.Pending() != 0 {
		t.Fatalf("ran = %v, Pending = %d", ran, c.Pending())
	}
}
