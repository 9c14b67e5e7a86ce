package netem

import (
	"fmt"
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// TestLinkKeepsOneDeliveryOnTheClock sends a burst far longer than the
// link's bandwidth-delay product allows in flight at once and checks the
// structural promise of the in-flight FIFO: however many frames
// propagate, the clock holds at most one serialization end and one
// delivery (the FIFO head). Delivery instants and order must still equal
// the analytic reference: a train's members (or a lone frame) leave the
// serializer back to back at the link rate and arrive Delay later — plus,
// with jitter, one extra draw per delivery, clamped monotone.
func TestLinkKeepsOneDeliveryOnTheClock(t *testing.T) {
	const (
		frames = 1000
		size   = units.DataSize(512)
	)
	rate := units.Mbps(100)
	tx := rate.TransmissionTime(size)
	delay := 1200 * tx // ≥ 1,000 serialization times

	jitter := func() *UniformJitter {
		return &UniformJitter{
			Amplitude:  50 * tx,
			SpikeProb:  0.05,
			SpikeDelay: 400 * tx,
			RNG:        sim.NewRNG(7, "inflight-jitter"),
		}
	}
	for _, tc := range []struct {
		train  int
		jitter bool
	}{{1, false}, {8, false}, {1, true}, {8, true}} {
		t.Run(fmt.Sprintf("train%d/jitter=%v", tc.train, tc.jitter), func(t *testing.T) {
			clock, link, dst := newTestLink(t, LinkConfig{Rate: rate, Delay: delay, TrainSize: tc.train})
			if tc.jitter {
				link.SetJitter(jitter())
			}
			for i := 0; i < frames; i++ {
				link.Send(&Frame{Src: "a", Dst: "b", Size: size, Payload: i})
			}

			// Step through the run in slices shorter than one
			// serialization time; the clock must never hold more than
			// the serializer's completion and the FIFO head's delivery,
			// even with nearly the whole burst in flight.
			maxInflight := 0
			for clock.Pending() > 0 {
				clock.RunUntil(clock.Now().Add(tx / 3))
				if p := clock.Pending(); p > 2 {
					t.Fatalf("at %v: %d events pending, want ≤ 2", clock.Now(), p)
				}
				inflight := frames - len(dst.frames) - link.QueueLen()
				if link.Busy() {
					inflight--
				}
				if inflight > maxInflight {
					maxInflight = inflight
				}
			}
			if maxInflight < frames*9/10 {
				t.Fatalf("at most %d frames in flight; the test needs nearly all %d", maxInflight, frames)
			}

			// Reference: with every frame queued at t = 0, the k-th
			// batch of train frames (one frame untrained) leaves the
			// serializer at (k+1)·train·tx and arrives Delay later.
			var ref *UniformJitter
			if tc.jitter {
				ref = jitter()
			}
			if len(dst.frames) != frames {
				t.Fatalf("delivered %d of %d frames", len(dst.frames), frames)
			}
			var last sim.Time
			for i, f := range dst.frames {
				if f.Payload.(int) != i {
					t.Fatalf("delivery %d carries frame %v: FIFO order broken", i, f.Payload)
				}
				if i%tc.train == 0 {
					batch := i/tc.train + 1
					at := sim.Time(0).Add(time.Duration(batch*tc.train)*tx + delay)
					if ref != nil {
						at = at.Add(ref.Extra())
					}
					if at.Before(last) {
						at = last
					}
					last = at
				}
				if dst.times[i] != last {
					t.Fatalf("frame %d delivered at %v, reference %v", i, dst.times[i], last)
				}
				if f.deliverAt != 0 || f.deliverKey != (sim.Stamp{}) {
					t.Fatalf("frame %d delivered with its in-flight stamp still set", i)
				}
			}
			if s := link.Stats(); s.CellsDelivered != frames || s.TrainsDelivered != uint64(frames/tc.train) {
				t.Fatalf("stats: %d cells in %d deliveries", s.CellsDelivered, s.TrainsDelivered)
			}
		})
	}
}
