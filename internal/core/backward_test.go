package core

import (
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

func TestBackwardTransferDeliversAllBytes(t *testing.T) {
	// The download direction: the sink (destination server) originates
	// plaintext cells; the exit seals and encrypts, every relay adds a
	// layer, the client unwraps all of them.
	_, c := threeHopNet(t, 1, units.Mbps(8), units.Mbps(100), TransportOptions{})
	n := c.srcNet

	size := 200 * units.Kilobyte
	var got time.Duration
	c.TransferBackward(size, func(ttlb time.Duration) { got = ttlb })
	n.RunUntil(30 * sim.Second)

	if !c.Done() {
		t.Fatalf("download incomplete: client received %v of %v", c.Source().Downloaded(), size)
	}
	if c.Source().Downloaded() != size {
		t.Fatalf("downloaded %v, want %v", c.Source().Downloaded(), size)
	}
	if c.Source().DownloadBadCells() != 0 {
		t.Fatalf("%d cells failed layered decryption at the client", c.Source().DownloadBadCells())
	}
	ttlb, ok := c.TTLB()
	if !ok || ttlb != got || ttlb <= 0 {
		t.Fatalf("TTLB = %v, %v", ttlb, ok)
	}
}

func TestBackwardCircuitStartConverges(t *testing.T) {
	// The download direction runs the same startup scheme; the server's
	// sender must converge like the client's does in the upload case.
	_, c := threeHopNet(t, 1, units.Mbps(8), units.Mbps(100), TransportOptions{})
	n := c.srcNet
	c.TransferBackward(2*units.Megabyte, nil)
	n.RunUntil(3 * sim.Second)

	// The backward path's bottleneck is symmetric (Symmetric access),
	// so the same model optimum applies.
	opt := c.ModelPath().OptimalSourceWindowCells()
	w := c.Sink().BackwardSender().Cwnd()
	if w < 0.4*opt || w > 3*opt {
		t.Fatalf("server-side window %v not near optimal %v", w, opt)
	}
}

func TestBidirectionalTransfersShareCircuit(t *testing.T) {
	// Simultaneous upload and download on one circuit: both directions
	// are independent transports and must both complete.
	_, c := threeHopNet(t, 1, units.Mbps(8), units.Mbps(100), TransportOptions{})
	n := c.srcNet

	up := 100 * units.Kilobyte
	down := 150 * units.Kilobyte
	var upDone, downDone bool
	c.Transfer(up, func(time.Duration) { upDone = true })
	c.TransferBackward(down, func(time.Duration) { downDone = true })
	n.RunUntil(60 * sim.Second)

	if !upDone || c.Sink().Received() != up {
		t.Fatalf("upload incomplete: %v of %v (done=%v)", c.Sink().Received(), up, upDone)
	}
	if !downDone || c.Source().Downloaded() != down {
		t.Fatalf("download incomplete: %v of %v (done=%v)", c.Source().Downloaded(), down, downDone)
	}
	if c.Sink().BadCells() != 0 || c.Source().DownloadBadCells() != 0 {
		t.Fatal("crypto corruption under bidirectional traffic")
	}
}

func TestBackwardTransferSurvivesLoss(t *testing.T) {
	n, c := lossyNet(t, 0.02, 0, TransportOptions{})
	size := 100 * units.Kilobyte
	c.TransferBackward(size, nil)
	n.RunUntil(600 * sim.Second)
	if !c.Done() || c.Source().Downloaded() != size {
		t.Fatalf("lossy download incomplete: %v of %v", c.Source().Downloaded(), size)
	}
	if c.Source().DownloadBadCells() != 0 {
		t.Fatalf("%d bad cells after loss recovery", c.Source().DownloadBadCells())
	}
}

func TestBackwardTransferPanicsOnZero(t *testing.T) {
	_, c := threeHopNet(t, 0, units.Mbps(8), units.Mbps(100), TransportOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.TransferBackward(0, nil)
}

func TestBackwardDeterminism(t *testing.T) {
	run := func() time.Duration {
		_, c := threeHopNet(t, 1, units.Mbps(8), units.Mbps(100), TransportOptions{})
		c.TransferBackward(150*units.Kilobyte, nil)
		c.srcNet.RunUntil(60 * sim.Second)
		ttlb, ok := c.TTLB()
		if !ok {
			t.Fatal("incomplete")
		}
		return ttlb
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("backward runs diverged: %v vs %v", a, b)
	}
}
