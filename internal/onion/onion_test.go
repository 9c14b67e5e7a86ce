package onion

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"circuitstart/internal/cell"
)

func mustIdentity(t *testing.T) *Identity {
	t.Helper()
	id, err := NewIdentity(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestKDFDeterministicAndSized(t *testing.T) {
	a := kdf([]byte("secret"), []byte("ctx"), 100)
	b := kdf([]byte("secret"), []byte("ctx"), 100)
	if !bytes.Equal(a, b) {
		t.Error("kdf not deterministic")
	}
	if len(a) != 100 {
		t.Errorf("kdf returned %d bytes, want 100", len(a))
	}
	c := kdf([]byte("secret"), []byte("other"), 100)
	if bytes.Equal(a, c) {
		t.Error("kdf ignores context")
	}
	if got := kdf([]byte("s"), nil, 1); len(got) != 1 {
		t.Errorf("kdf(1) returned %d bytes", len(got))
	}
}

func TestHandshakeDerivesSharedKeys(t *testing.T) {
	id := mustIdentity(t)
	clientKeys, create, err := ClientHandshake(rand.Reader, id.Public())
	if err != nil {
		t.Fatal(err)
	}
	relayKeys, err := id.RelayHandshake(create)
	if err != nil {
		t.Fatal(err)
	}
	// Client encrypts forward; relay must decrypt to the original.
	c := &cell.Cell{Circ: 1}
	c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData}, []byte("payload"))
	orig := c.Payload
	clientKeys.EncryptForward(c)
	if c.Payload == orig {
		t.Fatal("encryption was a no-op")
	}
	relayKeys.DecryptForward(c)
	if c.Payload != orig {
		t.Error("relay failed to decrypt client's forward cell")
	}
	// And backward: relay encrypts, client decrypts.
	relayKeys.EncryptBackward(c)
	clientKeys.DecryptBackward(c)
	if c.Payload != orig {
		t.Error("client failed to decrypt relay's backward cell")
	}
}

func TestRelayHandshakeRejectsBadPayload(t *testing.T) {
	id := mustIdentity(t)
	if _, err := id.RelayHandshake([]byte("short")); err != ErrBadHandshake {
		t.Errorf("err = %v, want ErrBadHandshake", err)
	}
	if _, err := id.RelayHandshake(make([]byte, 32)); err == nil {
		// All-zero is a low-order point; X25519 must reject it.
		t.Error("all-zero public key accepted")
	}
}

func TestHandshakeDistinctSessions(t *testing.T) {
	id := mustIdentity(t)
	k1, _, err := ClientHandshake(rand.Reader, id.Public())
	if err != nil {
		t.Fatal(err)
	}
	k2, _, err := ClientHandshake(rand.Reader, id.Public())
	if err != nil {
		t.Fatal(err)
	}
	c1 := &cell.Cell{}
	c2 := &cell.Cell{}
	k1.EncryptForward(c1)
	k2.EncryptForward(c2)
	if c1.Payload == c2.Payload {
		t.Error("two sessions produced identical keystreams")
	}
}

func buildTestCircuit(t *testing.T, nHops int) (*CircuitCrypto, []*HopKeys) {
	t.Helper()
	ids := make([]*Identity, nHops)
	for i := range ids {
		ids[i] = mustIdentity(t)
	}
	cc, relayKeys, err := BuildCircuit(rand.Reader, ids)
	if err != nil {
		t.Fatal(err)
	}
	return cc, relayKeys
}

func TestThreeHopForwardOnion(t *testing.T) {
	cc, relays := buildTestCircuit(t, 3)
	data := []byte("GET / HTTP/1.1")
	c := &cell.Cell{Circ: 9}
	c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, data)
	cc.WrapForward(c)

	// Hop 0 and 1 peel a layer each; the cell must NOT be recognized
	// (recognized != 0 or digest mismatch) until the exit peels.
	for i := 0; i < 2; i++ {
		relays[i].DecryptForward(c)
		hdr, _, err := c.Relay()
		if err == nil && hdr.Recognized == 0 && relays[i].VerifyForward(c) {
			t.Fatalf("cell recognized early at hop %d", i)
		}
	}
	relays[2].DecryptForward(c)
	hdr, got, err := c.Relay()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Recognized != 0 {
		t.Fatalf("exit sees recognized = %d", hdr.Recognized)
	}
	if !relays[2].VerifyForward(c) {
		t.Fatal("exit digest verification failed")
	}
	if !bytes.Equal(got, data) {
		t.Error("exit plaintext mismatch")
	}
	if hdr.StreamID != 1 || hdr.Cmd != cell.RelayData {
		t.Errorf("exit header = %+v", hdr)
	}
}

func TestThreeHopBackwardOnion(t *testing.T) {
	cc, relays := buildTestCircuit(t, 3)
	data := []byte("HTTP/1.1 200 OK")
	c := &cell.Cell{Circ: 9}
	c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, data)
	// Exit seals and encrypts; middle and guard add their layers.
	relays[2].SealBackward(c)
	relays[2].EncryptBackward(c)
	relays[1].EncryptBackward(c)
	relays[0].EncryptBackward(c)

	hop, err := cc.UnwrapBackward(c)
	if err != nil {
		t.Fatal(err)
	}
	if hop != 2 {
		t.Errorf("recognized at hop %d, want 2 (exit)", hop)
	}
	_, got, err := c.Relay()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("client plaintext mismatch")
	}
}

func TestBackwardFromMiddleHop(t *testing.T) {
	// Leaky-pipe: a middle relay originates a backward cell.
	cc, relays := buildTestCircuit(t, 3)
	c := &cell.Cell{Circ: 9}
	c.SetRelay(cell.RelayHeader{Cmd: cell.RelaySendme}, nil)
	relays[1].SealBackward(c)
	relays[1].EncryptBackward(c)
	relays[0].EncryptBackward(c)
	hop, err := cc.UnwrapBackward(c)
	if err != nil {
		t.Fatal(err)
	}
	if hop != 1 {
		t.Errorf("recognized at hop %d, want 1", hop)
	}
}

func TestStreamOfCellsInOrder(t *testing.T) {
	cc, relays := buildTestCircuit(t, 3)
	const n = 50
	for i := 0; i < n; i++ {
		data := []byte{byte(i), byte(i >> 8), 0xCC}
		c := &cell.Cell{Circ: 1}
		c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData}, data)
		cc.WrapForward(c)
		for h := 0; h < 3; h++ {
			relays[h].DecryptForward(c)
		}
		if !relays[2].VerifyForward(c) {
			t.Fatalf("cell %d failed digest", i)
		}
		_, got, err := c.Relay()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("cell %d corrupt: %v", i, err)
		}
	}
}

func TestDigestDetectsTampering(t *testing.T) {
	cc, relays := buildTestCircuit(t, 1)
	c := &cell.Cell{Circ: 1}
	c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData}, []byte("important"))
	cc.WrapForward(c)
	c.Payload[100] ^= 0x01 // in-flight corruption
	relays[0].DecryptForward(c)
	if relays[0].VerifyForward(c) {
		t.Error("tampered cell passed digest verification")
	}
}

func TestVerifyRollbackKeepsStateConsistent(t *testing.T) {
	// A failed verification must not advance the running digest: the
	// next good cell must still verify.
	cc, relays := buildTestCircuit(t, 1)

	good1 := &cell.Cell{Circ: 1}
	good1.SetRelay(cell.RelayHeader{Cmd: cell.RelayData}, []byte("one"))
	cc.WrapForward(good1)

	good2 := &cell.Cell{Circ: 1}
	good2.SetRelay(cell.RelayHeader{Cmd: cell.RelayData}, []byte("two"))
	cc.WrapForward(good2)

	relays[0].DecryptForward(good1)
	tampered := *good1
	tampered.Payload[50] ^= 0xFF
	if relays[0].VerifyForward(&tampered) {
		t.Fatal("tampered cell verified")
	}
	if !relays[0].VerifyForward(good1) {
		t.Fatal("good cell failed after a rejected one (state advanced on failure)")
	}
	relays[0].DecryptForward(good2)
	if !relays[0].VerifyForward(good2) {
		t.Fatal("second good cell failed (state desynced)")
	}
}

func TestUnwrapBackwardUnrecognized(t *testing.T) {
	cc, _ := buildTestCircuit(t, 2)
	c := &cell.Cell{Circ: 1}
	for i := range c.Payload {
		c.Payload[i] = byte(i)
	}
	if _, err := cc.UnwrapBackward(c); err != ErrNotRecognized {
		t.Errorf("err = %v, want ErrNotRecognized", err)
	}
}

func TestBuildCircuitEmptyPath(t *testing.T) {
	if _, _, err := BuildCircuit(rand.Reader, nil); err == nil {
		t.Error("BuildCircuit(nil) succeeded")
	}
}

func TestNewCircuitCryptoPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero hops")
		}
	}()
	NewCircuitCrypto(nil)
}

func TestCircuitCryptoAccessors(t *testing.T) {
	cc, _ := buildTestCircuit(t, 3)
	if cc.Len() != 3 {
		t.Errorf("Len = %d", cc.Len())
	}
	for i := 0; i < 3; i++ {
		if cc.Hop(i) == nil {
			t.Errorf("Hop(%d) = nil", i)
		}
	}
}

// Property: for any hop count 1..5 and any payload, wrap + peel-at-each-
// relay recovers the plaintext exactly at the exit and nowhere earlier.
func TestPropertyOnionRoundTrip(t *testing.T) {
	f := func(nHopsRaw uint8, data []byte) bool {
		nHops := int(nHopsRaw)%5 + 1
		if len(data) > cell.MaxRelayData {
			data = data[:cell.MaxRelayData]
		}
		ids := make([]*Identity, nHops)
		for i := range ids {
			id, err := NewIdentity(rand.Reader)
			if err != nil {
				return false
			}
			ids[i] = id
		}
		cc, relays, err := BuildCircuit(rand.Reader, ids)
		if err != nil {
			return false
		}
		c := &cell.Cell{Circ: 5}
		if err := c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData}, data); err != nil {
			return false
		}
		cc.WrapForward(c)
		for h := 0; h < nHops-1; h++ {
			relays[h].DecryptForward(c)
			hdr, _, err := c.Relay()
			if err == nil && hdr.Recognized == 0 && relays[h].VerifyForward(c) {
				return false // recognized early
			}
		}
		relays[nHops-1].DecryptForward(c)
		if !relays[nHops-1].VerifyForward(c) {
			return false
		}
		_, got, err := c.Relay()
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: backward direction round-trips from any hop index.
func TestPropertyBackwardFromAnyHop(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	for iter := 0; iter < 20; iter++ {
		nHops := rng.Intn(4) + 1
		origin := rng.Intn(nHops)
		ids := make([]*Identity, nHops)
		for i := range ids {
			id, err := NewIdentity(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		cc, relays, err := BuildCircuit(rand.Reader, ids)
		if err != nil {
			t.Fatal(err)
		}
		data := big.NewInt(int64(iter * 31)).Bytes()
		c := &cell.Cell{}
		c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData}, data)
		relays[origin].SealBackward(c)
		for h := origin; h >= 0; h-- {
			relays[h].EncryptBackward(c)
		}
		hop, err := cc.UnwrapBackward(c)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if hop != origin {
			t.Fatalf("iter %d: recognized at %d, want %d", iter, hop, origin)
		}
	}
}

// countingReader counts the bytes drawn from a seeded stream.
type countingReader struct {
	r *mrand.Rand
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.n += len(p)
	return c.r.Read(p)
}

func TestKeysReproducibleFromSeededReader(t *testing.T) {
	// The same seeded reader must yield the same relay identity and the
	// same CREATE payload every time, consuming exactly 32 bytes per
	// key: a stray extra draw would make keys differ between runs.
	var wantPub, wantCreate []byte
	for i := 0; i < 32; i++ {
		rd := &countingReader{r: mrand.New(mrand.NewSource(42))}
		id, err := NewIdentity(rd)
		if err != nil {
			t.Fatal(err)
		}
		_, create, err := ClientHandshake(rd, id.Public())
		if err != nil {
			t.Fatal(err)
		}
		if rd.n != 64 {
			t.Fatalf("run %d drew %d bytes for two keys, want 64", i, rd.n)
		}
		if i == 0 {
			wantPub, wantCreate = id.Public(), create
			continue
		}
		if !bytes.Equal(id.Public(), wantPub) || !bytes.Equal(create, wantCreate) {
			t.Fatalf("run %d derived different keys from the same seeded reader", i)
		}
	}
}
