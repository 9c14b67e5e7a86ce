package workload

import (
	"testing"

	"circuitstart/internal/units"
)

func TestParseSizeDistLabelRoundTrip(t *testing.T) {
	cases := []string{
		"fixed:500000",
		"lognormal:200000:0.75",
		"pareto:100000:1.2:10000000",
	}
	for _, src := range cases {
		d, err := ParseSizeDist(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := d.Label(); got != src {
			t.Errorf("ParseSizeDist(%q).Label() = %q", src, got)
		}
		d2, err := ParseSizeDist(d.Label())
		if err != nil {
			t.Fatalf("reparse %q: %v", d.Label(), err)
		}
		if d2 != d {
			t.Errorf("label round trip changed the dist: %+v vs %+v", d2, d)
		}
	}

	// A bare integer is shorthand for a fixed size.
	d, err := ParseSizeDist("250000")
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != SizeFixed || d.Size != 250000 {
		t.Errorf("bare integer parsed as %+v", d)
	}
}

func TestParseSizeDistErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"triangular:5",
		"fixed:0",
		"fixed:x",
		"lognormal:1000",         // missing sigma
		"lognormal:1000:0",       // sigma must be positive
		"pareto:1000:1.1",        // missing max
		"pareto:1000:0:2000",     // alpha must be positive
		"pareto:1000:1.1:500",    // max below min
		"fixed:100:9",            // trailing field
		"pareto:1000:1.1:2000:3", // trailing field
		"lognormal:1000:NaN",     // non-finite sigma
		"lognormal:1000:+Inf",
		"pareto:1000:NaN:5000", // non-finite alpha
		"pareto:1000:Inf:5000",
		"fixed:1e300",       // beyond int64
		"fixed:NaN",         // non-finite size
		"pareto:1:2:1e19",   // max beyond int64
		"lognormal:-1e19:1", // below int64
	} {
		if _, err := ParseSizeDist(src); err == nil {
			t.Errorf("ParseSizeDist(%q) accepted", src)
		}
	}
}

// TestSampleSaturates pins that draws beyond the int64 range saturate
// instead of wrapping to tiny sizes: with a 9e18 B median no genuine
// draw falls below 1e15 B.
func TestSampleSaturates(t *testing.T) {
	d, err := ParseSizeDist("lognormal:9e18:1")
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := d.Sample(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sizes {
		if s < 1e15 {
			t.Errorf("sample %d = %d B: an out-of-range draw wrapped", i, s)
		}
	}
}

// FuzzParseSizeDist checks every accepted spelling: its label parses
// back to the same distribution, and its samples respect the clamps.
func FuzzParseSizeDist(f *testing.F) {
	for _, s := range []string{
		"fixed:500000", "lognormal:200000:0.75", "pareto:100000:1.2:10000000", "4096",
		"lognormal:1000:NaN", "pareto:1000:NaN:5000", "lognormal:1000:+Inf",
		"pareto:1000:Inf:5000", "lognormal:9e18:1", "fixed:1e300",
	} {
		f.Add(s, int64(1))
	}
	f.Fuzz(func(t *testing.T, s string, seed int64) {
		d, err := ParseSizeDist(s)
		if err != nil {
			return
		}
		back, err := ParseSizeDist(d.Label())
		if err != nil || back != d {
			t.Fatalf("%q: label %q parses to %+v (%v), want %+v", s, d.Label(), back, err, d)
		}
		sizes, err := d.Sample(seed, 8)
		if err != nil {
			t.Fatalf("%q: accepted but Sample fails: %v", s, err)
		}
		lo := d.Min
		if lo < 1 {
			lo = 1
		}
		for i, v := range sizes {
			if v < lo || (d.Max > 0 && v > d.Max) {
				t.Fatalf("%q seed %d: sample %d = %d outside [%d, %d]", s, seed, i, v, lo, d.Max)
			}
		}
	})
}

// TestSampleDeterministic pins the seeding contract: same seed, same
// sizes; different seeds, different sizes (for stochastic kinds).
func TestSampleDeterministic(t *testing.T) {
	d, err := ParseSizeDist("lognormal:200000:0.75")
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Sample(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Sample(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 64 || len(b) != 64 {
		t.Fatalf("sample lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c, err := d.Sample(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
}

// TestSampleFixedDrawsNothing pins the byte-identity contract for the
// fixed kind: it returns no mix at all (the scenario keeps its scalar
// TransferSize path, consuming zero RNG draws).
func TestSampleFixedDrawsNothing(t *testing.T) {
	d := SizeDist{Kind: SizeFixed, Size: 500_000}
	mix, err := d.Sample(7, 16)
	if err != nil {
		t.Fatal(err)
	}
	if mix != nil {
		t.Fatalf("fixed dist produced a mix: %v", mix)
	}
}

// TestParetoBounds checks the bounded-Pareto inverse CDF stays within
// [Size, Max] and actually spreads across the range.
func TestParetoBounds(t *testing.T) {
	d, err := ParseSizeDist("pareto:10000:1.1:1000000")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := d.Sample(3, 512)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := mix[0], mix[0]
	for _, s := range mix {
		if s < 10000 || s > 1000000 {
			t.Fatalf("sample %v outside [10000, 1000000]", s)
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	// Heavy tail: the spread should cover well over one decade.
	if float64(hi) < 10*float64(lo) {
		t.Errorf("pareto samples span only [%v, %v] — no tail", lo, hi)
	}
}

// TestLogNormalMedian sanity-checks the parameterization: the sample
// median should land near the configured median.
func TestLogNormalMedian(t *testing.T) {
	d, err := ParseSizeDist("lognormal:200000:0.5")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := d.Sample(11, 1001)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]units.DataSize(nil), mix...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	med := float64(sorted[len(sorted)/2])
	if med < 150_000 || med > 266_000 {
		t.Errorf("sample median %v, want near 200000", med)
	}
}
