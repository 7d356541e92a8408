package simclock

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("new clock Now() = %v, want 0", got)
	}
}

func TestAdvanceAccumulates(t *testing.T) {
	c := New()
	c.Advance(5 * Millisecond)
	c.Advance(250 * Microsecond)
	want := 5*Millisecond + 250*Microsecond
	if got := c.Now(); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAdvanceZeroIsNoop(t *testing.T) {
	c := New()
	c.Advance(time.Second)
	c.Advance(0)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now() = %v, want 1s", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Advance(-1) did not panic")
		}
	}()
	New().Advance(-1)
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.Advance(10 * Millisecond)
	if moved := c.AdvanceTo(5 * Millisecond); moved {
		t.Fatalf("AdvanceTo(past) reported movement")
	}
	if got := c.Now(); got != 10*Millisecond {
		t.Fatalf("Now() = %v after past AdvanceTo, want 10ms", got)
	}
	if moved := c.AdvanceTo(30 * Millisecond); !moved {
		t.Fatalf("AdvanceTo(future) reported no movement")
	}
	if got := c.Now(); got != 30*Millisecond {
		t.Fatalf("Now() = %v, want 30ms", got)
	}
}

func TestAdvanceToEqualIsNoop(t *testing.T) {
	c := New()
	c.Advance(time.Second)
	if c.AdvanceTo(time.Second) {
		t.Fatalf("AdvanceTo(now) reported movement")
	}
}

func TestTransferTime(t *testing.T) {
	// 48 MB/s over 48 MB should be one second (paper Table 2 memory row).
	d := TransferTime(48<<20, 48*float64(1<<20))
	if d != time.Second {
		t.Fatalf("TransferTime = %v, want 1s", d)
	}
}

func TestTransferTimeZeroBytes(t *testing.T) {
	if d := TransferTime(0, 1e6); d != 0 {
		t.Fatalf("TransferTime(0) = %v, want 0", d)
	}
	if d := TransferTime(-5, 1e6); d != 0 {
		t.Fatalf("TransferTime(-5) = %v, want 0", d)
	}
}

func TestTransferTimeBadBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("TransferTime with zero bandwidth did not panic")
		}
	}()
	TransferTime(1, 0)
}

func TestTransferTimeProportional(t *testing.T) {
	// Property: doubling the byte count doubles the transfer time
	// (within integer truncation of one nanosecond).
	f := func(kb uint16) bool {
		n := int64(kb) + 1
		d1 := TransferTime(n, 9e6)
		d2 := TransferTime(2*n, 9e6)
		diff := d2 - 2*d1
		return diff >= -2 && diff <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterBounds(t *testing.T) {
	j := NewJitter(42, 0.1)
	base := Duration(1000 * Microsecond)
	for i := 0; i < 1000; i++ {
		d := j.Perturb(base)
		lo := Duration(float64(base) * 0.9)
		hi := Duration(float64(base) * 1.1)
		if d < lo || d > hi {
			t.Fatalf("Perturb out of bounds: %v not in [%v,%v]", d, lo, hi)
		}
	}
}

func TestJitterZeroFractionIsIdentity(t *testing.T) {
	j := NewJitter(1, 0)
	if got := j.Perturb(time.Second); got != time.Second {
		t.Fatalf("zero-fraction jitter changed the duration: %v", got)
	}
}

func TestJitterNilIsIdentity(t *testing.T) {
	var j *Jitter
	if got := j.Perturb(time.Second); got != time.Second {
		t.Fatalf("nil jitter changed the duration: %v", got)
	}
}

func TestJitterDeterministic(t *testing.T) {
	a := NewJitter(7, 0.2)
	b := NewJitter(7, 0.2)
	for i := 0; i < 100; i++ {
		if a.Perturb(time.Second) != b.Perturb(time.Second) {
			t.Fatalf("same-seed jitter diverged at step %d", i)
		}
	}
}

func TestJitterBadFractionPanics(t *testing.T) {
	for _, frac := range []float64{-0.1, 1.0, 2.0, math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewJitter(frac=%v) did not panic", frac)
				}
			}()
			NewJitter(0, frac)
		}()
	}
}

func TestJitterMeanRoughlyUnbiased(t *testing.T) {
	j := NewJitter(99, 0.25)
	base := Duration(time.Millisecond)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(j.Perturb(base))
	}
	mean := sum / n
	if math.Abs(mean-float64(base)) > 0.01*float64(base) {
		t.Fatalf("jitter mean %v deviates more than 1%% from base %v", Duration(mean), base)
	}
}
