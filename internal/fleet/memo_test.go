package fleet

import (
	"testing"

	"sleds/internal/simclock"
)

// TestSelectMemoEquivalence drives two identical fleets — one with the
// sleds table's skeleton memo at its default capacity, one with it
// disabled — through the same pick sequence under fault churn and health
// decay, and demands bit-identical Selections (estimates are float64:
// equality here is equality of every folded term). Replica files are
// read through device I/O, never the client page cache, so their
// skeletons stay valid across the whole sequence — the memo's best case,
// which is exactly why it must not be able to drift.
func TestSelectMemoEquivalence(t *testing.T) {
	fxOn := newFleet(t, DefaultConfig(), 64*testPage)
	fxOff := newFleet(t, DefaultConfig(), 64*testPage)
	fxOff.tab.SetMemoCapacity(0)

	step := func(i int) {
		for _, fx := range []*fixture{fxOn, fxOff} {
			now := fx.k.Clock.Now()
			switch i % 5 {
			case 2:
				fx.tab.ObserveFault(fx.f.Replica(i%fx.f.Replicas()).Dev,
					simclock.Duration(5+i)*simclock.Millisecond, now)
			case 4:
				fx.k.Clock.Advance(3 * simclock.Second)
			}
		}
		off := int64(i%13) * testPage
		selOn, errOn := fxOn.f.Select(off, 4*testPage, fxOn.k.Clock.Now())
		selOff, errOff := fxOff.f.Select(off, 4*testPage, fxOff.k.Clock.Now())
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("step %d error divergence: memo=%v direct=%v", i, errOn, errOff)
		}
		if selOn != selOff {
			t.Fatalf("step %d selection divergence:\nmemo:   %+v\ndirect: %+v", i, selOn, selOff)
		}
	}
	for i := 0; i < 60; i++ {
		step(i)
	}
	if st := fxOn.tab.MemoStats(); st.Hits == 0 {
		t.Fatalf("memoized fleet never hit the skeleton cache: %+v", st)
	}
}
