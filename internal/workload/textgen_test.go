package workload

import (
	"bytes"
	"testing"
)

// splitmix64 is the generator step as the oracle was written against,
// spelled out so the oracle does not share internal/splitmix with the
// code it checks.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// textGenOracle is the TextGen body as it stood before the slot fast
// path, kept verbatim: the byte-for-byte reference the production
// generator is compared against.
func textGenOracle(seed uint64) PageGen {
	return func(page int64, buf []byte) {
		state := seed ^ (uint64(page)+1)*0x9e3779b97f4a7c15
		// Warm the stream so adjacent pages decorrelate.
		splitmix64(&state)

		lineLen := 0
		i := 0
		for i < len(buf) {
			w := lexicon[splitmix64(&state)%uint64(len(lexicon))]
			for j := 0; j < len(w) && i < len(buf); j++ {
				buf[i] = w[j]
				i++
				lineLen++
			}
			if i >= len(buf) {
				break
			}
			if lineLen >= 50+int(splitmix64(&state)%20) {
				buf[i] = '\n'
				lineLen = 0
			} else {
				buf[i] = ' '
			}
			i++
		}
	}
}

// TestTextGenMatchesOracle compares the generator with the oracle over
// seeds, pages and buffer sizes on both sides of the slot width and the
// page size, into buffers that start out dirty: the fast path overruns
// each word into bytes it must later overwrite.
func TestTextGenMatchesOracle(t *testing.T) {
	pages := []int64{0, 1, 2, 255, 4095, 1 << 20, 1<<40 + 7}
	sizes := []int{1, 15, 16, 17, 63, 4095, 4096, 4097, 8192}
	check := func(seed uint64) {
		gen, ref := TextGen(seed), textGenOracle(seed)
		for _, size := range sizes {
			got, want := make([]byte, size), make([]byte, size)
			for _, page := range pages {
				for i := range got {
					got[i], want[i] = 0xA5, 0x5A
				}
				gen(page, got)
				ref(page, want)
				if !bytes.Equal(got, want) {
					i := 0
					for got[i] == want[i] {
						i++
					}
					t.Fatalf("seed %d page %d size %d: first difference at byte %d: got %q, oracle %q",
						seed, page, size, i, got[i], want[i])
				}
			}
		}
	}
	check(0)
	check(1)
	check(42)
	check(20000923)
	check(1 << 63)
	check(^uint64(0))
}

func TestTextGenAllocsZero(t *testing.T) {
	gen, buf := TextGen(7), make([]byte, 4096)
	page := int64(0)
	if n := testing.AllocsPerRun(100, func() { gen(page, buf); page++ }); n != 0 {
		t.Fatalf("TextGen allocates %v times per page, want 0", n)
	}
}

var textGenSink byte

func BenchmarkTextGen(b *testing.B) {
	for _, impl := range []struct {
		name string
		gen  PageGen
	}{{"fast", TextGen(7)}, {"oracle", textGenOracle(7)}} {
		b.Run(impl.name, func(b *testing.B) {
			buf := make([]byte, 4096)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				impl.gen(int64(i), buf)
			}
			textGenSink = buf[0]
		})
	}
}
