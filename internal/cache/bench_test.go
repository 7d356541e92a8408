package cache

import "testing"

// benchPages is the cache size of the lookup benchmarks: 44 MiB of 4 KiB
// frames, the paper machine's page cache.
const benchPages = 11264

// fullBenchCache is an LRU cache holding pages 0..benchPages-1 of file 1.
func fullBenchCache(b *testing.B) *Cache {
	c, data := New(benchPages, LRU, nil), make([]byte, 1)
	for p := int64(0); p < benchPages; p++ {
		if err := c.Insert(Key{File: 1, Page: p}, data, false); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

var getSink []byte

// BenchmarkCacheGet times a lookup in a full cache: a resident page
// (hit, which also moves it to the front) and a page of a file that has
// none resident (miss).
func BenchmarkCacheGet(b *testing.B) {
	for _, bc := range []struct {
		name string
		file uint64
	}{{"hit", 1}, {"miss", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			c := fullBenchCache(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				getSink, _ = c.Get(Key{File: bc.file, Page: int64(i*7) % benchPages})
			}
		})
	}
}

// BenchmarkCacheInsertEvict times inserting a page into a full cache,
// which evicts the least recently used one: pages of file 2 cycling
// through four times the cache's size, so every insert misses.
func BenchmarkCacheInsertEvict(b *testing.B) {
	c, data := fullBenchCache(b), make([]byte, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Insert(Key{File: 2, Page: int64(i) % (4 * benchPages)}, data, false); err != nil {
			b.Fatal(err)
		}
	}
}
