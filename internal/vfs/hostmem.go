package vfs

import (
	"sleds/internal/cache"
	"sleds/internal/workload"
)

// HostMem is the host memory a kernel works in that is worth more than the
// kernel (DESIGN.md, "What a grid point costs the host twice"): the page
// buffers its cache fills, the cache's storage, the store its files keep
// generated and written pages in, and fimgbin's sums. A sweep worker hands
// one arena to the machines of successive points and grids (Config.HostMem),
// Reset between them; the zero value is empty. Only keyed store pages carry
// meaning across Reset, and a kernel booted before one (the next kernel fills
// its buffers) panics on its next I/O or residency query. One goroutine at a
// time; kernels share buffers.
type HostMem struct {
	pageSize   int
	bufs, free [][]byte       // every page buffer made; those in no cache
	caches     []*cache.Cache // of the kernels booted, in order, since a Reset
	live       int            // kernels booted since the last Reset
	store      workload.Store
	sums       []int32 // lent by Kernel.Sums
	epoch      uint64  // Resets so far
}

// Reset reclaims everything handed out; kernels booted before it are dead.
func (m *HostMem) Reset() {
	m.free = append(m.free[:0], m.bufs...)
	m.live = 0
	m.store.Reset()
	m.epoch++
}

// SetStoreBudget bounds the bytes the store keeps (workload.Store.SetBudget).
func (m *HostMem) SetStoreBudget(n int) { m.store.SetBudget(n) }

// Held reports the page buffers, cache frames and store bytes the arena holds.
func (m *HostMem) Held() (bufs, frames, store int) {
	for _, c := range m.caches {
		frames += c.Frames()
	}
	return len(m.bufs), frames, m.store.Held()
}

// hostMem returns the kernel's arena, which must not have been Reset since boot.
func (k *Kernel) hostMem() *HostMem {
	if k.mem.epoch != k.memEpoch {
		panic("vfs: kernel used after its HostMem was Reset: a kernel does not outlive the grid point that booted it")
	}
	return k.mem
}

// Sums lends n zeroed int32 accumulators from the kernel's arena, the
// caller's until the next Sums on the arena or its Reset: fimgbin's boxcar
// sums, which a sweep's runs and grid points thereby share.
func (k *Kernel) Sums(n int) []int32 {
	m := k.hostMem()
	if cap(m.sums) < n { // doubling: a sweep's images grow point by point
		m.sums = make([]int32, max(n, 2*cap(m.sums)))
	}
	m.sums = m.sums[:n]
	clear(m.sums)
	return m.sums
}

// take returns a page buffer with unspecified contents, the caller's until
// the cache has it; it comes back by onEvict, the drop hook or the drain.
func (m *HostMem) take() []byte {
	var buf []byte
	if n := len(m.free); n > 0 {
		buf, m.free = m.free[n-1], m.free[:n-1]
	}
	if cap(buf) < m.pageSize {
		buf = make([]byte, m.pageSize)
		m.bufs = append(m.bufs, buf)
	}
	return buf
}

// put recycles the buffer of a page that has left the cache; nothing may
// reference it afterwards. A foreign-sized one is left to the collector.
func (m *HostMem) put(buf []byte) {
	if len(buf) == m.pageSize {
		m.free = append(m.free, buf)
	}
}
