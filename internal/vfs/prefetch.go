package vfs

import (
	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/simclock"
)

// Asynchronous prefetch. The simulated machine is single-threaded, but
// devices can work in the background: each device has its own busy-until
// timeline, and a prefetched page carries the virtual instant its I/O
// completes. A later demand access waits only for the remaining time (or
// not at all), which is how informed prefetching (the paper's "hints"
// counterpart, Patterson et al.) overlaps I/O with computation.
//
// Prefetched pages are inserted into the cache at schedule time — they
// occupy frames and can evict useful data immediately, which is precisely
// the cost side of hints that SLEDs do not have.

// prefetchPending tracks in-flight prefetches by page.
type prefetchPending map[cache.Key]simclock.Duration

// Prefetch schedules an asynchronous read of up to `pages` pages of the
// file starting at page index `page`. Already-resident and already-pending
// pages are skipped. The caller's clock does not advance.
func (k *Kernel) Prefetch(n *Inode, page, pages int64) {
	if n.isDir || pages <= 0 {
		return
	}
	ps := int64(k.cfg.PageSize)
	filePages := (n.size + ps - 1) / ps
	if page < 0 {
		page = 0
	}
	if page+pages > filePages {
		pages = filePages - page
	}
	if pages <= 0 {
		return
	}
	if k.pending == nil {
		k.pending = make(prefetchPending)
	}
	dev := k.Devices.Get(n.dev)

	// Issue one device request per run of consecutive absent pages.
	for p := page; p < page+pages; {
		key := cache.Key{File: uint64(n.ino), Page: p}
		if k.cache.Contains(key) {
			p++
			continue
		}
		if _, inflight := k.pending[key]; inflight {
			p++
			continue
		}
		run := int64(1)
		for p+run < page+pages {
			nk := cache.Key{File: uint64(n.ino), Page: p + run}
			if k.cache.Contains(nk) {
				break
			}
			if _, inflight := k.pending[nk]; inflight {
				break
			}
			run++
		}
		k.schedulePrefetch(dev, n, p, run)
		p += run
	}
}

// schedulePrefetch queues one device request on the device's background
// timeline and registers the pages as pending.
func (k *Kernel) schedulePrefetch(dev device.Device, n *Inode, page, run int64) {
	ps := int64(k.cfg.PageSize)
	start := k.Clock.Now()
	if busy := k.busyUntil[dev.Info().ID]; busy > start {
		start = busy
	}
	// Run the device model on a scratch clock positioned at the start
	// instant; the device's mechanical state advances for real.
	scratch := simclock.New()
	scratch.AdvanceTo(start)
	devOff := n.extent + page*ps
	length := run * ps
	if chunk := dev.Info().ChunkSize; chunk > 0 {
		// Clamp at chunk boundaries as the demand path does.
		if end := devOff + length; devOff/chunk != (end-1)/chunk {
			length = (devOff/chunk+1)*chunk - devOff
			run = length / ps
		}
	}
	// Faults on the background timeline are retried there per the kernel
	// policy (the scratch clock is installed so backoff lands on it); a
	// prefetch that still fails is simply dropped — readahead is advisory,
	// and the demand path will retry the pages on its own later.
	read := access{dev: dev, off: devOff, length: length}
	if k.stager != nil && k.stagedDevs[n.dev] {
		// Prefetching through the HSM stager migrates on the background
		// timeline too.
		read.staged = n
	}
	var err error
	k.withScratchClock(scratch, func() { err = k.deviceAccess(read) })
	completion := scratch.Now()
	if k.busyUntil == nil {
		k.busyUntil = make(map[device.ID]simclock.Duration)
	}
	// The device was busy for the failed attempts either way.
	k.busyUntil[dev.Info().ID] = completion
	if err != nil {
		return
	}

	for q := page; q < page+run; q++ {
		key := cache.Key{File: uint64(n.ino), Page: q}
		if k.insertPage(key, k.loadPage(n, q)) != nil {
			return
		}
		k.pending[key] = completion
	}
	k.stats.PrefetchIssued += run
}

// withScratchClock temporarily swaps the kernel clock so stager costs land
// on the background timeline.
func (k *Kernel) withScratchClock(c *simclock.Clock, fn func()) {
	saved := k.Clock
	k.Clock = c
	defer func() { k.Clock = saved }()
	fn()
}

// waitIfPending blocks (advances the clock) until an in-flight prefetch of
// the page completes; reports whether the page was prefetched.
func (k *Kernel) waitIfPending(key cache.Key) bool {
	completion, ok := k.pending[key]
	if !ok {
		return false
	}
	delete(k.pending, key)
	if wait := completion - k.Clock.Now(); wait > 0 {
		k.Clock.Advance(wait)
		k.stats.IOWait += wait
		k.stats.PrefetchWaits++
	}
	k.stats.PrefetchedPages++
	return true
}

// InvalidateRange drops the given page range of a file from the cache
// (madvise(MADV_DONTNEED) / the DontNeed hint). Dirty pages are written
// back first by the cache's eviction path.
func (k *Kernel) InvalidateRange(n *Inode, page, pages int64) {
	for p := page; p < page+pages; p++ {
		key := cache.Key{File: uint64(n.ino), Page: p}
		k.cache.Invalidate(key)
		k.drainWritebacksSync()
		delete(k.pending, key)
	}
}
