package vfs

import (
	"sleds/internal/cache"
	"sleds/internal/simclock"
)

// Access advice, the counterpart the paper contrasts SLEDs with in Figure 1:
// the application -> system flow of informed prefetching (Patterson et
// al.'s TIP, §2 of the paper). Hints let the system overlap I/O with
// computation, but — the paper's point — they "cannot be used across
// program invocations, or take advantage of state left behind by previous
// applications", because information only flows down the stack. SLEDs flow
// the other way; E-HINTS measures both, separately and combined.
//
// A prefetch is a demand read issued early, on the device's background
// timeline: each device has its own busy-until instant, and a prefetched
// page carries the instant its I/O completes, so a later demand access
// waits only for what remains. Prefetched pages enter the cache at once and
// can evict useful data: the cost side of hints that SLEDs do not have.

// prefetchPending holds the completion instant of each prefetched page not
// yet touched. A pending page is always resident: its entry is written
// after its insert, and eviction, DontNeed and DropCaches delete it.
type prefetchPending map[cache.Key]simclock.Duration

// WillNeed discloses that [off, off+n) of the file will be read soon
// (POSIX_FADV_WILLNEED): each run of absent pages in the range, clamped to
// the file, is prefetched. The caller's clock does not advance.
func (f *File) WillNeed(off, n int64) {
	k, ino := f.k, f.ino
	ps := int64(k.cfg.PageSize)
	end := (ino.size + ps - 1) / ps * ps // the file's last page, whole
	if off < 0 || n <= 0 || off >= end {
		return
	}
	last := (off + min(n, end-off) - 1) / ps
	for p := off / ps; p <= last; p++ {
		if !k.cache.Contains(cache.Key{File: uint64(ino.ino), Page: p}) {
			run := k.absentRun(ino, p, last-p+1)
			k.prefetch(ino, p, run)
			p += run - 1 // page p+run is checked again: the inserts may have evicted it
		}
	}
}

// prefetch reads pages [page, page+run) of n behind the device's earlier
// prefetches and inserts them as pending. The read runs on a scratch clock,
// so retry backoff and stager costs land on the background timeline while
// the device's mechanical state advances for real. A read that still fails
// is dropped: advice is advisory, and a demand read will retry the pages.
func (k *Kernel) prefetch(n *Inode, page, run int64) {
	read := k.readAccess(n, page, run)
	scratch := simclock.New()
	scratch.AdvanceTo(max(k.Clock.Now(), k.busyUntil[read.dev]))
	saved := k.Clock
	k.SetClock(scratch)
	err := k.deviceAccess(read)
	k.SetClock(saved)
	completion := scratch.Now()
	k.busyUntil[read.dev] = completion // busy for failed attempts too
	if err != nil {
		return
	}
	o := pageOp{k: k}
	for q := page; q < page+run; q++ {
		o.ins = insertion{key: cache.Key{File: uint64(n.ino), Page: q}, data: k.loadPage(n, q)}
		blocked, err := o.insert(false, nil)
		mustNotBlock(blocked, "cache insert")
		if err != nil {
			return
		}
		k.pending[o.ins.key] = completion
	}
	k.stats.PrefetchIssued += run
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

// DontNeed discloses that [off, off+n) of the file will not be reused
// (POSIX_FADV_DONTNEED): its pages leave the cache at once, dirty ones
// written back first. The range is clamped to the file's reserved extent,
// which holds every page a read or write can have made resident.
func (f *File) DontNeed(off, n int64) {
	k, ino := f.k, f.ino
	if off < 0 || n <= 0 || off >= ino.reserved {
		return
	}
	ps := int64(k.cfg.PageSize)
	for p, last := off/ps, (off+min(n, ino.reserved-off)-1)/ps; p <= last; p++ {
		key := cache.Key{File: uint64(ino.ino), Page: p}
		k.cache.Invalidate(key)
		k.drainWritebacksSync()
		delete(k.pending, key)
	}
}
