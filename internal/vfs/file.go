package vfs

import (
	"fmt"
	"io"

	"sleds/internal/cache"
)

// File is an open file descriptor over a simulated inode.
type File struct {
	k      *Kernel
	ino    *Inode
	pos    int64
	closed bool

	// clusterStart/clusterEnd delimit the page run faulted in by the
	// current request, so that serving its later pages is not
	// misaccounted as cache hits.
	clusterStart, clusterEnd int64
}

// Open opens the file at path. Directories cannot be opened.
func (k *Kernel) Open(path string) (*File, error) {
	n, err := k.lookup(path)
	if err != nil {
		return nil, err
	}
	return k.OpenInode(n)
}

// OpenInode opens an already-resolved inode (used by library code holding
// Walk results). A removed file cannot be opened again.
func (k *Kernel) OpenInode(n *Inode) (*File, error) {
	if n.isDir {
		return nil, fmt.Errorf("vfs: %q: %w", n.name, ErrIsDir)
	}
	if k.inodes[n.ino] != n {
		return nil, fmt.Errorf("vfs: %q removed: %w", n.name, ErrNotExist)
	}
	n.opens++
	return &File{k: k, ino: n}, nil
}

// Inode returns the file's inode.
func (f *File) Inode() *Inode { return f.ino }

// Size returns the current file size.
func (f *File) Size() int64 { return f.ino.size }

// Close invalidates the descriptor. Dirty pages stay in cache (write-back
// happens on eviction or Sync, as in the real kernel). The last Close of a
// removed file releases its written pages.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	if f.ino.opens--; f.ino.opens == 0 && f.k.inodes[f.ino.ino] == nil {
		f.ino.content.Release()
	}
	return nil
}

// Sync writes the file's dirty pages to its device (fsync). A page whose
// write-back fails after the kernel's retries surfaces the first such
// error (fsync reports EIO), though the remaining pages are still
// attempted.
func (f *File) Sync() error {
	if f.closed {
		return ErrClosed
	}
	var firstErr error
	f.k.cache.FlushFile(uint64(f.ino.ino), func(key cache.Key, data []byte) {
		if err := f.k.writePageToDevice(f.ino, key.Page, data); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// Seek implements the usual lseek semantics.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = f.ino.size
	default:
		return 0, fmt.Errorf("vfs: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, fmt.Errorf("vfs: seek to negative offset %d", np)
	}
	f.pos = np
	return np, nil
}

// Read reads from the current position.
func (f *File) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// Write writes at the current position.
func (f *File) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// ReadAt reads len(p) bytes at offset off, short at EOF with io.EOF.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	n, err := mustComplete(f.ReadAtStep(p, off), "read")
	return int(n), err
}

// ReadAtStep begins a resumable ReadAt: the returned step is either
// complete or suspended on a queued-device request for the engine to
// service (see resume.go).
func (f *File) ReadAtStep(p []byte, off int64) IOStep {
	o := pageOp{k: f.k, f: f, p: p, req: int64(len(p)), off: off, chargeCopy: true}
	return o.start()
}

// ReadStep begins a resumable Read from the current position; the cursor
// advances when the step completes.
func (f *File) ReadStep(p []byte) IOStep {
	o := pageOp{k: f.k, f: f, p: p, req: int64(len(p)), off: f.pos, chargeCopy: true, cursor: true}
	return o.start()
}

// WriteAtStep begins a resumable WriteAt.
func (f *File) WriteAtStep(p []byte, off int64) IOStep {
	o := pageOp{k: f.k, f: f, p: p, off: off, write: true}
	return o.start()
}

// ReadAtMapped is ReadAt without the user-space copy charge: the mmap
// access path the paper points at for reducing the SLEDs CPU penalty ("We
// used read(), rather than mmap(), which does not copy the data to meet
// application alignment criteria. An mmap-friendly SLEDs library is
// feasible, which should reduce the CPU penalty", §5.2). Page faults cost
// exactly what they cost through read().
func (f *File) ReadAtMapped(p []byte, off int64) (int, error) {
	o := pageOp{k: f.k, f: f, p: p, req: int64(len(p)), off: off}
	n, err := mustComplete(o.start(), "read")
	return int(n), err
}

// PageIn makes [off, off+n) resident exactly as ReadAt into an n-byte
// buffer would — same device requests, faults, recency, charges (the copy
// to user space included) and result — but delivers no bytes, so the host
// copies nothing: the simulator's synchronous MADV_POPULATE_READ, for
// warm-ups whose bytes nobody reads.
func (f *File) PageIn(off, n int64) (int64, error) {
	return mustComplete(f.pageIn(off, n, true), "read")
}

// PageInMapped is PageIn charged as ReadAtMapped: without the copy.
func (f *File) PageInMapped(off, n int64) (int64, error) {
	return mustComplete(f.pageIn(off, n, false), "read")
}

// PageInStep begins a resumable PageIn, as ReadAtStep begins a ReadAt.
func (f *File) PageInStep(off, n int64) IOStep { return f.pageIn(off, n, true) }

func (f *File) pageIn(off, n int64, chargeCopy bool) IOStep {
	if n < 0 {
		return ioDone(0, fmt.Errorf("vfs: negative page-in length %d", n))
	}
	o := pageOp{k: f.k, f: f, req: n, off: off, chargeCopy: chargeCopy}
	return o.start()
}

// readLoop is the read: validation on entry, then one page per turn, each
// made resident (the only place the read can suspend) and copied out, or
// cleared for a zero page, unless the read is a page-in (p nil).
func (o *pageOp) readLoop(resumed bool, accErr error) (blocked bool, n int64, err error) {
	k, f := o.k, o.f
	ps := int64(k.cfg.PageSize)
	if !resumed {
		if f.closed {
			return false, 0, ErrClosed
		}
		if o.off < 0 {
			return false, 0, fmt.Errorf("vfs: negative read offset %d", o.off)
		}
		if o.off >= f.ino.size {
			return false, 0, io.EOF
		}
		o.want = o.req
		if o.off+o.want > f.ino.size {
			o.want = f.ino.size - o.off
		}
		f.clusterStart, f.clusterEnd = 0, 0
	}
	for resumed || o.got < o.want {
		if !resumed {
			o.setPage(ps)
		}
		data, blocked, err := o.ensureResident(o.want-o.got, resumed, accErr)
		if blocked {
			return true, 0, nil
		}
		if err != nil {
			// Partial read up to the failed page; EIO surfaces to the app.
			k.stats.BytesRead += o.got
			return false, o.got, err
		}
		resumed = false
		switch {
		case o.p == nil: // a page-in delivers no bytes
		case data == nil: // a zero page, held without a buffer
			clear(o.p[o.got : o.got+o.n])
		default:
			copy(o.p[o.got:o.got+o.n], data[o.inPage:o.inPage+o.n])
		}
		o.got += o.n
	}
	// Copying from the page cache to the user buffer costs memory
	// bandwidth (the paper notes read() "copies the data to meet
	// application alignment criteria", unlike mmap).
	if o.chargeCopy {
		f.chargeMemCopy(o.got)
	}
	k.stats.BytesRead += o.got
	if o.got < o.req {
		return false, o.got, io.EOF
	}
	return false, o.got, nil
}

// setPage points the loop at the page holding the next byte to transfer.
func (o *pageOp) setPage(ps int64) {
	cur := o.off + o.got
	o.page, o.inPage = cur/ps, cur%ps
	o.n = ps - o.inPage
	if o.n > o.want-o.got {
		o.n = o.want - o.got
	}
}

// ensureResident returns the cached data of page o.page, faulting it (and,
// if the immediately following pages are part of the same request or
// covered by configured readahead, a cluster) in from the device: the
// cluster computation is synchronous, the device read and the per-page
// inserts (whose evictions may write back) can suspend.
//
// remaining is how many more bytes the current request still needs from
// this page onward; contiguous missing pages within that window are
// fetched in a single device request, which is how the real kernel
// clusters paging I/O.
//
// A device fault is retried per the kernel's retry policy; the returned
// error (wrapping ErrIO) means the policy gave up.
func (o *pageOp) ensureResident(remaining int64, resumed bool, accErr error) (data []byte, blocked bool, err error) {
	k, f := o.k, o.f
	file := uint64(f.ino.ino)
	key := cache.Key{File: file, Page: o.page}
	if !resumed {
		if data, ok := k.cache.Get(key); ok {
			// A page served by an asynchronous prefetch (possibly after
			// waiting for it to complete) is accounted as PrefetchedPages.
			// Pages pulled in by this very request's cluster are not cache
			// hits in the measured sense; they were faulted moments ago.
			if !k.waitIfPending(key) && (o.page < f.clusterStart || o.page >= f.clusterEnd) {
				k.stats.CacheHits++
			}
			return data, false, nil
		}
		k.cache.RecordMiss()
		o.planCluster(remaining)
		o.phase = phFault
		if blocked, accErr = k.runAccess(&o.acc, false, nil); blocked {
			return nil, true, nil
		}
	}
	if o.phase == phFault {
		// The cluster's read is over, with outcome accErr.
		if accErr != nil {
			o.phase = phIdle
			return nil, false, accErr
		}
		o.phase, o.q, resumed = phFill, o.page, false
	}
	for ; o.q < o.page+o.cluster; o.q++ {
		if !resumed {
			o.ins = insertion{key: cache.Key{File: file, Page: o.q}, data: k.loadPage(f.ino, o.q)}
		}
		blocked, err := o.insert(resumed, accErr)
		if blocked {
			return nil, true, nil
		}
		if err != nil {
			o.phase = phIdle
			return nil, false, err
		}
		resumed = false
	}
	o.phase = phIdle
	// Demand-missed pages are hard faults; pure readahead beyond the
	// requested window is accounted separately.
	demand := o.cluster
	if demand > o.wantPages {
		k.stats.ReadaheadPages += demand - o.wantPages
		demand = o.wantPages
	}
	k.stats.Faults += demand
	f.clusterStart, f.clusterEnd = o.page, o.page+o.cluster

	if data, ok := k.cache.Get(key); ok {
		return data, false, nil
	}
	// Under CLOCK the cluster's first page can be gone already: inserting
	// its later pages may give every older page its second chance and then
	// evict the one unreferenced frame at the back, which is that first
	// page. Fault it again; the pages that did survive end the new cluster
	// early, and the second chances are spent.
	return o.ensureResident(remaining, false, nil)
}

// planCluster sizes the device request for a miss on o.page (o.cluster,
// o.wantPages) and sets it up as o.acc.
func (o *pageOp) planCluster(remaining int64) {
	k, f := o.k, o.f
	ps := int64(k.cfg.PageSize)
	filePages := (f.ino.size + ps - 1) / ps

	// Cluster: the missing pages this request needs, plus readahead,
	// never more than the cache can hold (a larger cluster would evict
	// its own leading pages before they are served), stopped at the first
	// already-resident page: re-reading it would be wasted device work.
	o.wantPages = (remaining + ps - 1) / ps
	cluster := min(o.wantPages+int64(k.cfg.ReadaheadPages), filePages-o.page, int64(k.cache.Cap()))
	o.cluster = k.absentRun(f.ino, o.page, cluster)
	o.acc = k.readAccess(f.ino, o.page, o.cluster)
	o.acc.charged = true
}

// absentRun counts the consecutive non-resident pages of n from page, which
// is absent, up to limit: at least the one.
func (k *Kernel) absentRun(n *Inode, page, limit int64) int64 {
	run := int64(1)
	for run < limit && !k.cache.Contains(cache.Key{File: uint64(n.ino), Page: page + run}) {
		run++
	}
	return run
}

// readAccess is the device read of pages [page, page+run) of n, through
// the stager when one serves n's device. It never crosses a tape
// cartridge: allocExtent and ensureExtent keep every file's reservation
// inside one.
func (k *Kernel) readAccess(n *Inode, page, run int64) access {
	ps := int64(k.cfg.PageSize)
	a := access{dev: n.dev, off: n.extent + page*ps, length: run * ps}
	if k.stager != nil && k.stagedDevs[n.dev] {
		a.staged = n
	}
	return a
}

// WriteAt writes len(p) bytes at offset off, growing the file as needed.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	n, err := mustComplete(f.WriteAtStep(p, off), "write")
	return int(n), err
}

// writeLoop is the write; its suspension points are the read-modify-write
// page fault and write-backs of pages its insertions evict.
func (o *pageOp) writeLoop(resumed bool, accErr error) (blocked bool, n int64, err error) {
	k, f := o.k, o.f
	ps := int64(k.cfg.PageSize)
	if !resumed {
		if f.closed {
			return false, 0, ErrClosed
		}
		if o.off < 0 {
			return false, 0, fmt.Errorf("vfs: negative write offset %d", o.off)
		}
		if info := k.Devices.Get(f.ino.dev).Info(); info.ReadOnly {
			return false, 0, fmt.Errorf("vfs: %q on %q: %w", f.ino.name, info.Name, ErrReadOnly)
		}
		if len(o.p) == 0 {
			return false, 0, nil
		}
		o.want = int64(len(o.p))
		if err := k.ensureExtent(f.ino, o.off+o.want); err != nil {
			return false, 0, err
		}
	}
	for resumed || o.got < o.want {
		if !resumed {
			o.setPage(ps)
		}
		key := cache.Key{File: uint64(f.ino.ino), Page: o.page}
		if !resumed {
			src := o.p[o.got : o.got+o.n]
			if data, ok := k.cache.Get(key); ok {
				// Page resident: mutate in place.
				copy(k.writable(key, data)[o.inPage:], src)
				k.cache.MarkDirty(key)
				o.got += o.n
				continue
			}
			if cur := o.off + o.got; o.n == ps || cur >= f.ino.size {
				// Full-page write, or write entirely beyond current EOF: no
				// device read needed.
				buf := k.hostMem().take()
				if o.n < ps {
					// What the write leaves uncovered is what the file
					// holds there: its data below EOF, zeros past it. A
					// recycled buffer holds neither.
					f.ino.fill(o.page, buf)
				}
				copy(buf[o.inPage:], src)
				o.ins = insertion{key: key, data: buf, dirty: true}
				o.phase = phInsert
			}
		}
		if o.phase == phInsert {
			blocked, err := o.insert(resumed, accErr)
			if blocked {
				return true, 0, nil
			}
			o.phase = phIdle
			if err != nil {
				return false, o.got, err
			}
			resumed = false
			o.got += o.n
			continue
		}
		// Partial overwrite of a non-resident page: read-modify-write.
		data, blocked, err := o.ensureResident(o.n, resumed, accErr)
		if blocked {
			return true, 0, nil
		}
		if err != nil {
			return false, o.got, err
		}
		resumed = false
		copy(k.writable(key, data)[o.inPage:], o.p[o.got:o.got+o.n])
		k.cache.MarkDirty(key)
		o.got += o.n
	}
	if o.off+o.want > f.ino.size {
		f.ino.size = o.off + o.want
	}
	f.chargeMemCopy(o.want)
	k.stats.BytesWritten += o.want
	return false, o.want, nil
}

// chargeMemCopy accounts the user/kernel copy cost as CPU time.
func (f *File) chargeMemCopy(n int64) {
	k := f.k
	before := k.Clock.Now()
	k.cfg.MemDevice.Read(k.Clock, 0, n)
	k.stats.CPUTime += k.Clock.Now() - before
}

// ensureExtent grows the inode's device reservation to cover size bytes.
func (k *Kernel) ensureExtent(n *Inode, size int64) error {
	ps := int64(k.cfg.PageSize)
	need := (size + ps - 1) / ps * ps
	have := n.reserved
	if need <= have {
		return nil
	}
	grow := need - have
	if k.nextAlloc[n.dev] == n.extent+have {
		// The file is the device's most recent allocation: extend in
		// place (the common case: output files are created last).
		info := k.Devices.Get(n.dev).Info()
		if chunk := info.ChunkSize; chunk > 0 && n.extent/chunk != (n.extent+need-1)/chunk {
			return fmt.Errorf("vfs: growing %q across a cartridge: %w", n.name, ErrNoSpace)
		}
		if info.Size > 0 && n.extent+need > info.Size {
			return fmt.Errorf("vfs: device %q full: %w", info.Name, ErrNoSpace)
		}
		k.nextAlloc[n.dev] += grow
		n.reserved = need
		return nil
	}
	// Relocate: allocate a fresh extent. The simulator moves no bytes —
	// contents are address-independent — so this under-charges the copy
	// an extent-based FS would do; acceptable because the workloads only
	// grow the most recently created file.
	extent, err := k.allocExtent(n.dev, need)
	if err != nil {
		return err
	}
	n.extent = extent
	n.reserved = need
	return nil
}
