package vfs_test

import (
	"bytes"
	"fmt"
	"testing"

	"sleds/internal/device"
	"sleds/internal/iosched"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// once is a program that issues op and exits with its error.
func once(op iosched.Op) iosched.Program {
	issued := false
	return iosched.ProgramFunc(func(h *iosched.Handle, prev iosched.Result) iosched.Op {
		if issued {
			return iosched.Exit(prev.Err)
		}
		issued = true
		return op
	})
}

// TestWriteDuringReadFillSurvives has stream 0 fault page 0 in from a
// queued disk while stream 1, 1 µs later, overwrites the whole page. The
// write lands while the read is in flight, so the read's fill must not
// put the file's older bytes over the newer dirty page: the page reads
// back as the write, from the cache and, after fsync, from the device.
func TestWriteDuringReadFillSurvives(t *testing.T) {
	const pageSize = 256
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: pageSize, CachePages: 8, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Create("/d/f", disk, workload.NewText(3, 4*pageSize, pageSize)); err != nil {
		t.Fatal(err)
	}
	open := func() *vfs.File {
		f, err := k.Open("/d/f")
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	want := bytes.Repeat([]byte{'X'}, pageSize)
	e := iosched.NewEngine(k)
	e.Queue(disk, iosched.NewScheduler("fcfs"))
	e.AddStream(0, once(iosched.ReadAt(open(), make([]byte, pageSize), 0)))
	e.AddStream(simclock.Microsecond, once(iosched.WriteAt(open(), want, 0)))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	f, got := open(), make([]byte, pageSize)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cached page 0 holds %q..., want the write's bytes", got[:8])
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	k.DropCaches()
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("page 0 after fsync holds %q..., want the write's bytes", got[:8])
	}
}

// TestWriteDuringFillWritebackSurvives is that race one step later: stream
// 0's read of page 0 is over, but inserting the page evicts a dirty one, and
// stream 1 overwrites page 0 while that write-back waits on the queued
// disk. The fill resumes to find page 0 resident and newer, and must leave
// it: over a generated file it would put the older bytes back, over a
// content-free one a page without a buffer where a dirty page was.
func TestWriteDuringFillWritebackSurvives(t *testing.T) {
	const pageSize = 256
	for _, contentFree := range []bool{false, true} {
		t.Run(fmt.Sprintf("content-free=%v", contentFree), func(t *testing.T) {
			mem := device.NewMem(device.DefaultMemConfig(0))
			k := vfs.NewKernel(vfs.Config{PageSize: pageSize, CachePages: 2, MemDevice: mem})
			k.AttachDevice(mem)
			disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
			if err := k.MkdirAll("/d"); err != nil {
				t.Fatal(err)
			}
			content := workload.NewText(3, 4*pageSize, pageSize)
			if contentFree {
				content = workload.New(4*pageSize, pageSize, nil)
			}
			if _, err := k.Create("/d/f", disk, content); err != nil {
				t.Fatal(err)
			}
			f, err := k.Open("/d/f")
			if err != nil {
				t.Fatal(err)
			}
			for p := int64(2); p < 4; p++ { // the cache: two dirty pages, 2 at the back
				if _, err := f.WriteAt(bytes.Repeat([]byte{'D'}, pageSize), p*pageSize); err != nil {
					t.Fatal(err)
				}
			}
			want := bytes.Repeat([]byte{'X'}, pageSize)
			e := iosched.NewEngine(k)
			e.Queue(disk, iosched.NewScheduler("fcfs"))
			e.AddStream(0, once(iosched.ReadAt(f, make([]byte, pageSize), 0)))
			wrote, raced := false, false
			e.AddStream(0, iosched.ProgramFunc(func(h *iosched.Handle, prev iosched.Result) iosched.Op {
				switch {
				case wrote:
					return iosched.Exit(prev.Err)
				case k.PageResident(f.Inode(), 2): // the read has not reached its insert
					return iosched.Sleep(100 * simclock.Microsecond)
				}
				wrote, raced = true, !k.PageResident(f.Inode(), 0)
				return iosched.WriteAt(f, want, 0)
			}))
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if !raced {
				t.Fatal("page 0 was resident before the write: the write did not land during the fill's write-back")
			}
			got := make([]byte, pageSize)
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cached page 0 holds %q..., want the write's bytes", got[:8])
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			k.DropCaches()
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("page 0 after fsync holds %q..., want the write's bytes", got[:8])
			}
		})
	}
}

// TestRecycledBuffersUnderEngine runs writers and readers as engine streams
// over one queued disk and a six-page cache. A writer's insert evicts a
// dirty page and suspends on its queued write-back; while it waits, the
// other streams keep evicting, so the evicted page's buffer is recycled and
// refilled before the device write completes. Every page that reaches the
// output file's content must still be the last pattern written to it, and
// every page a reader gets must be the generator's.
func TestRecycledBuffersUnderEngine(t *testing.T) {
	const (
		pageSize   = 256
		cachePages = 6
		writers    = 3
		readers    = 3
		ownPages   = 5 // output pages per writer
		rounds     = 4 // times each writer rewrites its pages
		inPages    = 20
	)
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: pageSize, CachePages: cachePages, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	in := workload.NewText(11, inPages*pageSize, pageSize)
	if _, err := k.Create("/d/in", disk, in); err != nil {
		t.Fatal(err)
	}
	wantIn := in.ReadAll()
	outIno, err := k.CreateEmpty("/d/out", disk)
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(w, page, round int) []byte {
		return bytes.Repeat([]byte{byte(1 + w + 16*page + 64*round)}, pageSize)
	}

	e := iosched.NewEngine(k)
	e.Queue(disk, iosched.NewScheduler("fcfs"))
	for w := 0; w < writers; w++ {
		w := w
		f, err := k.Open("/d/out")
		if err != nil {
			t.Fatal(err)
		}
		i := 0 // next (round, page) to write
		e.AddStream(0, iosched.ProgramFunc(func(h *iosched.Handle, prev iosched.Result) iosched.Op {
			if prev.Err != nil || i == rounds*ownPages {
				return iosched.Exit(prev.Err)
			}
			round, page := i/ownPages, i%ownPages
			i++
			return iosched.WriteAt(f, pattern(w, page, round), int64(w*ownPages+page)*pageSize)
		}))
	}
	for r := 0; r < readers; r++ {
		f, err := k.Open("/d/in")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, pageSize)
		page, reads := -1, 0
		start := r * 7
		e.AddStream(0, iosched.ProgramFunc(func(h *iosched.Handle, prev iosched.Result) iosched.Op {
			if prev.Err != nil {
				return iosched.Exit(prev.Err)
			}
			if page >= 0 && !bytes.Equal(buf, wantIn[page*pageSize:(page+1)*pageSize]) {
				return iosched.Exit(fmt.Errorf("reader got wrong bytes for input page %d", page))
			}
			if reads == 2*inPages {
				return iosched.Exit(nil)
			}
			page = (start + reads) % inPages
			reads++
			return iosched.ReadAt(f, buf, int64(page)*pageSize)
		}))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := k.Cache().Stats(); st.DirtyEvictions == 0 || k.RunStats().PagesWrittenDev == 0 {
		t.Fatalf("no dirty page was evicted and written back during the run (%+v): the test exercised nothing", st)
	}

	k.SyncAll()
	got := make([]byte, writers*ownPages*pageSize)
	f, err := k.OpenInode(outIno)
	if err != nil {
		t.Fatal(err)
	}
	k.DropCaches() // what follows reads the file's content, not the cache
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for page := 0; page < ownPages; page++ {
			at := (w*ownPages + page) * pageSize
			if want := pattern(w, page, rounds-1); !bytes.Equal(got[at:at+pageSize], want) {
				t.Errorf("output page %d (writer %d) holds %#x..., want %#x", w*ownPages+page, w, got[at], want[0])
			}
		}
	}
}
