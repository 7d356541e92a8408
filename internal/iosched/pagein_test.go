package iosched

import (
	"fmt"
	"reflect"
	"testing"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// pageInReq is one request of a page-in twin's plan: a read of n bytes at
// off of file, or a write of n zero bytes there.
type pageInReq struct {
	file   int
	off, n int64
	write  bool
}

// pageInOutcome is what one run of a plan shows: each stream's finish
// time and per-request results, the kernel's run stats and the cache's
// recency order.
type pageInOutcome struct {
	finish  []simclock.Duration
	results [][]string
	stats   vfs.RunStats
	recency []cache.Key
}

// runPageInPlan runs one stream per plan over files of a kernel whose disk
// is queued under SSTF, above a heavy fault injector. Reads are ReadAt ops,
// or PageIn ops when pageIn is set.
func runPageInPlan(t *testing.T, plans [][]pageInReq, sizes []int64, pageIn bool) pageInOutcome {
	t.Helper()
	const ps = 4096
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: ps, CachePages: 24, ReadaheadPages: 1, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	fcfg, _ := faults.ProfileConfig("heavy", 5)
	wrapped, _ := faults.Wrap(k.Devices.Get(disk), fcfg)
	k.Devices.Replace(disk, wrapped)
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	for i, size := range sizes {
		if _, err := k.Create(fmt.Sprintf("/d/f%d", i), disk, workload.NewText(uint64(i+1), size, ps)); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(k)
	e.Queue(disk, NewScheduler("sstf"))
	out := pageInOutcome{results: make([][]string, len(plans))}
	ids := make([]StreamID, len(plans))
	for s, plan := range plans {
		files := make([]*vfs.File, len(sizes))
		for i := range files {
			f, err := k.Open(fmt.Sprintf("/d/f%d", i))
			if err != nil {
				t.Fatal(err)
			}
			files[i] = f
		}
		next := 0
		ids[s] = e.AddStream(simclock.Duration(s)*simclock.Millisecond, ProgramFunc(func(h *Handle, prev Result) Op {
			if next > 0 {
				out.results[s] = append(out.results[s], fmt.Sprintf("%d %v", prev.N, prev.Err))
			}
			if next == len(plan) {
				return Exit(nil)
			}
			r := plan[next]
			next++
			switch {
			case r.write:
				return WriteAt(files[r.file], make([]byte, r.n), r.off)
			case pageIn:
				return PageIn(files[r.file], r.off, r.n)
			default:
				return ReadAt(files[r.file], make([]byte, r.n), r.off)
			}
		}))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		out.finish = append(out.finish, e.FinishTime(id))
	}
	out.stats = k.RunStats()
	out.recency = k.Cache().AppendRecencyTrace(nil)
	return out
}

// TestPageInMatchesReadAtUnderEngine: streams issuing PageIn ops and
// streams issuing ReadAt ops over one plan — unaligned reads, some across
// EOF, and writes — on a queued disk that faults heavily, finish at the
// same virtual times with the same results, RunStats and recency order.
func TestPageInMatchesReadAtUnderEngine(t *testing.T) {
	const ps = 4096
	sizes := []int64{40*ps + 77, 24 * ps}
	g := lcg(29)
	plans := make([][]pageInReq, 5)
	for s := range plans {
		for range 80 {
			r := pageInReq{file: g.intn(len(sizes))}
			size := sizes[r.file]
			r.off, r.n = int64(g.intn(int(size))), 1+int64(g.intn(5*ps))
			if g.intn(10) == 0 {
				r.off = size - 1 - int64(g.intn(ps)) // across EOF
			}
			r.write = g.intn(8) == 0
			plans[s] = append(plans[s], r)
		}
	}
	read := runPageInPlan(t, plans, sizes, false)
	paged := runPageInPlan(t, plans, sizes, true)
	if read.stats.Retries == 0 || read.stats.Faults == 0 {
		t.Fatalf("the plan faulted %d pages with %d retries: it tests no device work", read.stats.Faults, read.stats.Retries)
	}
	if !reflect.DeepEqual(read.results, paged.results) {
		t.Errorf("per-request results differ:\n read    %v\n page-in %v", read.results, paged.results)
	}
	if !reflect.DeepEqual(read.finish, paged.finish) {
		t.Errorf("streams finish at %v reading, %v paging in", read.finish, paged.finish)
	}
	if read.stats != paged.stats {
		t.Errorf("run stats %+v reading, %+v paging in", read.stats, paged.stats)
	}
	if !reflect.DeepEqual(read.recency, paged.recency) {
		t.Errorf("recency %v reading, %v paging in", read.recency, paged.recency)
	}
}
