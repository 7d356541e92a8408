package hsm

import (
	"errors"
	"io"
	"testing"

	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/lmbench"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

const testPage = 4096

type fixture struct {
	k      *vfs.Kernel
	tape   device.ID
	disk   device.ID
	stager *Stager
	tab    *core.Table
}

func newFixture(t testing.TB, capacityBlocks int) *fixture {
	t.Helper()
	return newFixtureCache(t, capacityBlocks, 16)
}

// newFixtureCache is newFixture with a page cache of cachePages pages.
func newFixtureCache(t testing.TB, capacityBlocks, cachePages int) *fixture {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: cachePages, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	tcfg := device.DefaultTapeLibraryConfig(2)
	tape := k.AttachDevice(device.NewTapeLibrary(tcfg))
	if err := k.MkdirAll("/hsm"); err != nil {
		t.Fatal(err)
	}
	const block = blockPages * testPage
	s, err := New(k, Config{Tape: tape, Disk: disk, Capacity: int64(capacityBlocks) * block})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := lmbench.Calibrate(k.Clock, mem, k.Devices.All())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{k: k, tape: tape, disk: disk, stager: s, tab: tab}
}

func (fx *fixture) tapeFile(t testing.TB, path string, seed uint64, size int64) *vfs.Inode {
	t.Helper()
	n, err := fx.k.Create(path, fx.tape, workload.NewText(seed, size, testPage))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidation(t *testing.T) {
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: 8, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	tape := k.AttachDevice(device.NewTapeLibrary(device.DefaultTapeLibraryConfig(2)))
	if _, err := New(k, Config{Tape: tape, Disk: disk, Capacity: 1000}); err == nil {
		t.Fatalf("tiny capacity accepted")
	}
}

func TestFirstReadMigratesSecondHitsDisk(t *testing.T) {
	fx := newFixture(t, 64)
	n := fx.tapeFile(t, "/hsm/f", 1, 8*testPage)
	f, err := fx.k.Open("/hsm/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	before := fx.k.Clock.Now()
	buf := make([]byte, testPage)
	f.ReadAt(buf, 0)
	coldCost := fx.k.Clock.Now() - before
	if !fx.stager.IsStaged(n, n.Extent()) || fx.stager.StagedBlocks() != 1 {
		t.Fatalf("first read did not migrate block 0 from tape (%d blocks staged)", fx.stager.StagedBlocks())
	}

	// Drop the RAM cache so the second read must go back to the stager,
	// which serves it from the disk stage: no migration, far cheaper.
	fx.k.DropCaches()
	before = fx.k.Clock.Now()
	f.ReadAt(buf, 0)
	stagedCost := fx.k.Clock.Now() - before
	if stagedCost == 0 || fx.stager.StagedBlocks() != 1 {
		t.Fatalf("second read did not come from the disk stage (cost %v, %d blocks staged)", stagedCost, fx.stager.StagedBlocks())
	}
	if stagedCost*100 > coldCost {
		t.Fatalf("staged read (%v) not ≫ cheaper than tape read (%v)", stagedCost, coldCost)
	}
}

func TestDataCorrectThroughMigration(t *testing.T) {
	fx := newFixture(t, 4)
	n := fx.tapeFile(t, "/hsm/f", 2, 6*testPage)
	want := workload.NewText(2, 6*testPage, testPage).ReadAll()
	_ = n
	f, _ := fx.k.Open("/hsm/f")
	defer f.Close()
	got := make([]byte, 6*testPage)
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d corrupted through HSM", i)
		}
	}
}

// TestStagedFetchRetriesEachAccess reads a fully staged file in one
// fetch of eight blocks over a disk that faults often but never twice in a
// row. Each staged-block read is retried on its own, so a fault costs one
// retry; re-running the whole fetch instead re-reads every block with a
// fresh fault draw and runs out of attempts.
func TestStagedFetchRetriesEachAccess(t *testing.T) {
	const blocks = 8
	fx := newFixtureCache(t, blocks, 2*blocks*blockPages)
	size := int64(blocks * blockPages * testPage)
	fx.tapeFile(t, "/hsm/f", 5, size)
	f, err := fx.k.Open("/hsm/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if fx.stager.StagedBlocks() != blocks {
		t.Fatalf("staged blocks = %d, want %d", fx.stager.StagedBlocks(), blocks)
	}
	fx.k.DropCaches()

	wrapped, _ := faults.Wrap(fx.k.Devices.Get(fx.disk), faults.Config{Seed: 11, PFault: 0.3, MaxConsecutive: 1})
	fx.k.Devices.Replace(fx.disk, wrapped)
	fx.k.ResetRunStats()
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatalf("staged read under faults: %v", err)
	}
	st := fx.k.RunStats()
	if st.EIOs != 0 || st.DeviceFaults == 0 {
		t.Fatalf("EIOs = %d, device faults = %d; want 0 EIOs and some faults", st.EIOs, st.DeviceFaults)
	}
}

// failEvery wraps dev in an injector whose episodes outlast the kernel's
// attempts per request, so every access to it surfaces as EIO.
func (fx *fixture) failEvery(dev device.ID) {
	wrapped, _ := faults.Wrap(fx.k.Devices.Get(dev), faults.Config{Seed: 1, PFault: 1, MaxConsecutive: 1 << 20})
	fx.k.Devices.Replace(dev, wrapped)
}

// TestStageFaultsSurface: a device of the hierarchy that fails every
// attempt ends the read in an error wrapping vfs.ErrIO, whether it is the
// stage disk under a staged read, the stage disk under a migration write,
// or the tape under a migration read. A failed migration stages nothing
// and hands its slot back.
func TestStageFaultsSurface(t *testing.T) {
	const blocks = 4
	size := int64(blocks * blockPages * testPage)
	for _, c := range []struct {
		name   string
		staged bool // read the file once before the device fails
		tape   bool // fail the tape rather than the stage disk
	}{
		{"staged read", true, false},
		{"migration write", false, false},
		{"migration read", false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			fx := newFixture(t, blocks)
			fx.tapeFile(t, "/hsm/f", 7, size)
			f, err := fx.k.Open("/hsm/f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, blockPages*testPage)
			if c.staged {
				if _, err := f.ReadAt(buf, 0); err != nil {
					t.Fatal(err)
				}
				fx.k.DropCaches()
			}
			failed := fx.disk
			if c.tape {
				failed = fx.tape
			}
			fx.failEvery(failed)
			if _, err := f.ReadAt(buf, 0); !errors.Is(err, vfs.ErrIO) {
				t.Fatalf("read over a failing device: err = %v, want one wrapping vfs.ErrIO", err)
			}
			if c.staged {
				return
			}
			if got := fx.stager.StagedBlocks(); got != 0 {
				t.Errorf("a failed migration staged %d blocks", got)
			}
			if got := len(fx.stager.free); got != blocks {
				t.Errorf("%d free slots after a failed migration, want all %d", got, blocks)
			}
		})
	}
}

func TestStageEviction(t *testing.T) {
	fx := newFixture(t, 2) // two 64 KiB blocks of stage
	fx.tapeFile(t, "/hsm/f", 3, 4*64*1024)
	f, _ := fx.k.Open("/hsm/f")
	defer f.Close()
	buf := make([]byte, 64*1024)
	for i := int64(0); i < 4; i++ {
		f.ReadAt(buf, i*64*1024)
	}
	if fx.stager.StagedBlocks() != 2 {
		t.Fatalf("staged blocks = %d, want 2", fx.stager.StagedBlocks())
	}
	// Four blocks through two slots: the first two were evicted, the last
	// two are staged.
	n, _ := fx.k.Stat("/hsm/f")
	for b, want := range []bool{false, false, true, true} {
		if got := fx.stager.IsStaged(n, n.Extent()+int64(b)*64*1024); got != want {
			t.Fatalf("block %d staged = %v after LRU churn, want %v", b, got, want)
		}
	}
}

func TestDeviceForPageReflectsStaging(t *testing.T) {
	fx := newFixture(t, 8)
	n := fx.tapeFile(t, "/hsm/f", 4, 4*64*1024)
	if got := fx.k.DeviceForPage(n, 0); got != fx.tape {
		t.Fatalf("unstaged page reports device %d, want tape %d", got, fx.tape)
	}
	f, _ := fx.k.Open("/hsm/f")
	defer f.Close()
	f.ReadAt(make([]byte, 10), 0)
	fx.k.DropCaches() // out of RAM, still staged on disk
	if got := fx.k.DeviceForPage(n, 0); got != fx.disk {
		t.Fatalf("staged page reports device %d, want disk %d", got, fx.disk)
	}
}

func TestSLEDQuerySeesThreeLevels(t *testing.T) {
	fx := newFixture(t, 8)
	n := fx.tapeFile(t, "/hsm/f", 5, 4*64*1024)
	f, _ := fx.k.Open("/hsm/f")
	defer f.Close()

	// Touch the first block: RAM + stage. Then drop half the RAM pages by
	// touching the second block's first page only.
	f.ReadAt(make([]byte, 64*1024), 0)  // block 0: RAM + staged
	fx.k.DropCaches()                   // block 0: staged only
	f.ReadAt(make([]byte, testPage), 0) // page 0: RAM again

	sleds, err := core.Query(fx.k, fx.tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Validate(sleds, n.Size()); err != nil {
		t.Fatal(err)
	}
	if len(sleds) != 3 {
		t.Fatalf("want 3 SLEDs (mem/disk/tape), got %v", sleds)
	}
	if !(sleds[0].Latency < sleds[1].Latency && sleds[1].Latency < sleds[2].Latency) {
		t.Fatalf("SLED latencies not mem<disk<tape: %v", sleds)
	}
	// The tape SLED's latency should be enormous (mount + locate).
	if sleds[2].Latency < 5 {
		t.Fatalf("tape SLED latency %v s, expected tens of seconds", sleds[2].Latency)
	}
}

func TestHSMGainExceedsDiskGain(t *testing.T) {
	// The paper's claim: SLEDs gains are much larger on HSM. Compare a
	// stale-cache re-read of a partially staged file against reading it
	// all from tape.
	fx := newFixture(t, 16)
	fx.tapeFile(t, "/hsm/f", 6, 8*64*1024)
	f, _ := fx.k.Open("/hsm/f")
	defer f.Close()

	// Stage the first half by reading it once.
	half := int64(4 * 64 * 1024)
	f.ReadAt(make([]byte, half), 0)
	fx.k.DropCaches()
	fx.k.ResetDeviceState()

	// Tape-ordered read of the unstaged half (what a linear reader that
	// starts at the unstaged tail would suffer).
	before := fx.k.Clock.Now()
	f.ReadAt(make([]byte, half), half)
	tapeCost := fx.k.Clock.Now() - before

	fx.k.DropCaches()
	fx.k.ResetDeviceState()
	before = fx.k.Clock.Now()
	f.ReadAt(make([]byte, half), 0)
	stagedCost := fx.k.Clock.Now() - before

	if stagedCost*50 > tapeCost {
		t.Fatalf("staged half (%v) not ≫ cheaper than tape half (%v)", stagedCost, tapeCost)
	}
}
