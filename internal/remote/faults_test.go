package remote

import (
	"errors"
	"io"
	"testing"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/vfs"
)

// surfacing is an injector episode bound far above the kernel's five
// attempts per request, so a fault it injects almost surely surfaces as
// EIO; the schedule is seeded, so whether it does is fixed per test.
const surfacing = 1 << 20

// injectUnderServer stacks a fault injector under the mount's server —
// on the server disk itself, below the characterization devices — so
// demand fetches and write-backs both feel it.
func injectUnderServer(fx *fixture, cfg faults.Config) *faults.Injector {
	wrapped, inj := faults.Wrap(fx.mount.Server().Disk(), cfg)
	fx.mount.Server().ReplaceDisk(wrapped)
	return inj
}

// TestWriteBackFaultSurfaces is the regression for the infallible
// ServerDevice.Write: a fault injected on the server disk during dirty
// write-back must surface as an error through File.Sync, not be silently
// absorbed (or panic in the injector's infallible path).
func TestWriteBackFaultSurfaces(t *testing.T) {
	fx := newFixture(t, 64, DefaultConfig().ServerCachePages)
	if _, err := fx.k.CreateEmpty("/net/out", fx.mount.Device()); err != nil {
		t.Fatal(err)
	}
	f, err := fx.k.Open("/net/out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 2*testPage), 0); err != nil {
		t.Fatal(err)
	}
	inj := injectUnderServer(fx, faults.Config{Seed: 1, PFault: 1, MaxConsecutive: surfacing})
	if err := f.Sync(); err == nil {
		t.Fatal("sync over a faulting server disk reported success")
	}
	if inj.Stats().Faults == 0 {
		t.Fatal("injector under the server never fired: write-back bypassed the fallible path")
	}
	if st := fx.k.RunStats(); st.EIOs == 0 {
		t.Fatalf("kernel saw no EIO: %+v", st)
	}
}

// TestSyncAllCountsWritebackEIOs pins the asynchronous flavour: SyncAll
// absorbs the failure (as sync(2) does) but counts the dropped page.
func TestSyncAllCountsWritebackEIOs(t *testing.T) {
	fx := newFixture(t, 64, DefaultConfig().ServerCachePages)
	if _, err := fx.k.CreateEmpty("/net/out", fx.mount.Device()); err != nil {
		t.Fatal(err)
	}
	f, err := fx.k.Open("/net/out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, testPage), 0); err != nil {
		t.Fatal(err)
	}
	injectUnderServer(fx, faults.Config{Seed: 2, PFault: 1, MaxConsecutive: surfacing})
	fx.k.SyncAll()
	if st := fx.k.RunStats(); st.WritebackEIOs == 0 {
		t.Fatalf("failed write-back not counted: %+v", st)
	}
}

// TestAbortCostPinsRTTNotWire pins the package's abort-cost contract
// exactly: a server-disk fault on a characterization read costs the full
// RTT plus the fault's class cost and nothing else — no disk service
// time, no wire transfer. The retry completing the episode pays the full
// healthy cost from scratch.
func TestAbortCostPinsRTTNotWire(t *testing.T) {
	fx := newFixture(t, 8, 64)
	injectUnderServer(fx, faults.Config{Seed: 3, PFault: 1, MaxConsecutive: 1})
	slow := fx.k.Devices.Get(fx.mount.Device())
	c := fx.k.Clock

	before := c.Now()
	err := device.ReadErr(slow, c, 0, testPage)
	if err == nil {
		t.Fatal("PFault=1 read did not fault")
	}
	// The server disk is a LevelDisk device, so the injector charges the
	// transient class cost. Exact equality is the pin: any wire or disk
	// time charged on the aborted request would show up here.
	if got, want := c.Now()-before, RTT+faults.TransientExtra; got != want {
		t.Fatalf("aborted read cost %v, want exactly RTT+TransientExtra = %v", got, want)
	}

	// The retry rides the drained episode out and pays the healthy cost:
	// RTT plus real disk service plus the wire transfer.
	before = c.Now()
	if err := device.ReadErr(slow, c, 0, testPage); err != nil {
		t.Fatalf("retry after drained episode failed: %v", err)
	}
	if cost := c.Now() - before; cost <= RTT {
		t.Fatalf("healthy retry cost %v did not include disk and wire time", cost)
	}
}

// TestReadThroughAbortLeavesCacheCold: a demand fetch that aborts on the
// server disk must not insert the faulted page into the server cache.
func TestReadThroughAbortLeavesCacheCold(t *testing.T) {
	fx := newFixture(t, 8, 64)
	injectUnderServer(fx, faults.Config{Seed: 4, PFault: 1, MaxConsecutive: 1})
	srv := fx.mount.Server()
	before := fx.k.Clock.Now()
	if err := srv.ReadThrough(fx.k.Clock, 0, 2*testPage); err == nil {
		t.Fatal("read-through over a faulting disk reported success")
	}
	if got, want := fx.k.Clock.Now()-before, RTT+faults.TransientExtra; got != want {
		t.Fatalf("aborted read-through cost %v, want exactly %v", got, want)
	}
	if srv.CachedPages() != 0 {
		t.Fatalf("aborted fetch warmed the server cache: %d pages", srv.CachedPages())
	}
}

// TestInjectorOverRegisteredSlowPath stacks the injector the other way —
// over the registered remote/slow device with Registry.Replace, above the
// server — and pins the layering contract: write-back (which goes through
// the registry) feels it, while demand fetches (which go through the
// stager straight to the server) bypass it.
func TestInjectorOverRegisteredSlowPath(t *testing.T) {
	fx := newFixture(t, 64, DefaultConfig().ServerCachePages)
	fx.remoteFile(t, "/net/f", 9, 4*testPage)
	f, err := fx.k.Open("/net/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	slowID := fx.mount.Device()
	wrapped, inj := faults.Wrap(fx.k.Devices.Get(slowID), faults.Config{Seed: 5, PFault: 1, MaxConsecutive: surfacing})
	fx.k.Devices.Replace(slowID, wrapped)

	// Demand fetches bypass the over-wrapper entirely.
	buf := make([]byte, testPage)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("demand fetch hit the over-the-registry injector: %v", err)
	}
	if inj.Stats().Faults != 0 {
		t.Fatalf("injector fired %d times on the stager path", inj.Stats().Faults)
	}

	// Write-back goes through the registry and surfaces the fault, with
	// the timeout class of the registered NFS-level device.
	if _, err := f.WriteAt(make([]byte, testPage), 0); err != nil {
		t.Fatal(err)
	}
	var obs *device.Fault
	fx.k.SetFaultObserver(func(fault *device.Fault) { obs = fault })
	if err := f.Sync(); err == nil {
		t.Fatal("sync through the over-the-registry injector reported success")
	}
	if obs == nil {
		t.Fatal("fault observer never fired on write-back")
	}
	if obs.Dev != slowID || obs.Class != device.FaultTimeout {
		t.Fatalf("fault %+v, want timeout class on device %d", obs, slowID)
	}
}

// TestMountRegistersServerDevice: the mount's home device is the server's
// ServerDevice, named and sized as the server disk, and an injector
// stacked over it reports the same Info.
func TestMountRegistersServerDevice(t *testing.T) {
	fx := newFixture(t, 8, 64)
	id := fx.mount.Device()
	raw := fx.k.Devices.Get(id)
	if _, ok := raw.(*ServerDevice); !ok {
		t.Fatalf("mount registered a %T, want *ServerDevice", raw)
	}
	want := device.Info{ID: id, Name: "remote/slow", Level: device.LevelNFS, Size: device.DefaultDiskConfig(0).Size}
	if got := raw.Info(); got != want {
		t.Fatalf("Info = %+v, want %+v", got, want)
	}
	wrapped, _ := faults.Wrap(raw, faults.Config{Seed: 1, PFault: 1})
	if got := wrapped.Info(); got != want {
		t.Fatalf("Info under an injector = %+v, want %+v", got, want)
	}
}

// TestInjectorUnderServerRiddenOutByRetry: with the injector under the
// server and episodes shorter than the kernel's five attempts, demand
// reads succeed — the
// retry loop rides the episode out — and the kernel's fault accounting
// sees the transient-class faults of the raw server disk.
func TestInjectorUnderServerRiddenOutByRetry(t *testing.T) {
	fx := newFixture(t, 8, 64)
	fx.remoteFile(t, "/net/f", 10, 4*testPage)
	f, err := fx.k.Open("/net/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var classes []device.FaultClass
	fx.k.SetFaultObserver(func(fault *device.Fault) { classes = append(classes, fault.Class) })
	injectUnderServer(fx, faults.Config{Seed: 6, PFault: 1, MaxConsecutive: 1})

	buf := make([]byte, 4*testPage)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatalf("retry policy did not ride out MaxConsecutive=1 episodes: %v", err)
	}
	if len(classes) == 0 {
		t.Fatal("no faults observed through the stager fetch path")
	}
	for _, cl := range classes {
		if cl != device.FaultTransient {
			t.Fatalf("server-disk fault class %v, want transient", cl)
		}
	}
	if st := fx.k.RunStats(); st.Retries == 0 {
		t.Fatalf("no retries recorded: %+v", st)
	}
}

// slowSchedule issues n one-page reads that bypass the server cache
// (Server.ReadFresh, so a repeat after a reset reaches the disk again) and
// records which faulted, optionally retrying each faulted offset to
// completion (mirroring internal/faults' schedule).
func slowSchedule(t *testing.T, fx *fixture, n int, retry bool) []bool {
	t.Helper()
	srv := fx.mount.Server()
	c := fx.k.Clock
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		off := int64(i) * testPage
		err := srv.ReadFresh(c, off, testPage)
		out[i] = err != nil
		if retry {
			for attempt := 0; err != nil; attempt++ {
				if attempt > 100 {
					t.Fatalf("offset %d: still failing after %d retries", off, attempt)
				}
				err = srv.ReadFresh(c, off, testPage)
			}
		}
	}
	return out
}

// TestRemoteScheduleIndependentOfRetryPolicy extends the injector's
// retry-independence contract through the remote stack: whether the
// client retries each fault to completion or abandons it, the same fresh
// requests fault on the server disk.
func TestRemoteScheduleIndependentOfRetryPolicy(t *testing.T) {
	cfg := faults.Config{Seed: 7, PFault: 0.3, MaxConsecutive: 3}
	fa := newFixture(t, 8, 64)
	injectUnderServer(fa, cfg)
	fb := newFixture(t, 8, 64)
	injectUnderServer(fb, cfg)
	retried := slowSchedule(t, fa, 150, true)
	abandoned := slowSchedule(t, fb, 150, false)
	faulted := 0
	for i := range retried {
		if retried[i] != abandoned[i] {
			t.Fatalf("fault schedule depends on retry behaviour (request %d)", i)
		}
		if retried[i] {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("PFault=0.3 over 150 requests injected no faults")
	}
}

// TestResetAllReachesServerDisk: Kernel.ResetDeviceState resets the
// registered characterization devices, which must propagate through the
// server to the innermost wrapper — the injector under the server disk —
// reseeding it so a repeated run replays the identical fault schedule.
func TestResetAllReachesServerDisk(t *testing.T) {
	fx := newFixture(t, 8, 64)
	injectUnderServer(fx, faults.Config{Seed: 8, PFault: 0.4, MaxConsecutive: 2})
	a := slowSchedule(t, fx, 80, false)
	fx.k.ResetDeviceState()
	b := slowSchedule(t, fx, 80, false)
	faulted := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule did not replay after ResetDeviceState (request %d): reset stopped above the innermost injector", i)
		}
		if a[i] {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("PFault=0.4 over 80 requests injected no faults")
	}
}

// TestInjectorOverFastPathOffDataPath: the remote/fast characterization
// device is a cost model, not a data path — an injector stacked over it
// perturbs nothing but calibration probes.
func TestInjectorOverFastPathOffDataPath(t *testing.T) {
	fx := newFixture(t, 8, 64)
	fx.remoteFile(t, "/net/f", 11, 4*testPage)
	fastID := fx.mount.FastDevice()
	wrapped, inj := faults.Wrap(fx.k.Devices.Get(fastID), faults.Config{Seed: 9, PFault: 1, MaxConsecutive: 1})
	fx.k.Devices.Replace(fastID, wrapped)
	f, err := fx.k.Open("/net/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	io.Copy(io.Discard, f) // warm the server cache
	fx.k.DropCaches()
	f.Seek(0, io.SeekStart)
	if _, err := io.Copy(io.Discard, f); err != nil {
		t.Fatalf("server-cached re-read routed through the fast characterization device: %v", err)
	}
	if inj.Stats().Faults != 0 {
		t.Fatalf("fast-path injector fired %d times on the data path", inj.Stats().Faults)
	}
}

// errorsIsEIO is a compile-time guard that the surfaced write-back error
// wraps vfs.ErrIO, the contract callers branch on.
func TestSurfacedErrorWrapsEIO(t *testing.T) {
	fx := newFixture(t, 64, DefaultConfig().ServerCachePages)
	if _, err := fx.k.CreateEmpty("/net/out", fx.mount.Device()); err != nil {
		t.Fatal(err)
	}
	f, err := fx.k.Open("/net/out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, testPage), 0); err != nil {
		t.Fatal(err)
	}
	injectUnderServer(fx, faults.Config{Seed: 12, PFault: 1, MaxConsecutive: surfacing})
	if err := f.Sync(); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("sync error %v does not wrap vfs.ErrIO", err)
	}
}
