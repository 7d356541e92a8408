package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/iosched"
	"sleds/internal/lmbench"
	"sleds/internal/remote"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

const testPage = 4096

type fixture struct {
	k   *vfs.Kernel
	f   *Fleet
	tab *core.Table
}

// newFleet boots a client kernel, attaches a fleet, calibrates, creates
// the replicated file, and resets device state — the standard boot.
func newFleet(t testing.TB, cfg Config, fileSize int64) *fixture {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: 64, MemDevice: mem})
	k.AttachDevice(mem)
	f, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := lmbench.Calibrate(k.Clock, mem, k.Devices.All())
	if err != nil {
		t.Fatal(err)
	}
	f.SetTable(tab)
	if err := f.CreateFile("/data", 1, fileSize); err != nil {
		t.Fatal(err)
	}
	k.ResetDeviceState()
	return &fixture{k: k, f: f, tab: tab}
}

// replicaConfidence is the lowest confidence FSLEDS_GET stamps on replica
// i's copy of the file: the grade the selector compares with the floor.
func replicaConfidence(t *testing.T, fx *fixture, i int) float64 {
	t.Helper()
	sleds, err := core.Query(fx.k, fx.tab, fx.f.Replica(i).Inode())
	if err != nil {
		t.Fatal(err)
	}
	conf := 1.0
	for _, s := range sleds {
		conf = min(conf, s.Confidence)
	}
	return conf
}

// injectReplica stacks a fault injector over replica i's registered
// device (under any queue interposed later), returning the raw device so
// tests can unwrap it again.
func injectReplica(fx *fixture, i int, cfg faults.Config) device.Device {
	id := fx.f.Replica(i).Dev
	raw := fx.k.Devices.Get(id)
	wrapped, _ := faults.Wrap(raw, cfg)
	fx.k.Devices.Replace(id, wrapped)
	return raw
}

func TestConfigValidation(t *testing.T) {
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: 8, MemDevice: mem})
	k.AttachDevice(mem)
	for _, mut := range []func(*Config){
		func(c *Config) { c.Replicas = 0 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(k, cfg); err == nil {
			t.Fatalf("bad config accepted: %+v", cfg)
		}
	}
}

func TestSelectTieBreaksByIndex(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 64*testPage)
	sel, err := fx.f.Select(0, 4*testPage, fx.k.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Primary != 0 || sel.Secondary != 1 {
		t.Fatalf("fresh fleet selection %+v, want replicas 0/1 by index tie-break", sel)
	}
	if sel.Degraded || sel.Probe {
		t.Fatalf("fresh fleet selection flagged %+v", sel)
	}
}

// TestSelectPrefersWarmServerCache: a replica whose server cache holds
// the region estimates below the disk-bound replicas and wins.
func TestSelectPrefersWarmServerCache(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 64*testPage)
	r2 := fx.f.Replica(2)
	off, n := int64(8*testPage), int64(4*testPage)
	if err := r2.Server().ReadThrough(fx.k.Clock, r2.Inode().Extent()+off, n); err != nil {
		t.Fatal(err)
	}
	sel, err := fx.f.Select(off, n, fx.k.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Primary != 2 {
		t.Fatalf("selection %+v ignored replica 2's warm cache", sel)
	}
	cold, err := fx.f.Select(32*testPage, n, fx.k.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Est >= cold.Est {
		t.Fatalf("warm estimate %v not below cold %v", sel.Est, cold.Est)
	}
}

// TestSelectRoutesAroundFaultedReplica: observed faults demote a replica
// below the confidence floor and selection avoids it.
func TestSelectRoutesAroundFaultedReplica(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 64*testPage)
	now := fx.k.Clock.Now()
	fx.tab.ObserveFault(fx.f.Replica(0).Dev, faults.TimeoutExtra, now)
	if conf := replicaConfidence(t, fx, 0); conf >= confidenceFloor {
		t.Fatalf("one timeout left confidence at %v, floor %v", conf, confidenceFloor)
	}
	sel, err := fx.f.Select(0, 4*testPage, now)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Primary == 0 || sel.Secondary == 0 {
		t.Fatalf("selection %+v still routes to the demoted replica", sel)
	}
}

// TestSelectDegradedFallback: with every replica demoted, selection flags
// Degraded and weights estimates by confidence instead of refusing.
func TestSelectDegradedFallback(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 64*testPage)
	now := fx.k.Clock.Now()
	for i := 0; i < fx.f.Replicas(); i++ {
		fx.tab.ObserveFault(fx.f.Replica(i).Dev, faults.TimeoutExtra, now)
	}
	// Replica 3 faulted twice: strictly worse confidence than the rest.
	fx.tab.ObserveFault(fx.f.Replica(3).Dev, faults.TimeoutExtra, now)
	sel, err := fx.f.Select(0, 4*testPage, now)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Degraded {
		t.Fatal("all-demoted fleet not flagged degraded")
	}
	if sel.Primary == 3 {
		t.Fatal("confidence weighting picked the twice-faulted replica")
	}
}

// TestProbeCadence: every ProbeEvery-th selection probes a demoted
// replica, round-robin when several are demoted.
func TestProbeCadence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeEvery = 4
	fx := newFleet(t, cfg, 64*testPage)
	now := fx.k.Clock.Now()
	fx.tab.ObserveFault(fx.f.Replica(1).Dev, faults.TimeoutExtra, now)
	probes := 0
	for i := 0; i < 16; i++ {
		sel, err := fx.f.Select(0, testPage, now)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Probe {
			probes++
			if sel.Primary != 1 {
				t.Fatalf("probe routed to replica %d, want demoted 1", sel.Primary)
			}
			if sel.Secondary == 1 {
				t.Fatal("probe's hedge target is the probed replica itself")
			}
		}
	}
	if probes != 4 {
		t.Fatalf("%d probes in 16 selections at ProbeEvery=4, want 4", probes)
	}
	if got := fx.f.Replica(1).Probes; got != 4 {
		t.Fatalf("replica probe counter %d, want 4", got)
	}
}

// engineFor queues every replica under FCFS and wires the load source.
func engineFor(fx *fixture) *iosched.Engine {
	e := iosched.NewEngine(fx.k)
	for i := 0; i < fx.f.Replicas(); i++ {
		e.Queue(fx.f.Replica(i).Dev, iosched.NewFCFS())
	}
	fx.tab.SetLoad(e)
	fx.f.ObserveLateFaults(e)
	return e
}

// TestReplicaDevicesKeepInfoWhenWrapped: every replica registers a
// remote.ServerDevice named and sized as its server disk, and the Info is
// the same under an injector and a queue (DESIGN.md, "Wrapping a device").
func TestReplicaDevicesKeepInfoWhenWrapped(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 4*testPage)
	want := make([]device.Info, fx.f.Replicas())
	for i := range want {
		id := fx.f.Replica(i).Dev
		raw := fx.k.Devices.Get(id)
		if _, ok := raw.(*remote.ServerDevice); !ok {
			t.Fatalf("replica %d registered a %T, want *remote.ServerDevice", i, raw)
		}
		want[i] = device.Info{ID: id, Name: fmt.Sprintf("fleet/r%d", i), Level: device.LevelNFS, Size: device.DefaultDiskConfig(0).Size}
		if got := raw.Info(); got != want[i] {
			t.Fatalf("replica %d Info = %+v, want %+v", i, got, want[i])
		}
		injectReplica(fx, i, faults.Config{Seed: 1})
	}
	engineFor(fx)
	for i := range want {
		if got := fx.k.Devices.Get(fx.f.Replica(i).Dev).Info(); got != want[i] {
			t.Fatalf("replica %d Info under injector and queue = %+v, want %+v", i, got, want[i])
		}
	}
}

// TestHedgeLoserFaultFeedsHealth: a faulted primary masked by the winning
// secondary is still observed (through the engine's orphan observer) and
// demotes the replica — health accounting survives the race.
func TestHedgeLoserFaultFeedsHealth(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 64*testPage)
	injectReplica(fx, 0, faults.Config{Seed: 4, PFault: 1, MaxConsecutive: 1})
	e := engineFor(fx)
	var out Read
	e.AddStream(0, fx.f.ReadProgram(PolicySLEDHedge, 0, 4*testPage, &out))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Err != nil || out.Failed != 0 {
		t.Fatalf("masked read outcome %+v, want a clean hedged completion", out)
	}
	if conf := replicaConfidence(t, fx, 0); conf >= confidenceFloor {
		t.Fatalf("replica 0 confidence %v after a masked fault, want demotion below %v",
			conf, confidenceFloor)
	}
}

func TestReadSucceedsAndCountsServed(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 64*testPage)
	e := engineFor(fx)
	var out Read
	e.AddStream(0, fx.f.ReadProgram(PolicySLED, 0, 4*testPage, &out))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Err != nil || out.Attempts != 1 || out.Failed != 0 {
		t.Fatalf("clean read outcome %+v", out)
	}
	if out.Dev != fx.f.Replica(0).Dev {
		t.Fatalf("read served by %v, want replica 0 (index tie-break)", out.Dev)
	}
	if fx.f.Replica(0).Issued != 1 {
		t.Fatalf("replica 0 issued %d, want 1", fx.f.Replica(0).Issued)
	}
}

// TestReadFailoverWithinBudget: the primary faults, the read backs off
// and fails over to another replica, and succeeds within budget.
func TestReadFailoverWithinBudget(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 64*testPage)
	injectReplica(fx, 0, faults.Config{Seed: 1, PFault: 1, MaxConsecutive: 1})
	e := engineFor(fx)
	var out Read
	e.AddStream(0, fx.f.ReadProgram(PolicySLED, 0, 4*testPage, &out))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatalf("failover did not recover: %v", out.Err)
	}
	if out.Failed != 1 || out.Attempts != 2 {
		t.Fatalf("outcome %+v, want one absorbed fault and two attempts", out)
	}
	if out.Dev == fx.f.Replica(0).Dev {
		t.Fatal("read reports the faulted replica as the server")
	}
	if fx.f.Replica(0).Faults != 1 {
		t.Fatalf("replica 0 fault counter %d, want 1", fx.f.Replica(0).Faults)
	}
	// The observed fault demoted replica 0 for subsequent selections.
	if conf := replicaConfidence(t, fx, 0); conf >= confidenceFloor {
		t.Fatalf("fault not fed to the health observer: confidence %v", conf)
	}
}

// TestReadBudgetExhausted: with every replica faulting for longer than its
// budget, the read gives up once the per-replica budgets are spent and
// surfaces the error.
func TestReadBudgetExhausted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 2
	fx := newFleet(t, cfg, 64*testPage)
	injectReplica(fx, 0, faults.Config{Seed: 2, PFault: 1, MaxConsecutive: 1 << 20})
	injectReplica(fx, 1, faults.Config{Seed: 3, PFault: 1, MaxConsecutive: 1 << 20})
	e := engineFor(fx)
	var out Read
	e.AddStream(0, fx.f.ReadProgram(PolicySLED, 0, testPage, &out))
	if err := e.Run(); err == nil {
		t.Fatal("stream did not surface the exhausted-budget error")
	}
	if out.Err == nil || out.Attempts != 2*retryAttempts || out.Failed != 2*retryAttempts {
		t.Fatalf("outcome %+v, want %d failed attempts and an error", out, 2*retryAttempts)
	}
}

// TestHedgeMasksFaultedPrimary: the primary's timeout fault costs far
// more than the hedge deadline, so the secondary wins the race and the
// read completes cleanly — tail-latency insurance in action.
func TestHedgeMasksFaultedPrimary(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 64*testPage)
	injectReplica(fx, 0, faults.Config{Seed: 4, PFault: 1, MaxConsecutive: 1})
	e := engineFor(fx)
	var out Read
	e.AddStream(0, fx.f.ReadProgram(PolicySLEDHedge, 0, 4*testPage, &out))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatalf("hedged read surfaced the primary's fault: %v", out.Err)
	}
	if !out.Hedged {
		t.Fatal("hedge did not fire against a timing-out primary")
	}
	if out.Dev == fx.f.Replica(0).Dev {
		t.Fatal("faulted primary won the hedge race against a healthy secondary")
	}
	// The fleet finished the read at roughly hedge delay + service, far
	// below the 1.1 s timeout the unhedged read would have eaten before
	// failing over. (FinishTime is absolute; the stream started at the
	// engine base, after calibration advanced the kernel clock.)
	if ft := e.FinishTime(0) - e.Base(); ft >= faults.TimeoutExtra {
		t.Fatalf("hedged read took %v, not below the %v timeout", ft, faults.TimeoutExtra)
	}
}

// TestDemotionAndProbeBackRecovery live-tests graceful degradation end to
// end: a replica faults under injection and is demoted; the injector is
// removed; probe traffic and penalty decay win the replica its traffic
// back within a bounded number of selections.
func TestDemotionAndProbeBackRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeEvery = 4
	fx := newFleet(t, cfg, 64*testPage)
	fx.tab.SetHealthHalfLife(500 * simclock.Millisecond)
	dev0 := fx.f.Replica(0).Dev
	raw := injectReplica(fx, 0, faults.Config{Seed: 5, PFault: 1, MaxConsecutive: 1})

	// Phase 1: reads under injection fail over and demote replica 0.
	e := engineFor(fx)
	var out Read
	e.AddStream(0, fx.f.ReadProgram(PolicySLED, 0, 4*testPage, &out))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Err != nil || out.Failed == 0 {
		t.Fatalf("phase 1 outcome %+v, want an absorbed fault", out)
	}
	if conf := replicaConfidence(t, fx, 0); conf >= confidenceFloor {
		t.Fatalf("replica 0 not demoted: confidence %v", conf)
	}

	// Phase 2: the server recovers (injector removed). Selections keep
	// probing replica 0 on the cadence while the penalty decays. Select
	// on a region no server cache was warmed for — phase 1's failover
	// warmed another replica's cache for [0, 4 pages), which would keep
	// beating replica 0 on estimate forever regardless of health.
	fx.k.Devices.Replace(dev0, raw)
	coldOff := int64(32 * testPage)
	recovered := -1
	for i := 0; i < 200; i++ {
		fx.k.Clock.Advance(250 * simclock.Millisecond)
		sel, err := fx.f.Select(coldOff, 4*testPage, fx.k.Clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		if !sel.Probe && sel.Primary == 0 {
			recovered = i
			break
		}
	}
	if recovered < 0 {
		t.Fatal("recovered replica never regained non-probe traffic")
	}
	if probes := fx.f.Replica(0).Probes; probes == 0 {
		t.Fatal("no probes were routed to the demoted replica")
	}
	// Bounded recovery: penalty 1.1 s over base ~tens of ms at a 500 ms
	// half-life is gone within ~10 s of virtual time; the loop advanced
	// 250 ms per pick, so recovery must land well inside the window.
	if recovered > 50 {
		t.Fatalf("recovery took %d selections, want a bounded handful", recovered)
	}
}

// TestRRRotation: the blind policy rotates across replicas regardless of
// cache or health state.
func TestRRRotation(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 64*testPage)
	e := engineFor(fx)
	outs := make([]Read, 6)
	for i := range outs {
		e.AddStream(simclock.Duration(i)*simclock.Second, fx.f.ReadProgram(PolicyRR, 0, testPage, &outs[i]))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		want := fx.f.Replica(i % fx.f.Replicas()).Dev
		if outs[i].Dev != want {
			t.Fatalf("read %d served by %v, want rotation to %v", i, outs[i].Dev, want)
		}
	}
}

// TestFleetDeterminism: identical runs produce identical schedules and
// identical per-replica counters.
func TestFleetDeterminism(t *testing.T) {
	run := func() ([]simclock.Duration, []int64) {
		cfg := DefaultConfig()
		cfg.ProbeEvery = 4
		fx := newFleet(t, cfg, 64*testPage)
		injectReplica(fx, 1, faults.Config{Seed: 9, PFault: 0.5, MaxConsecutive: 2})
		e := engineFor(fx)
		outs := make([]Read, 12)
		for i := range outs {
			policy := PolicySLEDHedge
			if i%3 == 0 {
				policy = PolicySLED
			}
			off := int64(i%8) * 4 * testPage
			e.AddStream(simclock.Duration(i)*20*simclock.Millisecond,
				fx.f.ReadProgram(policy, off, 2*testPage, &outs[i]))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		times := make([]simclock.Duration, len(outs))
		for i := range outs {
			times[i] = e.FinishTime(iosched.StreamID(i))
		}
		counters := make([]int64, 0, fx.f.Replicas()*3)
		for i := 0; i < fx.f.Replicas(); i++ {
			r := fx.f.Replica(i)
			counters = append(counters, r.Issued, r.Faults, r.Probes)
		}
		return times, counters
	}
	t1, c1 := run()
	t2, c2 := run()
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(c1, c2) {
		t.Fatalf("identical fleet runs diverged:\n%v\n%v\n%v\n%v", t1, t2, c1, c2)
	}
}

// TestReplicatedContentIdentical: every replica's copy carries the same
// bytes, so a hedge winner's identity never changes the data.
func TestReplicatedContentIdentical(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 8*testPage)
	want := workload.NewText(1, 8*testPage, testPage).ReadAll()
	for i := 0; i < fx.f.Replicas(); i++ {
		f, err := fx.k.Open(formatPath("/data", i))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8*testPage)
		if _, err := f.ReadAt(got, 0); err != nil {
			f.Close()
			t.Fatal(err)
		}
		f.Close()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("replica %d byte %d differs from the content seed", i, j)
			}
		}
	}
}

func formatPath(prefix string, i int) string {
	return prefix + ".r" + string(rune('0'+i))
}

// slowReads is a replica device whose every read first stalls for delay:
// a server slower than anything its estimate says.
type slowReads struct {
	device.Device
	delay simclock.Duration
}

func (d *slowReads) ReadErr(c *simclock.Clock, off, n int64) error {
	c.Advance(d.delay)
	return device.ReadErr(d.Device, c, off, n)
}

func (d *slowReads) WriteErr(c *simclock.Clock, off, n int64) error {
	return device.WriteErr(d.Device, c, off, n)
}

// failFirstRead is a replica device whose first read fails fast with a
// fault naming the device; everything after passes through.
type failFirstRead struct {
	device.Device
	failed bool
}

func (d *failFirstRead) ReadErr(c *simclock.Clock, off, n int64) error {
	if !d.failed {
		d.failed = true
		c.Advance(simclock.Microsecond)
		return &device.Fault{Dev: d.Info().ID, Class: device.FaultTimeout, Extra: faults.TimeoutExtra, Seq: 1}
	}
	return device.ReadErr(d.Device, c, off, n)
}

func (d *failFirstRead) WriteErr(c *simclock.Clock, off, n int64) error {
	return device.WriteErr(d.Device, c, off, n)
}

// TestHedgeWinnerFaultOnDeviceZero: device IDs start at 0, so a replica
// can be device 0 (here the kernel's memory device is never attached, and
// replica 0 takes the first registry slot). When that replica wins a hedge
// race with a fault, the fault is charged to it — not to the primary, as
// happened while ID 0 doubled as "no device".
func TestHedgeWinnerFaultOnDeviceZero(t *testing.T) {
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: 64, MemDevice: mem})
	cfg := DefaultConfig()
	cfg.Replicas = 2
	f, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Replica(0).Dev != 0 {
		t.Fatalf("replica 0 is device %d, want 0", f.Replica(0).Dev)
	}
	tab, err := lmbench.Calibrate(k.Clock, mem, k.Devices.All())
	if err != nil {
		t.Fatal(err)
	}
	f.SetTable(tab)
	if err := f.CreateFile("/data", 1, 64*testPage); err != nil {
		t.Fatal(err)
	}
	k.ResetDeviceState()
	fx := &fixture{k: k, f: f, tab: tab}

	// Replica 1 holds the region in its server cache, so it is the primary
	// and replica 0 the hedge target. Replica 1 stalls for a second, so the
	// hedge fires, and replica 0 fails its first read within a microsecond,
	// long before the primary's bytes cross the wire.
	r1 := f.Replica(1)
	if err := r1.Server().ReadThrough(k.Clock, r1.Inode().Extent(), 4*testPage); err != nil {
		t.Fatal(err)
	}
	k.Devices.Replace(r1.Dev, &slowReads{Device: k.Devices.Get(r1.Dev), delay: simclock.Second})
	k.Devices.Replace(0, &failFirstRead{Device: k.Devices.Get(0)})
	e := engineFor(fx)
	var out Read
	e.AddStream(0, f.ReadProgram(PolicySLEDHedge, 0, 4*testPage, &out))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Err != nil || out.Failed != 1 || !out.Hedged {
		t.Fatalf("outcome %+v, want one absorbed hedge-winner fault and a clean retry", out)
	}
	if f0, f1 := f.Replica(0).Faults, f.Replica(1).Faults; f0 != 1 || f1 != 0 {
		t.Fatalf("fault charged to replicas (0: %d, 1: %d), want it on replica 0, the device that faulted", f0, f1)
	}
	now := k.Clock.Now()
	if p0, p1 := tab.HealthPenalty(0, now), tab.HealthPenalty(f.Replica(1).Dev, now); p0 <= 0 || p1 != 0 {
		t.Fatalf("table penalties (device 0: %v, replica 1: %v), want the fault fed to device 0 alone", p0, p1)
	}
}

// TestSteadyStateReadAllocatesNothing pins the host cost of a logical
// read: one Read, reused in place for read after read and stepped to
// completion against unqueued devices (every Op completes in place) by an
// engine that is run again and again, performs no allocation once the
// table's memo entries and the Read's attempt buffer exist — selection,
// the SLED queries behind it, the Op and the server-cache update included.
func TestSteadyStateReadAllocatesNothing(t *testing.T) {
	fx := newFleet(t, DefaultConfig(), 64*testPage)
	st := benchStream{f: fx.f, policy: PolicySLED} // bench_test.go: reads back to back on one Read
	for r := int64(0); r < 16; r++ {
		st.offs = append(st.offs, r*4*testPage)
	}
	e := iosched.NewEngine(fx.k)
	e.AddStream(0, &st)
	run := func() {
		st.cur = 0
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // first use: memo entries, scratch vectors, the attempt buffer, server-cache frames
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("%d steady-state SLED reads cost %.0f allocations; want 0", len(st.offs), avg)
	}
}
