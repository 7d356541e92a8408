package lmbench

import (
	"testing"

	"sleds/internal/device"
	"sleds/internal/simclock"
)

// within asserts got is within frac of want.
func within(t *testing.T, name string, got, want, frac float64) {
	t.Helper()
	lo, hi := want*(1-frac), want*(1+frac)
	if got < lo || got > hi {
		t.Errorf("%s = %v, want within %v%% of %v", name, got, frac*100, want)
	}
}

func TestMeasureMemoryMatchesTable2(t *testing.T) {
	mem := device.NewMem(device.Table2MemConfig(0))
	e := MeasureMemory(simclock.New(), mem)
	within(t, "memory latency", e.Latency, 175e-9, 0.25)
	within(t, "memory bandwidth", e.Bandwidth, 48*float64(1<<20), 0.05)
}

func TestMeasureDiskMatchesTable2(t *testing.T) {
	d := device.NewDisk(device.Table2DiskConfig(1))
	e, err := MeasureDevice(simclock.New(), d)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 2: 18 ms, 9.0 MB/s. The models are tuned, not exact.
	within(t, "disk latency", e.Latency, 18e-3, 0.2)
	within(t, "disk bandwidth", e.Bandwidth, 9*float64(1<<20), 0.15)
}

func TestMeasureDiskMatchesTable3(t *testing.T) {
	d := device.NewDisk(device.Table3DiskConfig(1))
	e, err := MeasureDevice(simclock.New(), d)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 3: 16.5 ms, 7.0 MB/s.
	within(t, "disk latency", e.Latency, 16.5e-3, 0.2)
	within(t, "disk bandwidth", e.Bandwidth, 7*float64(1<<20), 0.15)
}

func TestMeasureCDROMMatchesTable2(t *testing.T) {
	d := device.NewCDROM(device.DefaultCDROMConfig(1))
	e, err := MeasureDevice(simclock.New(), d)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 2: 130 ms, 2.8 MB/s.
	within(t, "cdrom latency", e.Latency, 130e-3, 0.25)
	within(t, "cdrom bandwidth", e.Bandwidth, 2.8*float64(1<<20), 0.1)
}

func TestMeasureNFSMatchesTable2(t *testing.T) {
	d := device.NewNFS(device.DefaultNFSConfig(1))
	e, err := MeasureDevice(simclock.New(), d)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 2: 270 ms, 1.0 MB/s.
	within(t, "nfs latency", e.Latency, 270e-3, 0.1)
	within(t, "nfs bandwidth", e.Bandwidth, 1.0*float64(1<<20), 0.1)
}

func TestMeasureTapeHasHugeLatency(t *testing.T) {
	d := device.NewTapeLibrary(device.DefaultTapeLibraryConfig(1))
	e, err := MeasureDevice(simclock.New(), d)
	if err != nil {
		t.Fatal(err)
	}
	if e.Latency < 10 {
		t.Errorf("tape latency %v s, expected tens of seconds", e.Latency)
	}
	within(t, "tape bandwidth", e.Bandwidth, 5*float64(1<<20), 0.1)
}

func TestMeasureDeviceResetsState(t *testing.T) {
	d := device.NewDisk(device.DefaultDiskConfig(1))
	clock := simclock.New()
	if _, err := MeasureDevice(clock, d); err != nil {
		t.Fatal(err)
	}
	// After calibration the first access must behave like a cold device:
	// identical to a fresh disk's first access.
	fresh := device.NewDisk(device.DefaultDiskConfig(1))
	c1, c2 := simclock.New(), simclock.New()
	d.Read(c1, 1<<28, 4096)
	fresh.Read(c2, 1<<28, 4096)
	if c1.Now() != c2.Now() {
		t.Fatalf("device state leaked from calibration: %v vs %v", c1.Now(), c2.Now())
	}
}

func TestMeasureDeviceZones(t *testing.T) {
	d := device.NewDisk(device.DefaultDiskConfig(1))
	got, err := MeasureDeviceZones(simclock.New(), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != zones {
		t.Fatalf("got %d zones, want %d", len(got), zones)
	}
	if got[0].FromByte != 0 {
		t.Fatalf("first zone at %d", got[0].FromByte)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Bandwidth >= got[i-1].Bandwidth {
			t.Fatalf("zone %d bandwidth %v not below zone %d's %v (outer zones are faster)",
				i, got[i].Bandwidth, i-1, got[i-1].Bandwidth)
		}
	}
}

func TestCalibrateFillsWholeTable(t *testing.T) {
	clock := simclock.New()
	mem := device.NewMem(device.Table2MemConfig(0))
	devs := []device.Device{
		mem,
		device.NewDisk(device.Table2DiskConfig(1)),
		device.NewCDROM(device.DefaultCDROMConfig(2)),
		device.NewNFS(device.DefaultNFSConfig(3)),
	}
	tab, err := Calibrate(clock, mem, devs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.Memory(); !ok {
		t.Fatalf("memory entry missing")
	}
	for _, id := range []device.ID{1, 2, 3} {
		if _, ok := tab.Device(id); !ok {
			t.Fatalf("device %d entry missing", id)
		}
	}
	// Memory devices other than the designated one are skipped.
	if _, ok := tab.Device(0); ok {
		t.Fatalf("memory device has a storage entry")
	}
	// Latencies must be ordered mem < disk < cdrom < nfs as in Table 2.
	memE, _ := tab.Memory()
	diskE, _ := tab.Device(1)
	cdE, _ := tab.Device(2)
	nfsE, _ := tab.Device(3)
	if !(memE.Latency < diskE.Latency && diskE.Latency < cdE.Latency && cdE.Latency < nfsE.Latency) {
		t.Fatalf("latency ordering broken: %v %v %v %v", memE.Latency, diskE.Latency, cdE.Latency, nfsE.Latency)
	}
}
