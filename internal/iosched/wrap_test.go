package iosched

import (
	"errors"
	"testing"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// TestWrappersKeepDeviceCapabilities pins the wrapper contract (DESIGN.md,
// "Wrapping a device") for the two media whose capabilities the VFS
// enforces: under every stacking of the injector and the queue the
// registered device reports the raw device's Info, a CD-ROM still refuses
// writes, and a tape library still keeps every extent inside one
// cartridge. Everything here runs outside Run, where a queue passes
// accesses straight through.
func TestWrappersKeepDeviceCapabilities(t *testing.T) {
	const ps = 4096
	tapeCfg := device.DefaultTapeLibraryConfig(1)
	tapeCfg.NumCartridges, tapeCfg.CartridgeSize = 4, 64*ps
	cart := tapeCfg.CartridgeSize

	inject := func(k *vfs.Kernel, _ *Engine, id device.ID) {
		w, _ := faults.Wrap(k.Devices.Get(id), faults.Config{})
		k.Devices.Replace(id, w)
	}
	queue := func(_ *vfs.Kernel, e *Engine, id device.ID) { e.Queue(id, NewFCFS()) }
	type wrapFn func(*vfs.Kernel, *Engine, device.ID)
	stacks := []struct {
		name  string
		wraps []wrapFn
	}{
		{"raw", nil},
		{"faults.Wrap", []wrapFn{inject}},
		{"Engine.Queue", []wrapFn{queue}},
		{"injector-over-queue", []wrapFn{queue, inject}},
		{"queue-over-injector", []wrapFn{inject, queue}},
	}
	// boot attaches raw under the stack and checks Info survives it.
	boot := func(t *testing.T, raw device.Device, wraps []wrapFn) (*vfs.Kernel, device.ID) {
		mem := device.NewMem(device.DefaultMemConfig(0))
		k := vfs.NewKernel(vfs.Config{PageSize: ps, CachePages: 16, MemDevice: mem})
		k.AttachDevice(mem)
		id := k.AttachDevice(raw)
		e := NewEngine(k)
		for _, w := range wraps {
			w(k, e, id)
		}
		if got, want := k.Devices.Get(id).Info(), raw.Info(); got != want {
			t.Fatalf("wrapped Info = %+v, raw device's is %+v", got, want)
		}
		return k, id
	}

	for _, st := range stacks {
		t.Run(st.name+"/cdrom", func(t *testing.T) {
			k, id := boot(t, device.NewCDROM(device.DefaultCDROMConfig(1)), st.wraps)
			if _, err := k.Create("/disc", id, workload.NewText(1, 8*ps, ps)); err != nil {
				t.Fatal(err)
			}
			f, err := k.Open("/disc")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(make([]byte, ps), 0); !errors.Is(err, vfs.ErrReadOnly) {
				t.Fatalf("WriteAt on a CD-ROM file = %v, want ErrReadOnly", err)
			}
		})
		t.Run(st.name+"/tape", func(t *testing.T) {
			k, id := boot(t, device.NewTapeLibrary(tapeCfg), st.wraps)
			if _, err := k.Create("/big", id, workload.New(cart+ps, ps, nil)); !errors.Is(err, vfs.ErrNoSpace) {
				t.Fatalf("Create of a cartridge plus a page = %v, want ErrNoSpace", err)
			}
			// allocExtent: a file that would straddle the boundary its
			// predecessor ends near starts on the next cartridge.
			if _, err := k.Create("/a", id, workload.New(cart-2*ps, ps, nil)); err != nil {
				t.Fatal(err)
			}
			b, err := k.Create("/b", id, workload.New(4*ps, ps, nil))
			if err != nil {
				t.Fatal(err)
			}
			if b.Extent() != cart {
				t.Fatalf("second file starts at %d, want the next cartridge (%d)", b.Extent(), cart)
			}
			// ensureExtent: the device's last file may not grow out of
			// its cartridge.
			f, err := k.OpenInode(b)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(make([]byte, ps), cart); !errors.Is(err, vfs.ErrNoSpace) {
				t.Fatalf("growing the last file across a cartridge = %v, want ErrNoSpace", err)
			}
		})
	}
}
