// Package apptest provides the shared fixture for application tests: a
// small simulated machine with a calibrated sleds table and helpers to
// create workload files and warm the cache.
package apptest

import (
	"io"
	"testing"

	"sleds/internal/apps/appenv"
	"sleds/internal/machine"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// PageSize used by all app tests.
const PageSize = 4096

// Machine is a booted test machine.
type Machine struct{ *machine.Machine }

// New boots the standard Unix-profile machine with the given cache size
// (in pages) and a calibrated sleds table.
func New(t testing.TB, cachePages int) *Machine {
	t.Helper()
	m, err := machine.Boot(vfs.Config{PageSize: PageSize, CachePages: cachePages}, machine.Unix)
	if err != nil {
		t.Fatal(err)
	}
	return &Machine{m}
}

// Env returns an application environment with the SLEDs switch set.
func (m *Machine) Env(useSLEDs bool) *appenv.Env { return m.Machine.Env(useSLEDs, 0) }

// TextFile creates a pseudo-text file on the disk.
func (m *Machine) TextFile(t testing.TB, path string, seed uint64, size int64) *workload.Content {
	t.Helper()
	c := workload.NewText(seed, size, PageSize)
	if _, err := m.K.Create(path, m.Disk, c); err != nil {
		t.Fatal(err)
	}
	return c
}

// WarmFile reads the whole file once, leaving the usual LRU tail state.
func (m *Machine) WarmFile(t testing.TB, path string) {
	t.Helper()
	f, err := m.K.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := io.Copy(io.Discard, f); err != nil {
		t.Fatal(err)
	}
}
