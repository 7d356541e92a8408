package vfs

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"sleds/internal/device"
)

// writeFile creates path empty on dev, writes data through the kernel and
// syncs, so that the bytes reach the file's content.
func writeFile(t *testing.T, k *Kernel, path string, dev device.ID, data []byte) {
	t.Helper()
	if _, err := k.CreateEmpty(path, dev); err != nil {
		t.Fatal(err)
	}
	f, err := k.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// allocated returns the bytes the heap handed out while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRemovedFileReadableUntilClose removes a written file while a File
// holds it open. Reads through that File still return its bytes, however
// much is written elsewhere meanwhile, because its written pages go back to
// the store only at the last Close; after it, the next file's writes take
// them instead of new memory.
func TestRemovedFileReadableUntilClose(t *testing.T) {
	const pages = 64
	k, disk, _, _ := testMachine(t, 8)
	data := map[byte][]byte{}
	for _, c := range []byte("abc") {
		data[c] = bytes.Repeat([]byte{c}, pages*testPage)
	}
	writeFile(t, k, "/data/a", disk, data['a'])
	f, err := k.Open("/data/a")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Remove("/data/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.OpenInode(f.Inode()); !errors.Is(err, ErrNotExist) {
		t.Fatalf("reopening a removed file: %v", err)
	}
	kept := allocated(func() { writeFile(t, k, "/data/b", disk, data['b']) })
	got, err := io.ReadAll(io.NewSectionReader(f, 0, f.Size()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data['a']) {
		t.Fatal("a removed file open for reading lost its bytes to a later write")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reused := allocated(func() { writeFile(t, k, "/data/c", disk, data['c']) })
	if kept < pages*testPage || reused > pages*testPage/8 {
		t.Fatalf("writing %d pages allocated %d bytes with the removed file open, %d after its Close", pages, kept, reused)
	}
	for _, c := range []byte("bc") {
		g, err := k.Open("/data/" + string(c))
		if err != nil {
			t.Fatal(err)
		}
		k.DropCaches()
		got, err := io.ReadAll(io.NewSectionReader(g, 0, g.Size()))
		if err != nil || !bytes.Equal(got, data[c]) {
			t.Fatalf("/data/%c: %v, or its bytes differ", c, err)
		}
		g.Close()
	}
}
