package workload

import (
	"bytes"
	"strings"
	"testing"
)

// Regression tests for the splice bounds API: TryInsertAt/TryPlantMatch
// return descriptive errors and leave the content untouched, and the
// panicking PlantMatch carries the same message.

func TestTryInsertAtOutOfRange(t *testing.T) {
	c := New(100, 64, nil)
	cases := []struct {
		off  int64
		n    int
		want string
	}{
		{-1, 4, "outside"},
		{98, 4, "outside"},
		{100, 1, "outside"},
		{1 << 40, 1, "outside"},
	}
	for _, tc := range cases {
		err := c.TryInsertAt(tc.off, make([]byte, tc.n))
		if err == nil {
			t.Fatalf("TryInsertAt(%d, %d bytes) succeeded on 100-byte content", tc.off, tc.n)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("error %q does not mention %q", err, tc.want)
		}
	}
	// A failed splice leaves no fragment behind.
	buf := make([]byte, 64)
	c.ReadPage(0, buf)
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Fatal("failed splice modified the content")
	}
}

func TestTryInsertAtOverlap(t *testing.T) {
	c := New(100, 64, nil)
	if err := c.TryInsertAt(10, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if err := c.TryInsertAt(12, []byte("xy")); err == nil {
		t.Fatal("overlapping splice accepted")
	} else if !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("error %q does not mention the overlap", err)
	}
	// Adjacent (non-overlapping) splices stay legal.
	if err := c.TryInsertAt(14, []byte("zz")); err != nil {
		t.Fatalf("adjacent splice rejected: %v", err)
	}
}

func TestTryPlantMatchTooSmall(t *testing.T) {
	c := NewText(1, 32, 32) // smaller than one 64-byte match line
	err := TryPlantMatch(c, 0, "needle")
	if err == nil {
		t.Fatal("TryPlantMatch on 32-byte content succeeded")
	}
	if !strings.Contains(err.Error(), "match line") {
		t.Fatalf("error %q does not explain the size bound", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PlantMatch on 32-byte content did not panic")
		}
	}()
	PlantMatch(c, 0, "needle")
}

func TestTryPlantMatchClampsOutOfRangeOffsets(t *testing.T) {
	// Offsets past EOF and negative offsets clamp to the nearest fit, as
	// the experiments rely on (needle fractions of small sweep sizes).
	for _, off := range []int64{-5, 0, 1 << 40} {
		c := NewText(1, 4096, 4096)
		if err := TryPlantMatch(c, off, "xyzzy"); err != nil {
			t.Fatalf("TryPlantMatch(off=%d): %v", off, err)
		}
		if !bytes.Contains(c.ReadAll(), []byte("xyzzy")) {
			t.Fatalf("needle not planted for off=%d", off)
		}
	}
}

func TestTryPlantMatchOverlapReported(t *testing.T) {
	c := NewText(1, 4096, 4096)
	if err := TryPlantMatch(c, 100, "xyzzy"); err != nil {
		t.Fatal(err)
	}
	if err := TryPlantMatch(c, 110, "xyzzy"); err == nil {
		t.Fatal("overlapping plant accepted")
	}
}
